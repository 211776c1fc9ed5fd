"""repro: a full reproduction of "Sequence detection in event log files".

(Mavroudopoulos et al., EDBT 2021.)

The package indexes large collections of event logs so that arbitrary
sequential patterns -- under strict-contiguity or skip-till-next-match
semantics -- can be detected, counted and extended quickly, with the index
maintained incrementally as new log batches arrive.

Quickstart::

    from repro import EventLog, SequenceIndex, Policy

    log = EventLog.from_dict({
        "t1": ["A", "A", "B", "A", "B", "A"],
        "t2": ["A", "B", "C"],
    })
    index = SequenceIndex(policy=Policy.STNM)
    index.update(log)
    index.detect(["A", "B"])          # -> pattern matches with timestamps
    index.continuations(["A", "B"])   # -> ranked next-event proposals

Sub-packages: :mod:`repro.core` (the paper's contribution),
:mod:`repro.kvstore` (embedded LSM store), :mod:`repro.shard` (trace
placement and scatter-gather), :mod:`repro.logs` (parsers and generators),
:mod:`repro.baselines` (suffix-array matcher, Elasticsearch-like engine,
SASE CEP engine), :mod:`repro.bench` (experiment harness).
"""

from repro.core import (
    Completion,
    ContinuationProposal,
    EmptyPatternError,
    Event,
    EventLog,
    PairStats,
    Pattern,
    PatternElement,
    PatternMatch,
    PatternSyntaxError,
    Policy,
    PolicyMismatchError,
    ReproError,
    SequenceIndex,
    Trace,
    TraceOrderError,
    create_pairs,
    parse_pattern,
)

__version__ = "1.0.0"

__all__ = [
    "SequenceIndex",
    "Event",
    "Trace",
    "EventLog",
    "Policy",
    "create_pairs",
    "Pattern",
    "PatternElement",
    "parse_pattern",
    "PatternMatch",
    "Completion",
    "PairStats",
    "ContinuationProposal",
    "ReproError",
    "TraceOrderError",
    "EmptyPatternError",
    "PatternSyntaxError",
    "PolicyMismatchError",
    "__version__",
]
