"""The paper's contribution: pair-based sequence indexing and querying.

Modules map one-to-one onto the paper's sections:

* :mod:`repro.core.model`        -- Definition 2.1 (event log formalism)
* :mod:`repro.core.policies`     -- SC / STNM / STAM detection policies (§2.1)
* :mod:`repro.core.pairs`        -- event-pair creation, Algorithms 6-8 (§4)
* :mod:`repro.core.tables`       -- the five index tables (§3.1.2)
* :mod:`repro.core.builder`      -- incremental index update, Algorithm 1 (§3.1.3)
* :mod:`repro.core.query`        -- statistics + pattern detection, Algorithm 2 (§3.2.1)
* :mod:`repro.core.pattern`      -- composite pattern language (SEQ/!/(|)/+/WITHIN)
* :mod:`repro.core.continuation` -- Accurate / Fast / Hybrid, Algorithms 3-5 (§3.2.2)
* :mod:`repro.core.engine`       -- the `SequenceIndex` facade tying it together
"""

from repro.core.engine import SequenceIndex
from repro.core.errors import (
    EmptyPatternError,
    PatternSyntaxError,
    PolicyMismatchError,
    ReproError,
    TraceOrderError,
)
from repro.core.matches import (
    Completion,
    ContinuationProposal,
    PairStats,
    PatternMatch,
)
from repro.core.model import Event, EventLog, Trace
from repro.core.pairs import create_pairs
from repro.core.pattern import Pattern, PatternElement, parse_pattern
from repro.core.policies import Policy

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
]
