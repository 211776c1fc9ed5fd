"""Figure 3: the three STNM flavors on uncorrelated random logs.

Paper shape: the Indexing flavor dominates (up to an order of magnitude),
Parsing grows super-linearly with the number of distinct activities
(third sweep), and State sits between them with hash-map overheads.
"""

from __future__ import annotations

import pytest

from conftest import SCALE
from repro.core.pairs import indexing_pairs, parsing_pairs, state_pairs
from repro.logs.generator import RandomLogConfig, generate_random_log

FLAVORS = (indexing_pairs, parsing_pairs, state_pairs)

#: (sweep label, config) -- one representative point per paper sweep axis
SWEEP_POINTS = (
    (
        "events2000",
        RandomLogConfig(
            num_traces=max(5, round(1000 * SCALE)),
            max_events_per_trace=2000,
            num_activities=500,
            seed=31,
        ),
    ),
    (
        "traces2500",
        RandomLogConfig(
            num_traces=max(5, round(2500 * SCALE)),
            max_events_per_trace=1000,
            num_activities=100,
            seed=32,
        ),
    ),
    (
        "acts1000",
        RandomLogConfig(
            num_traces=max(5, round(500 * SCALE)),
            max_events_per_trace=500,
            num_activities=1000,
            seed=33,
        ),
    ),
)

_LOG_CACHE = {}


def _log_for(label, config):
    if label not in _LOG_CACHE:
        _LOG_CACHE[label] = generate_random_log(config)
    return _LOG_CACHE[label]


@pytest.mark.parametrize("label,config", SWEEP_POINTS, ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.__name__)
def test_random_log_pair_creation(benchmark, label, config, flavor):
    log = _log_for(label, config)
    views = [(trace.activities, trace.timestamps) for trace in log]
    benchmark.extra_info["events"] = log.num_events

    def run():
        # Each result is dropped, as the builder drops it: retained, the
        # results would put cyclic-GC passes over their columns in the timing.
        for acts, stamps in views:
            flavor(acts, stamps)

    benchmark.pedantic(run, rounds=2, iterations=1)
