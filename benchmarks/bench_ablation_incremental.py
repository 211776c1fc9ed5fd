"""Ablation: incremental index maintenance (Algorithm 1) vs full rebuild.

The paper's architecture exists so that periodic batches cost O(batch), not
O(log).  This bench indexes a base log once, then times (a) appending one
small batch via the Seq-derived incremental update and (b) rebuilding
everything from scratch.
"""

from __future__ import annotations

from conftest import SCALE
from repro.bench.workloads import build_index, prepared_dataset
from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.policies import Policy

DATASET = "med_5000"


def _base_and_batch():
    log = prepared_dataset(DATASET, SCALE)
    trace_ids = log.trace_ids[: max(1, len(log) // 10)]
    batch = []
    for trace_id in trace_ids:
        trace = log.trace(trace_id)
        tail = trace.timestamps[-1]
        for i, activity in enumerate(trace.activities[:5]):
            batch.append(Event(trace_id, activity, tail + 1 + i))
    return log, batch


def test_incremental_batch_append(benchmark):
    log, batch = _base_and_batch()
    base_index = build_index(log, Policy.STNM)
    store = base_index.store

    # Appending the same batch repeatedly keeps timestamps increasing per
    # round, so each benchmark round is a valid incremental update.
    offset = [0.0]

    def run():
        offset[0] += 1000.0
        shifted = [
            Event(ev.trace_id, ev.activity, ev.timestamp + offset[0]) for ev in batch
        ]
        index = SequenceIndex(store, policy=Policy.STNM)
        return index.update(shifted)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.events_indexed == len(batch)


def test_full_rebuild(benchmark):
    log, _ = _base_and_batch()
    benchmark.pedantic(lambda: build_index(log, Policy.STNM), rounds=3, iterations=1)
