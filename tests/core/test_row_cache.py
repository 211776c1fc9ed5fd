"""The engine's row cache: one byte budget for every decoded row.

Postings, Seq rows and Count rows share one LRU of ``cache_bytes``, each
charged an estimate of its resident decoded size.  These tests hold the
budget (the charges never exceed it, an oversized row is not cached), the
per-kind accounting, and the estimates themselves against ``tracemalloc``.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event, EventLog
from repro.core.query import _CHARGE, COUNT, KINDS, POSTINGS, SEQUENCE
from repro.kvstore import LSMStore
from repro.logs import load_dataset

LOG = {f"t{i}": "ABCDABCE"[i % 4 :] + "DCBA"[: i % 3] for i in range(12)}


def _queries(index):
    """A mixed sequence touching every kind of row."""
    for pattern in (["A", "B"], ["B", "C", "D"], ["C", "A"], ["D", "B"]):
        yield lambda: index.detect(pattern)
        yield lambda: index.count(pattern)
    for composite in ("SEQ(A, (B|C)+)", "SEQ(A, !E, D)", "SEQ(B, D) WITHIN 5"):
        yield lambda: index.detect(composite)
    for pattern in (["A"], ["B", "C"], ["D"]):
        yield lambda: index.continuations(pattern, top_k=3)
        yield lambda: index.explore_at(pattern, 0)


def _stats_by_kind(index):
    return {kind: index.query.kind_stats(kind) for kind in KINDS}


def test_charges_never_exceed_the_budget():
    budget = 6 * 1024
    index = SequenceIndex(query_cache_size=0, cache_bytes=budget)
    index.update(EventLog.from_dict(LOG))
    for step, query in enumerate(_queries(index)):
        query()
        stats = index.row_cache_stats()
        assert stats["weight"] <= budget, step
        if step % 5 == 4:  # a write between queries drops what it wrote
            index.update([Event(f"w{step}", "A", 1.0), Event(f"w{step}", "B", 2.0)])
    assert index.row_cache_stats()["evictions"] > 0  # the budget did bind


def test_a_row_heavier_than_the_budget_is_not_cached_and_evicts_nothing():
    index = SequenceIndex(query_cache_size=0, cache_bytes=2048)
    index.update(EventLog.from_dict({"small": "AB"}))
    index.update([Event("big", "AB"[i % 2], float(i)) for i in range(40)])
    assert _CHARGE[SEQUENCE]((["A"] * 40, [0.0] * 40)) > 2048
    index.detect("SEQ(A, B)")  # the (A, B) postings and both Seq rows
    cached = index.query.row_cache.keys()
    assert (SEQUENCE, None, "small") in cached
    assert (SEQUENCE, None, "big") not in cached
    before = index.row_cache_stats()
    index.detect("SEQ(A, B)")
    after = index.row_cache_stats()
    assert index.query.row_cache.keys() == cached
    assert after["weight"] == before["weight"]
    assert after["evictions"] == before["evictions"] == 0
    assert index.sequence_cache_stats()["misses"] == 3  # "big" both times


def test_per_kind_lookups_add_up_to_the_stats_views():
    index = SequenceIndex(query_cache_size=0)
    index.update(EventLog.from_dict(LOG))
    for _ in range(2):
        for query in _queries(index):
            query()
    kinds = _stats_by_kind(index)
    total = index.row_cache_stats()
    assert all(kinds[kind]["hits"] and kinds[kind]["misses"] for kind in KINDS)
    for field in ("hits", "misses", "entries"):
        assert sum(kinds[kind][field] for kind in KINDS) == total[field], field
    assert index.postings_cache_stats() == kinds[POSTINGS]
    assert index.sequence_cache_stats() == kinds[SEQUENCE]
    snapshot = index.store.metrics.snapshot()
    assert snapshot["postings_cache_hits"] == kinds[POSTINGS]["hits"]
    assert snapshot["sequence_cache_misses"] == kinds[SEQUENCE]["misses"]


def test_concurrent_lookups_are_all_counted_within_the_budget():
    budget = 4 * 1024
    index = SequenceIndex(query_cache_size=0, cache_bytes=budget)
    index.update(EventLog.from_dict(LOG))
    errors: list[BaseException] = []

    def reader():
        try:
            for _ in range(3):
                for query in _queries(index):
                    query()
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for step in range(10):  # a writer beside the readers
            index.update([Event(f"w{step}", "A", 1.0), Event(f"w{step}", "C", 2.0)])
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    kinds = _stats_by_kind(index)
    total = index.row_cache_stats()
    assert total["weight"] <= budget
    for field in ("hits", "misses"):  # a lost tally update would break this
        assert sum(kinds[kind][field] for kind in KINDS) == total[field], field


def test_no_budget_turns_off_every_row_cache():
    index = SequenceIndex(query_cache_size=0, cache_bytes=0)
    index.update(EventLog.from_dict(LOG))
    for query in _queries(index):
        query()
    assert index.row_cache_stats() == {}
    assert index.postings_cache_stats() == index.sequence_cache_stats() == {}
    assert index.query.kind_stats(COUNT) == {}


def _resident_bytes(decode):
    """Bytes ``decode()``'s result holds, by ``tracemalloc``: the value is
    decoded once first so that store-side caches are warm."""
    decode()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = decode()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return value, held


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    log = load_dataset("max_1000", 0.1)
    store = LSMStore(str(tmp_path_factory.mktemp("rows") / "store"))
    index = SequenceIndex(store)
    half = len(log) // 2  # two batches: Index rows of several chunks
    index.update(EventLog(list(log)[:half]))
    index.update(EventLog(list(log)[half:]))
    index.flush()
    yield index, log
    index.close()


def test_each_charge_is_within_half_and_twice_the_measured_size(built_store):
    index, log = built_store
    tables = index.tables
    traces = sorted(log, key=len)
    trace_ids = [traces[len(traces) // 2].trace_id, traces[-1].trace_id]
    pairs = [pair for pair, _ in index.top_pairs(40)][::13]
    firsts = sorted(index.activities())[:3]
    rows = [(SEQUENCE, lambda t=t: tables.get_sequences([t])[0]) for t in trace_ids]
    rows += [(POSTINGS, lambda p=p: tables.get_index_many([p])[p]) for p in pairs]
    rows += [(COUNT, lambda f=f: tables.get_count_rows([f])[f]) for f in firsts]
    for kind, decode in rows:
        value, held = _resident_bytes(decode)
        charge = _CHARGE[kind](value)
        assert held / 2 <= charge <= held * 2, (kind, charge, held)
