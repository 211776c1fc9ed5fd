"""SequenceIndex facade: wiring, persistence, partitions, pruning."""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEngine, SequenceIndex
from repro.core.errors import IndexStateError
from repro.core.model import Event, EventLog
from repro.core.policies import Policy
from repro.kvstore import LSMStore
from repro.shard import ShardedSequenceIndex

from .test_builder import _CountingStore


def _check_prune_changes_no_answer(index, log) -> None:
    """Prune the trace holding every pair's latest completion: the trace
    leaves ``trace_ids()`` with one blind ``Seq`` delete, nothing else moves."""
    patterns = (["A", "B"], ["A", "C", "B"], ["C", "B", "A"])
    with index:
        index.update(log)
        # t1 = AAABAACB is the longest trace by far, and 26 more activities
        # make its alphabet-squared 841 pairs.
        index.update([Event("t1", chr(ord("a") + i), 100 + i) for i in range(26)])
        stores = [shard.store for shard in getattr(index, "shards", [index])]
        before = [
            (index.statistics(p, all_pairs=True), index.detect(p), index.count(p))
            for p in patterns
        ]
        assert before[0][0].pairs[0].last_completion == 7  # set by t1; t2's is 1
        reads = [(s.get_calls, s.multi_get_calls) for s in stores]
        for store in stores:
            store.writes.clear()

        index.prune_trace("t1")

        assert [(s.get_calls, s.multi_get_calls) for s in stores] == reads
        assert [w for s in stores for w in s.writes] == [("delete", "seq")]
        assert sorted(index.trace_ids()) == ["t2", "t3"]
        assert before == [
            (index.statistics(p, all_pairs=True), index.detect(p), index.count(p))
            for p in patterns
        ]


class TestFacade:
    def test_default_store_is_memory(self, paper_log):
        index = SequenceIndex()
        index.update(paper_log)
        assert index.detect(["A", "B"])
        assert index.policy is Policy.STNM

    def test_trace_ids_and_activities(self, paper_log):
        index = SequenceIndex()
        index.update(paper_log)
        assert sorted(index.trace_ids()) == ["t1", "t2", "t3"]
        assert index.activities() == {"A", "B", "C"}

    def test_context_manager_closes_store(self, tmp_path):
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as index:
            index.update(EventLog.from_dict({"t": "AB"}))
        from repro.kvstore.api import StoreClosedError

        with pytest.raises(StoreClosedError):
            index.store.get("meta", "meta")

    def test_prune_trace(self, paper_log):
        _check_prune_changes_no_answer(SequenceIndex(_CountingStore()), paper_log)

    def test_prune_trace_sharded(self, paper_log):
        shards = [SequenceIndex(_CountingStore()) for _ in range(2)]
        _check_prune_changes_no_answer(ShardedSequenceIndex(shards), paper_log)


class TestIntrospection:
    def test_get_trace(self, paper_log):
        index = SequenceIndex()
        index.update(paper_log)
        assert index.get_trace("t2") == [("A", 0), ("B", 1), ("C", 2)]
        assert index.get_trace("missing") == []

    def test_top_pairs(self, paper_log):
        index = SequenceIndex()
        index.update(paper_log)
        top = index.top_pairs(3)
        assert len(top) == 3
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)
        # (A, B) completes 3 times and is the most frequent pair.
        assert top[0] == (("A", "B"), 3)

    def test_top_pairs_k_bounds(self, paper_log):
        index = SequenceIndex()
        index.update(paper_log)
        with pytest.raises(ValueError):
            index.top_pairs(0)
        everything = index.top_pairs(1000)
        assert len(everything) >= 5


class TestPersistence:
    def test_detect_after_reopen(self, tmp_path, paper_log):
        path = str(tmp_path / "ix")
        with SequenceIndex(LSMStore(path)) as index:
            index.update(paper_log)
            before = index.detect(["A", "B"])
        with SequenceIndex(LSMStore(path)) as index:
            assert index.detect(["A", "B"]) == before

    def test_policy_mismatch_on_reopen(self, tmp_path, paper_log):
        path = str(tmp_path / "ix")
        with SequenceIndex(LSMStore(path), policy=Policy.STNM) as index:
            index.update(paper_log)
        with pytest.raises(IndexStateError):
            SequenceIndex(LSMStore(path), policy=Policy.SC)

    def test_incremental_across_reopen(self, tmp_path):
        path = str(tmp_path / "ix")
        with SequenceIndex(LSMStore(path)) as index:
            index.update([Event("t", "A", 1)])
        with SequenceIndex(LSMStore(path)) as index:
            index.update([Event("t", "B", 2)])
            assert index.tables.get_index(("A", "B")) == [("t", 1, 2)]


class TestPartitions:
    def test_partition_isolation_and_union(self, paper_log):
        index = SequenceIndex()
        index.update(
            EventLog.from_dict({"jan_t": "AB"}), partition="2026-01"
        )
        index.update(
            EventLog.from_dict({"feb_t": "AB"}), partition="2026-02"
        )
        jan = index.detect(["A", "B"], partition="2026-01")
        feb = index.detect(["A", "B"], partition="2026-02")
        both = index.detect(["A", "B"], partition=None)
        assert {m.trace_id for m in jan} == {"jan_t"}
        assert {m.trace_id for m in feb} == {"feb_t"}
        assert {m.trace_id for m in both} == {"jan_t", "feb_t"}

    def test_default_partition_included_in_union(self):
        index = SequenceIndex()
        index.update(EventLog.from_dict({"t": "AB"}))
        assert index.detect(["A", "B"], partition=None)

    def test_partitions_survive_reopen(self, tmp_path):
        path = str(tmp_path / "ix")
        with SequenceIndex(LSMStore(path)) as index:
            index.update(EventLog.from_dict({"t": "AB"}), partition="p1")
        with SequenceIndex(LSMStore(path)) as index:
            assert index.detect(["A", "B"], partition=None)
            assert index.detect(["A", "B"], partition="p1")

    def test_statistics_are_global_across_partitions(self):
        index = SequenceIndex()
        index.update(EventLog.from_dict({"a": "AB"}), partition="p1")
        index.update(EventLog.from_dict({"b": "AB"}), partition="p2")
        assert index.statistics(["A", "B"]).pairs[0].completions == 2


def test_no_method_is_written_twice():
    """The engine surface is written once, in ``QueryEngine``, over the
    shards: neither engine may grow a second copy of a method, beside the
    other engine or over ``QueryEngine``'s."""
    allowed = {
        "__init__": "each engine builds its own parts",
        "open": "only a sharded store has a manifest to open",
        "storage_stats": "a sharded store reports one breakdown per shard",
        "shard_of": "the placement rule: a single store owns every trace",
    }

    def methods(cls):
        return {
            name
            for name, value in vars(cls).items()
            if not (name.startswith("_") and not name.startswith("__"))
            and (callable(value) or isinstance(value, (property, classmethod)))
        }

    single, sharded = methods(SequenceIndex), methods(ShardedSequenceIndex)
    engine = methods(QueryEngine)
    assert (single & sharded) | (single & engine) | (sharded & engine) <= set(allowed)
