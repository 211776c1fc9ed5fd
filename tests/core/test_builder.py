"""Index builder (Algorithm 1): full builds, incremental updates,
duplicate prevention."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import IndexBuilder
from repro.core.engine import SequenceIndex
from repro.core.errors import TraceOrderError
from repro.core.model import Event, EventLog
from repro.core.policies import Policy
from repro.kvstore import InMemoryStore


def _build(log, policy=Policy.STNM):
    store = InMemoryStore()
    builder = IndexBuilder(store, policy)
    stats = builder.update(log)
    return builder, stats


class TestFullBuild:
    def test_counts_in_stats(self, paper_log):
        _, stats = _build(paper_log)
        assert stats.traces_seen == 3
        assert stats.new_traces == 3
        assert stats.events_indexed == paper_log.num_events
        assert stats.pairs_created > 0

    def test_seq_table_filled(self, paper_log):
        builder, _ = _build(paper_log)
        assert builder.tables.get_sequence("t2") == (["A", "B", "C"], [0, 1, 2])

    def test_index_matches_pair_creation(self, paper_log):
        from repro.core.pairs import create_pairs

        builder, _ = _build(paper_log)
        trace = paper_log.trace("t1")
        expected = create_pairs(trace.activities, trace.timestamps)
        for pair, ts_pairs in expected.items():
            rows = builder.tables.get_index(pair)
            assert [(a, b) for trace_id, a, b in rows if trace_id == "t1"] == ts_pairs

    def test_counts_and_durations(self):
        log = EventLog.from_dict({"t": "AB"})
        builder, _ = _build(log)
        assert builder.tables.get_pair_count(("A", "B")) == (1.0, 1)
        assert builder.tables.get_reverse_counts("B") == {"A": (1.0, 1)}

    def test_last_checked_filled(self, paper_log):
        builder, _ = _build(paper_log)
        # t1 completes (A, B) last at position 7, t2 at 1: the maximum is kept
        latest = builder.tables.get_last_completions([("A", "B"), ("B", "B")])
        assert latest == {("A", "B"): 7, ("B", "B"): 7}

    def test_empty_batch(self):
        builder, stats = _build(EventLog())
        assert stats.traces_seen == 0


class TestConfigurationValidation:
    def test_stam_not_indexable(self):
        with pytest.raises(ValueError):
            IndexBuilder(InMemoryStore(), Policy.STAM)


class TestIncremental:
    def _batches(self, activities, cuts):
        """Split one trace's activities into event batches at ``cuts``."""
        bounds = [0, *cuts, len(activities)]
        return [
            [
                Event("t", activities[i], i)
                for i in range(bounds[j], bounds[j + 1])
            ]
            for j in range(len(bounds) - 1)
        ]

    @pytest.mark.parametrize("policy", (Policy.STNM, Policy.SC))
    def test_incremental_equals_batch(self, policy):
        activities = list("ABCABDBACBAD")
        full_store = InMemoryStore()
        IndexBuilder(full_store, policy).update(
            EventLog.from_dict({"t": activities})
        )
        inc_store = InMemoryStore()
        inc_builder = IndexBuilder(inc_store, policy)
        for batch in self._batches(activities, [3, 5, 9]):
            if batch:
                inc_builder.update(batch)
        for a in "ABCD":
            for b in "ABCD":
                assert sorted(
                    IndexBuilder(inc_store, policy).tables.get_index((a, b))
                ) == sorted(
                    IndexBuilder(full_store, policy).tables.get_index((a, b))
                ), (a, b)

    @given(
        st.lists(st.sampled_from("ABCD"), min_size=1, max_size=30),
        st.lists(st.integers(1, 29), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_batch_random(self, activities, raw_cuts):
        cuts = sorted({c for c in raw_cuts if c < len(activities)})
        full = SequenceIndex(policy=Policy.STNM)
        full.update(EventLog.from_dict({"t": activities}))
        inc = SequenceIndex(policy=Policy.STNM)
        for batch in self._batches(activities, cuts):
            if batch:
                inc.update(batch)
        types = sorted(set(activities))
        for a in types:
            for b in types:
                assert sorted(inc.tables.get_index((a, b))) == sorted(
                    full.tables.get_index((a, b))
                ), (a, b, activities, cuts)
                assert inc.tables.get_pair_count((a, b)) == full.tables.get_pair_count(
                    (a, b)
                )

    def test_no_duplicates_on_repeated_updates(self):
        index = SequenceIndex(policy=Policy.STNM)
        index.update([Event("t", "A", 1), Event("t", "B", 2)])
        index.update([Event("t", "A", 3), Event("t", "B", 4)])
        assert index.tables.get_index(("A", "B")) == [("t", 1, 2), ("t", 3, 4)]

    def test_dangling_anchor_closed_by_later_batch(self):
        index = SequenceIndex(policy=Policy.STNM)
        index.update([Event("t", "A", 1)])
        assert index.tables.get_index(("A", "B")) == []
        index.update([Event("t", "B", 10)])
        assert index.tables.get_index(("A", "B")) == [("t", 1, 10)]

    def test_out_of_order_batch_rejected(self):
        index = SequenceIndex(policy=Policy.STNM)
        index.update([Event("t", "A", 5)])
        with pytest.raises(TraceOrderError):
            index.update([Event("t", "B", 3)])

    def test_non_increasing_batch_rejected(self):
        index = SequenceIndex(policy=Policy.STNM)
        with pytest.raises(TraceOrderError):
            index.update([Event("t", "A", 1), Event("t", "B", 1)])

    def test_batch_events_need_timestamps(self):
        index = SequenceIndex(policy=Policy.STNM)
        with pytest.raises(TraceOrderError):
            index.update([Event("t", "A", None)])

    def test_new_trace_in_later_batch(self):
        index = SequenceIndex(policy=Policy.STNM)
        index.update([Event("t1", "A", 1), Event("t1", "B", 2)])
        stats = index.update([Event("t2", "A", 1), Event("t2", "B", 2)])
        assert stats.new_traces == 1
        postings = index.tables.get_index_many([("A", "B")])[("A", "B")]
        assert postings.trace_ids() == {"t1", "t2"}


class _CountingStore(InMemoryStore):
    """Counts point ``get`` and batched ``multi_get`` calls and store writes;
    lists the ops written."""

    def __init__(self):
        super().__init__()
        self.get_calls = 0
        self.multi_get_calls = 0
        self.keys_read = 0
        self.write_calls = 0
        self.writes: list[tuple[str, str]] = []  # (operation, table)

    def write(self, ops):
        ops = list(ops)
        self.write_calls += 1
        self.writes.extend((op, table) for op, table, _, _ in ops)
        super().write(ops)

    def get(self, table, key, default=None):
        self.get_calls += 1
        return super().get(table, key, default)

    def multi_get(self, table, keys, default=None):
        self.multi_get_calls += 1
        keys = list(keys)
        self.keys_read += len(keys)
        return super().multi_get(table, keys, default)


class TestBatchedReads:
    @staticmethod
    def _incremental_update_reads(alphabet: str, traces: int):
        store = _CountingStore()
        builder = IndexBuilder(store)
        ids = [f"t{n}" for n in range(traces)]
        builder.update(EventLog.from_dict({tid: list(alphabet) for tid in ids}))
        before = store.get_calls, store.multi_get_calls
        builder.update(
            [
                Event(tid, activity, 100 + i)
                for tid in ids
                for i, activity in enumerate(alphabet)
            ]
        )
        return store.get_calls - before[0], store.multi_get_calls - before[1]

    def test_point_reads_do_not_grow_with_pairs_or_traces(self):
        # 2 traces x 4 candidate pairs against 6 traces x 64: the incremental
        # path reads Seq in one batch and nothing else, whatever the size.
        small = self._incremental_update_reads("AB", traces=2)
        large = self._incremental_update_reads("ABCDEFGH", traces=6)
        assert small == large
        assert large == (0, 1)

    @pytest.mark.parametrize("indexed_traces, alphabet", [(3, "AB"), (40, "ABCDEFGHIJ")])
    def test_keys_read_equal_the_batch_traces(self, indexed_traces, alphabet):
        # An update of k known traces reads k keys (their Seq rows), however
        # many traces and pairs the index already holds.
        store = _CountingStore()
        builder = IndexBuilder(store)
        ids = [f"t{n}" for n in range(indexed_traces)]
        builder.update(EventLog.from_dict({tid: list(alphabet) for tid in ids}))
        store.get_calls = store.keys_read = 0
        batch = [Event(tid, a, 100 + i) for tid in ids[:3] for i, a in enumerate(alphabet)]
        assert builder.update(batch).pairs_created > 0
        assert (store.get_calls, store.keys_read) == (0, 3)


class TestWritesPerBatch:
    def test_one_last_checked_merge_per_distinct_first_activity(self):
        # Three traces over {A, B, C} create all nine pairs; LastChecked is
        # written like Count, once per first activity -- not once per pair,
        # and not at all more for more traces.
        store = _CountingStore()
        builder = IndexBuilder(store)
        store.writes.clear()
        store.write_calls = 0
        builder.update(EventLog.from_dict({f"t{n}": list("ABCABC") for n in range(3)}))
        merges = {table: store.writes.count(("merge", table)) for op, table in store.writes
                  if op == "merge"}
        assert merges == {"seq": 3, "index": 9, "count": 3, "reverse_count": 3, "last_checked": 3}
        # besides the merges, one trace-number put per new trace, staged
        # before the first chunk that uses the numbers
        assert [w for w in store.writes if w[0] != "merge"] == [("put", "trace_number")] * 3
        # ...and all of them are one store write, in the tables' order
        assert store.write_calls == 1
        tables = [table for _, table in store.writes]
        order = ["seq", "trace_number", "index", "count", "reverse_count", "last_checked"]
        assert tables == sorted(tables, key=order.index)

    def test_an_update_is_one_write_and_a_failed_one_writes_nothing(self, monkeypatch):
        store = _CountingStore()
        builder = IndexBuilder(store)
        store.write_calls = 0
        # a new partition registers inside the same write
        builder.update(EventLog.from_dict({"t1": "ABC", "t2": "BCA"}), partition="p1")
        assert store.write_calls == 1
        assert ("put", "meta") in store.writes
        before = list(store.scan("seq"))

        def boom(*args, **kwargs):
            raise RuntimeError("pair aggregation fails mid-update")

        monkeypatch.setattr(builder.tables, "add_reverse_counts", boom)
        with pytest.raises(RuntimeError):
            builder.update([Event("t1", "D", 10), Event("t3", "A", 1)])
        assert store.write_calls == 1
        assert list(store.scan("seq")) == before


    def test_last_checked_holds_one_slot_per_counted_pair(self):
        # The shape guard: bookkeeping per pair *and trace* once made this
        # table half of a store; it may hold what Count holds slots for.
        from pathlib import Path

        from repro.logs import read_csv_log

        log = read_csv_log(str(Path(__file__).parents[1] / "data" / "golden_log.csv"))
        events = sorted(log.events(), key=lambda event: event.timestamp)
        index = SequenceIndex()

        def slots():
            stats = index.format_stats()["last_checked"]
            counted = sum(len(row) for _, row in index.store.scan("count"))
            assert stats["per_trace"]["entries"] == 0
            assert stats["per_pair"]["entries"] == counted
            return counted

        index.update(events[: len(events) // 2])
        index.update(events[len(events) // 2 :])
        assert slots() > len(index.activities())
        # every trace runs again, which completes each pair over its own
        # alphabet; a third run then completes known pairs only
        index.update([Event(e.trace_id, e.activity, e.timestamp + 1000) for e in events])
        known = slots()
        index.update([Event(e.trace_id, e.activity, e.timestamp + 2000) for e in events])
        assert slots() == known
