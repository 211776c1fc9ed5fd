"""Index tables (§3.1.2) over the store."""

from __future__ import annotations

import pytest

from repro.core.builder import IndexBuilder
from repro.core.errors import IndexStateError
from repro.core.model import EventLog
from repro.core.policies import Policy
from repro.core.tables import IndexTables
from repro.upgrade import UpgradeReport, rewrite_rows


@pytest.fixture
def tables(lsm_store):
    tables = IndexTables(lsm_store)
    tables.ensure_schema()
    return tables


class TestSchema:
    def test_idempotent(self, tables):
        tables.ensure_schema()
        tables.ensure_schema()

    def test_configuration_recorded_and_enforced(self, tables):
        tables.check_configuration(Policy.STNM)
        assert tables.get_meta() == {"policy": Policy.STNM.value, "partitions": []}
        tables.check_configuration(Policy.STNM)
        with pytest.raises(IndexStateError):
            tables.check_configuration(Policy.SC)
        # A key Meta does not define is kept as written and never read
        # (`repro upgrade` drops the `method` key older code wrote).
        legacy = {"policy": Policy.STNM.value, "method": "state", "partitions": []}
        tables.put_meta(legacy)
        builder = IndexBuilder(tables.store, Policy.STNM)
        builder.update(EventLog.from_dict({"t": "ABA"}))
        assert builder.tables.get_index(("A", "B")) == [("t", 0, 1)]
        assert tables.get_meta() == legacy
        with pytest.raises(IndexStateError):
            IndexBuilder(tables.store, Policy.SC)


class TestSeq:
    def test_append_and_get(self, tables):
        tables.append_sequence("t1", [("A", 1.0), ("B", 2.0)])
        tables.append_sequence("t1", [("C", 3.0)])
        assert tables.get_sequence("t1") == (["A", "B", "C"], [1.0, 2.0, 3.0])
        assert tables.get_sequences(["t1", "nope"]) == [
            (["A", "B", "C"], [1.0, 2.0, 3.0]),
            ([], []),
        ]

    def test_missing_trace_is_empty(self, tables):
        assert tables.get_sequence("nope") == ([], [])

    def test_iter_sequences_sorted_by_trace(self, tables):
        tables.append_sequence("b", [("X", 1.0)])
        tables.append_sequence("a", [("Y", 1.0)])
        assert [tid for tid, _ in tables.iter_sequences()] == ["a", "b"]

    def test_delete(self, tables):
        tables.append_sequence("t", [("A", 1.0)])
        tables.delete_sequence("t")
        assert tables.get_sequence("t") == ([], [])


def _numbered(tables, trace_ids: list[str]) -> list[int]:
    """The trace numbers of ``trace_ids``, a trace without one numbered."""
    numbers = dict(zip(trace_ids, tables.trace_numbers(trace_ids)))
    for trace_id, number in numbers.items():
        if number is None:
            numbers[trace_id] = tables.number_trace(trace_id)
    return [numbers[trace_id] for trace_id in trace_ids]


class TestIndex:
    def test_append_and_group(self, tables):
        tables.append_index(("A", "B"), (_numbered(tables, ["t1", "t2"]), [1.0, 5.0], [2.0, 6.0]))
        tables.append_index(("A", "B"), (_numbered(tables, ["t1"]), [3.0], [4.0]))
        postings = tables.get_index_many([("A", "B")])[("A", "B")]
        assert postings.entries == 3
        assert postings.trace_ids() == {"t1", "t2"}
        # one column triple per stored chunk; a restriction skips whole chunks
        assert [tuple(map(list, triple)) for triple in postings.columns({"t2"})] == [
            (["t1", "t2"], [1.0, 5.0], [2.0, 6.0])
        ]
        assert postings.rows() == [("t1", 1.0, 2.0), ("t1", 3.0, 4.0), ("t2", 5.0, 6.0)]

    @pytest.mark.parametrize(
        "ts_a, ts_b, stored",
        [
            # bool stamps: [["t1", True, 1], ["t2", False, 2]]
            ([True, False], [1, 2],
             "00dd00000002dd00000003d9000000027431c301dd00000003d9000000027432c202"),
            # int and float stamps in one batch: [["t1", 1, 3], ["t2", 2.5, 4]]
            ([1, 2.5], [3, 4],
             "00dd00000002dd00000003d90000000274310103dd00000003d9000000027432cb40"
             "0400000000000004"),
        ],
    )
    def test_a_batch_no_numbered_chunk_holds_is_one_raw_chunk(self, tables, ts_a, ts_b, stored):
        # the RAW fallback spells the ids out: the engine writes no other
        # chunk of names (the dictionary chunk 0x04 is the upgrade's alone)
        tables.append_index(("A", "B"), (_numbered(tables, ["t1", "t2"]), ts_a, ts_b))
        (chunk,) = tables.store.get("index", ("A", "B"))
        assert chunk.hex() == stored
        assert tables.get_index(("A", "B")) == [("t1", ts_a[0], ts_b[0]), ("t2", ts_a[1], ts_b[1])]

    def test_missing_pair_empty(self, tables):
        assert tables.get_index(("X", "Y")) == []
        missing = tables.get_index_many([("X", "Y")])[("X", "Y")]
        assert missing.rows() == [] and missing.trace_ids() == set()

    def test_partitions_isolate_and_union(self, tables):
        tables.ensure_partition("p1")
        tables.register_partition("p1")
        tables.ensure_partition("p2")
        tables.register_partition("p2")
        tables.append_index(("A", "B"), (_numbered(tables, ["t1"]), [1.0], [2.0]), partition="p1")
        tables.append_index(("A", "B"), (_numbered(tables, ["t2"]), [3.0], [4.0]), partition="p2")
        assert tables.get_index(("A", "B"), partition="p1") == [("t1", 1.0, 2.0)]
        assert tables.get_index(("A", "B"), partition="p2") == [("t2", 3.0, 4.0)]
        assert tables.get_index(("A", "B"), partition="") == []
        union = tables.get_index(("A", "B"), partition=None)
        assert sorted(union) == [("t1", 1.0, 2.0), ("t2", 3.0, 4.0)]

    def test_partition_registration_idempotent(self, tables):
        tables.register_partition("p")
        tables.register_partition("p")
        assert tables.get_meta().get("partitions", []).count("p") <= 1


class TestCounts:
    def test_accumulation(self, tables):
        tables.add_counts("A", {"B": [10.0, 2]})
        tables.add_counts("A", {"B": [5.0, 1], "C": [1.0, 1]})
        counts = tables.get_counts("A")
        assert counts == {"B": (15.0, 3), "C": (1.0, 1)}
        assert tables.get_pair_count(("A", "B")) == (15.0, 3)
        assert tables.get_pair_count(("A", "Z")) == (0.0, 0)

    def test_reverse_counts(self, tables):
        tables.add_reverse_counts("B", {"A": [10.0, 2]})
        assert tables.get_reverse_counts("B") == {"A": (10.0, 2)}
        assert tables.get_reverse_counts("Z") == {}


class TestLastChecked:
    def test_max_semantics(self, tables):
        tables.add_last_completions("A", {"B": 5.0})
        tables.add_last_completions("A", {"B": 3.0, "C": 9.0})
        tables.add_last_completions("B", {"A": 4.0})
        assert tables.get_last_completions([("A", "B"), ("A", "C"), ("B", "A"), ("A", "B")]) == {
            ("A", "B"): 5.0,
            ("A", "C"): 9.0,
            ("B", "A"): 4.0,
        }

    def test_missing(self, tables):
        tables.add_last_completions("A", {"B": 5.0})
        assert tables.get_last_completions([("X", "Y"), ("A", "Z")]) == {
            ("X", "Y"): None,
            ("A", "Z"): None,
        }
        assert tables.get_last_completions([]) == {}

    def test_rows_written_per_pair_and_trace_feed_the_maximum(self, tables):
        # what code before the per-pair shape wrote: (ev_a, ev_b) -> {trace: ts};
        # the readers key on the first event only, and the upgrade folds them
        tables.store.merge("last_checked", ("A", "B"), {"t1": 5.0, "t2": 9.0})
        tables.store.merge("last_checked", ("C", "A"), {"t1": 2.0})
        tables.add_last_completions("A", {"B": 7.0, "C": 1.0})
        pairs = [("A", "B"), ("A", "C"), ("C", "A"), ("B", "A")]
        assert tables.get_last_completions(pairs) == {
            ("A", "B"): 7.0, ("A", "C"): 1.0, ("C", "A"): None, ("B", "A"): None
        }
        report = UpgradeReport("tables")
        rewrite_rows(tables.store, report)
        assert report.last_checked_folded == 2
        expected = {("A", "B"): 9.0, ("A", "C"): 1.0, ("C", "A"): 2.0}
        assert tables.get_last_completions(pairs) == {**expected, ("B", "A"): None}
        assert sorted(tables.iter_last_completions()) == sorted(expected.items())
        assert [key for key, _ in tables.store.scan("last_checked")] == [("A",), ("C",)]

        tables.add_last_completions("A", {"B": 11.0})
        expected[("A", "B")] = 11.0
        assert tables.get_last_completions(pairs) == {**expected, ("B", "A"): None}
        assert sorted(tables.iter_last_completions()) == sorted(expected.items())
