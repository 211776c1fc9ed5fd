"""Index tables (§3.1.2) over both store backends."""

from __future__ import annotations

import pytest

from repro.core.builder import IndexBuilder
from repro.core.errors import IndexStateError
from repro.core.model import EventLog
from repro.core.policies import Policy
from repro.core.tables import IndexTables


@pytest.fixture
def tables(any_store):
    tables = IndexTables(any_store)
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
        # A row as `repro index --method state` wrote it, before the engine
        # took a policy only: it reopens and updates under its policy, and
        # the key stays as written, never read.
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
        # what code before the per-pair shape wrote: (ev_a, ev_b) -> {trace: ts}
        tables.store.merge("last_checked", ("A", "B"), {"t1": 5.0, "t2": 9.0})
        tables.store.merge("last_checked", ("C", "A"), {"t1": 2.0})
        tables.add_last_completions("A", {"B": 7.0, "C": 1.0})
        pairs = [("A", "B"), ("A", "C"), ("C", "A"), ("B", "A")]
        expected = {("A", "B"): 9.0, ("A", "C"): 1.0, ("C", "A"): 2.0}
        assert tables.get_last_completions(pairs) == {**expected, ("B", "A"): None}
        assert sorted(tables.iter_last_completions()) == sorted(expected.items())

        tables.add_last_completions("A", {"B": 11.0})
        expected[("A", "B")] = 11.0
        assert tables.get_last_completions(pairs) == {**expected, ("B", "A"): None}
        assert sorted(tables.iter_last_completions()) == sorted(expected.items())
        assert tables.format_stats()["last_checked"] == {
            "per_pair": {"chunks": 0, "entries": 2},
            "per_trace": {"chunks": 0, "entries": 3},
        }
