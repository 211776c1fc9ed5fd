"""Merge operator semantics, including the associativity contract."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import LSMStore, encoding
from repro.kvstore import lsm as lsm_module
from repro.kvstore import merge as merge_module
from repro.kvstore.encoding import decode_value, encode_value
from repro.kvstore.merge import (
    CounterMapMerge,
    LastWriteWins,
    ListAppendMerge,
    MaxMapMerge,
    MergeOperator,
    collapse_records,
    read_value,
    register_merge_operator,
    resolve_merge_operator,
)
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT
from tests.model_store import ModelStore


class TestListAppend:
    op = ListAppendMerge()

    def test_full_merge_from_none(self):
        assert self.op.full_merge(None, [[1, 2], [3]]) == [1, 2, 3]

    def test_full_merge_with_base(self):
        assert self.op.full_merge([0], [[1], [2]]) == [0, 1, 2]

    def test_partial_merge(self):
        assert self.op.partial_merge([[1], [2, 3]]) == [1, 2, 3]

    @given(
        st.lists(st.integers(), max_size=5),
        st.lists(st.lists(st.integers(), max_size=3), min_size=1, max_size=5),
    )
    def test_partial_then_full_equals_full(self, base, deltas):
        """full(base, deltas) == full(base, [partial(deltas)]) -- the
        compaction-correctness property."""
        direct = self.op.full_merge(list(base), list(deltas))
        collapsed = self.op.full_merge(list(base), [self.op.partial_merge(deltas)])
        assert direct == collapsed


class TestCounterMap:
    op = CounterMapMerge()

    def test_accumulates(self):
        merged = self.op.full_merge(
            {"b": [10.0, 2]}, [{"b": [5.0, 1], "c": [1.0, 1]}]
        )
        assert merged == {"b": [15.0, 3], "c": [1.0, 1]}

    def test_base_not_mutated_by_full_merge(self):
        base = {"b": [10.0, 2]}
        self.op.full_merge(base, [{"b": [1.0, 1]}])
        assert base == {"b": [10.0, 2]}

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from("abc"),
                st.tuples(st.integers(0, 100), st.integers(0, 10)).map(list),
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_partial_then_full_equals_full(self, deltas):
        direct = self.op.full_merge(None, [dict(d) for d in deltas])
        collapsed = self.op.full_merge(
            None, [self.op.partial_merge([dict(d) for d in deltas])]
        )
        assert direct == collapsed


class TestMaxMap:
    op = MaxMapMerge()

    def test_keeps_maximum(self):
        merged = self.op.full_merge({"t1": 5}, [{"t1": 3, "t2": 7}, {"t1": 9}])
        assert merged == {"t1": 9, "t2": 7}

    @given(
        st.lists(
            st.dictionaries(st.sampled_from("xyz"), st.integers(-50, 50), max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    def test_partial_then_full_equals_full(self, deltas):
        direct = self.op.full_merge(None, [dict(d) for d in deltas])
        collapsed = self.op.full_merge(
            None, [self.op.partial_merge([dict(d) for d in deltas])]
        )
        assert direct == collapsed


class TestLastWriteWins:
    op = LastWriteWins()

    def test_latest_delta_wins(self):
        assert self.op.full_merge("old", ["a", "b"]) == "b"

    def test_no_deltas_keeps_base(self):
        assert self.op.full_merge("old", []) == "old"

    def test_partial(self):
        assert self.op.partial_merge(["a", "b"]) == "b"


class TestRegistry:
    def test_resolve_known(self):
        assert resolve_merge_operator("list_append").name == "list_append"

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve_merge_operator("nope")

    def test_register_custom(self):
        class SetUnionMerge(MergeOperator):
            name = "test_set_union"

            def full_merge(self, base, deltas):
                out = set(base or ())
                for delta in deltas:
                    out |= set(delta)
                return sorted(out)

            def partial_merge(self, deltas):
                out = set()
                for delta in deltas:
                    out |= set(delta)
                return sorted(out)

        register_merge_operator(SetUnionMerge())
        op = resolve_merge_operator("test_set_union")
        assert op.full_merge([1], [[2], [1, 3]]) == [1, 2, 3]


# -- the encoded-domain contract -------------------------------------------------


def legacy_encoding():
    """Encode as the commits before the packed map tags did (``_V_DICT`` only)."""
    return mock.patch.object(
        encoding, "_encode_packed_map_into", lambda out, obj: False
    )


def legacy_encode(obj) -> bytes:
    with legacy_encoding():
        return encode_value(obj)


TRACE_IDS = st.sampled_from(["t1", "t2", "t3", "trace_\U0001f600"])
# Index rows as every format the store has held: tuple entries, list entries
# (what a decoded tuple-era row re-encodes to) and postings-codec byte chunks.
INDEX_ITEMS = st.one_of(
    st.tuples(TRACE_IDS, st.integers(0, 500), st.integers(0, 500)),
    st.tuples(TRACE_IDS, st.integers(0, 500), st.integers(0, 500)).map(list),
    st.binary(max_size=12),
)
TIMESTAMPS = st.one_of(
    st.integers(0, 2**40), st.floats(0, 1e12, allow_nan=False)
)
COUNTER_DOCS = st.dictionaries(
    st.sampled_from("abcd"),
    st.tuples(st.integers(0, 1000).map(float), st.integers(0, 50)).map(list),
    max_size=4,
)

# operator name -> (base strategy, delta strategy)
OPERANDS = {
    "list_append": (
        st.lists(INDEX_ITEMS, max_size=5),
        st.one_of(st.lists(INDEX_ITEMS, max_size=4), st.lists(INDEX_ITEMS, max_size=4).map(tuple)),
    ),
    "counter_map": (COUNTER_DOCS, COUNTER_DOCS),
    "max_map": (
        st.dictionaries(TRACE_IDS, TIMESTAMPS, max_size=4),
        st.dictionaries(TRACE_IDS, TIMESTAMPS, max_size=4),
    ),
    "last_write_wins": (
        st.one_of(st.integers(), st.text(max_size=5), COUNTER_DOCS),
        st.one_of(st.integers(), st.text(max_size=5), COUNTER_DOCS),
    ),
}


@st.composite
def merge_cases(draw):
    """``(operator, base or None, deltas, encoded base, encoded deltas)`` with
    each operand encoded by the current or by the legacy encoder."""
    name = draw(st.sampled_from(sorted(OPERANDS)))
    base_strategy, delta_strategy = OPERANDS[name]
    base = draw(st.none() | base_strategy)
    deltas = draw(st.lists(delta_strategy, min_size=1, max_size=5))
    encoders = st.sampled_from([encode_value, legacy_encode])
    raw_base = None if base is None else draw(encoders)(base)
    raw_deltas = [draw(encoders)(delta) for delta in deltas]
    return resolve_merge_operator(name), base, deltas, raw_base, raw_deltas


class TestEncodedDomainContract:
    @given(merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_full_merge_encoded_equals_full_merge(self, case):
        op, base, deltas, raw_base, raw_deltas = case
        merged = decode_value(op.full_merge_encoded(raw_base, raw_deltas))
        assert merged == op.full_merge(base, deltas)

    @given(merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_partial_merge_encoded_equals_partial_merge(self, case):
        op, _, deltas, _, raw_deltas = case
        merged = decode_value(op.partial_merge_encoded(raw_deltas))
        assert merged == op.partial_merge(deltas)

    @given(merge_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_partial_merges_commute_with_the_full_merge(self, case, data):
        """What compaction relies on: any split of the delta history into
        partial merges, folded in afterwards, gives the one-shot result."""
        op, base, deltas, raw_base, raw_deltas = case
        cut = data.draw(st.integers(0, len(deltas)))
        expected = op.full_merge(base, deltas)
        older, newer = raw_deltas[:cut], raw_deltas[cut:]
        folded = [op.partial_merge_encoded(part) for part in (older, newer) if part]
        assert decode_value(op.full_merge_encoded(raw_base, folded)) == expected
        if older:
            staged = op.full_merge_encoded(raw_base, older)
            if newer:
                staged = op.full_merge_encoded(staged, newer)
            assert decode_value(staged) == expected

    def test_list_append_never_decodes(self, monkeypatch):
        def fail(buf):
            raise AssertionError("list_append decoded a value")

        monkeypatch.setattr(merge_module, "decode_value", fail)
        op = ListAppendMerge()
        parts = [encode_value([("t", 1, 2)]), encode_value([b"chunk"]), encode_value(())]
        assert op.full_merge_encoded(parts[0], parts[1:]) == encode_value(
            [("t", 1, 2), b"chunk"]
        )
        assert op.partial_merge_encoded(parts[1:]) == encode_value([b"chunk"])

    def test_list_append_falls_back_when_an_operand_is_no_sequence(self):
        op = ListAppendMerge()
        merged = op.full_merge_encoded(encode_value("ab"), [encode_value([1])])
        assert decode_value(merged) == op.full_merge("ab", [[1]]) == ["a", "b", 1]

    def test_custom_operator_inherits_the_encoded_forms(self):
        class SetUnion(MergeOperator):
            name = "test_encoded_set_union"

            def full_merge(self, base, deltas):
                return sorted(set(base or ()).union(*deltas))

            def partial_merge(self, deltas):
                return sorted(set().union(*deltas))

        op = SetUnion()
        raw = [encode_value([3, 1]), encode_value([2, 3])]
        assert decode_value(op.full_merge_encoded(encode_value([9]), raw)) == [1, 2, 3, 9]
        assert decode_value(op.partial_merge_encoded(raw)) == [1, 2, 3]


class TestCollapseRecords:
    op = ListAppendMerge()

    @staticmethod
    def _merge(*items):
        return KIND_MERGE, encode_value(list(items))

    def test_no_records(self):
        assert collapse_records([], self.op, finalize=True) is None
        assert collapse_records([], self.op, finalize=False) is None

    def test_put_passes_through_untouched(self):
        raw = legacy_encode({"a": 1})
        assert collapse_records([(KIND_PUT, raw)], None, False) == (KIND_PUT, raw)

    def test_deltas_fold_into_the_newest_base_only(self):
        records = [self._merge(3), self._merge(2), (KIND_PUT, encode_value([1])),
                   self._merge(0), (KIND_PUT, encode_value([-1]))]
        for finalize in (True, False):
            kind, value = collapse_records(records, self.op, finalize)
            assert kind == KIND_PUT and decode_value(value) == [1, 2, 3]

    def test_baseless_deltas(self):
        records = [self._merge(2), self._merge(1)]
        kind, value = collapse_records(records, self.op, finalize=False)
        assert kind == KIND_MERGE and decode_value(value) == [1, 2]
        kind, value = collapse_records(records, self.op, finalize=True)
        assert kind == KIND_PUT and decode_value(value) == [1, 2]

    def test_lone_delta_is_its_own_partial_merge(self):
        record = self._merge(1)
        assert collapse_records([record], None, finalize=False) == record

    def test_tombstone(self):
        dead = [(KIND_DELETE, b""), (KIND_PUT, encode_value([1]))]
        assert collapse_records(dead, self.op, finalize=True) is None
        assert collapse_records(dead, self.op, finalize=False) == (KIND_DELETE, b"")
        for finalize in (True, False):
            kind, value = collapse_records([self._merge(5), *dead], self.op, finalize)
            assert kind == KIND_PUT and decode_value(value) == [5]

    def test_deltas_without_operator_rejected(self):
        with pytest.raises(ValueError):
            collapse_records([self._merge(1), self._merge(2)], None, finalize=False)
        with pytest.raises(ValueError):
            collapse_records([(99, b"")], self.op, finalize=False)
        with pytest.raises(ValueError):
            read_value([self._merge(1)], None, None)

    @given(merge_cases(), st.lists(st.sampled_from([KIND_PUT, KIND_DELETE, KIND_MERGE]), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_read_value_is_the_decoded_finalized_collapse(self, case, kinds):
        """A read returns what a full compaction would store for the key."""
        op, _, _, raw_base, raw_deltas = case
        values = [raw_base or raw_deltas[0], *raw_deltas]
        records = [
            (kind, b"" if kind == KIND_DELETE else values[i % len(values)])
            for i, kind in enumerate(kinds)
        ]
        missing = object()
        stored = collapse_records(records, op, finalize=True)
        expected = missing if stored is None else decode_value(stored[1])
        assert stored is None or stored[0] == KIND_PUT
        assert read_value(records, op, missing) == expected


# -- stores across the format change ------------------------------------------------

TABLES = {
    "index": "list_append",
    "count": "counter_map",
    "checked": "max_map",
    "meta": "last_write_wins",
}


def _create(store):
    for table, operator in TABLES.items():
        store.create_table(table, merge_operator=operator)


def _round(store, n: int) -> None:
    """One batch of merges on every table; ``n`` varies keys and values."""
    for key in ("k1", "k2", ("a", "b")):
        store.merge("index", key, [(f"t{n}", n, n + 1), ("t0", n, n + 2)])
        store.merge("index", key, [f"chunk-{n}".encode()])
        store.merge("count", key, {"x": [float(n), 1], f"y{n % 2}": [1.0, 1]})
        store.merge("checked", key, {f"t{n % 3}": 100 + n, "t0": 50 - n})
        store.merge("meta", key, {"round": n})


def _snapshot(store) -> dict:
    return {table: list(store.scan(table)) for table in TABLES}


def _assert_equal_to_model(store, model) -> None:
    assert _snapshot(store) == _snapshot(model)
    for table in TABLES:
        keys = [key for key, _ in model.scan(table)] + ["absent"]
        assert store.multi_get(table, keys) == model.multi_get(table, keys)
        assert [store.get(table, key) for key in keys] == model.multi_get(table, keys)


def test_store_written_by_the_generic_encoder_keeps_working(tmp_path):
    path = str(tmp_path / "store")
    model = ModelStore()
    _create(model)
    with legacy_encoding():
        assert encode_value({"t": 1})[0] == encoding._V_DICT
        store = LSMStore(path, auto_compact=False)
        _create(store)
        for n in range(3):
            _round(store, n)
            _round(model, n)
            store.flush()  # legacy bases and deltas in separate SSTables
        _round(store, 3)  # and legacy deltas left in the WAL
        _round(model, 3)
        store.close()

    store = LSMStore(path, auto_compact=False)
    _assert_equal_to_model(store, model)  # zero-migration reopen
    for n in range(4, 6):
        _round(store, n)  # packed deltas over legacy bases
        _round(model, n)
    _assert_equal_to_model(store, model)
    store.flush()
    _assert_equal_to_model(store, model)
    store.compact_all()
    assert store.sstable_count == 1
    _assert_equal_to_model(store, model)
    store.verify()
    store.close()
    store = LSMStore(path)
    _assert_equal_to_model(store, model)
    store.close()


def test_flush_and_compaction_of_list_tables_never_decode(tmp_path, monkeypatch):
    store = LSMStore(str(tmp_path / "store"), auto_compact=False)
    store.create_table("index", merge_operator="list_append")
    store.create_table("seq", merge_operator="list_append")
    calls = []

    def counting(buf):
        calls.append(buf)
        return decode_value(buf)

    # merge.py is the only module of the store that decodes values
    assert not hasattr(lsm_module, "decode_value")
    monkeypatch.setattr(merge_module, "decode_value", counting)
    for n in range(4):
        for key in ("k1", "k2", "k3"):
            store.merge("index", key, [f"chunk-{n}".encode()])
            store.merge("index", key, [("t", n, n + 1)])
            store.merge("seq", key, [("A", n)])
        if n == 2:
            store.put("seq", "k1", [("B", 0)])
            store.delete("seq", "k2")
        store.flush()
    store.compact()
    store.compact_all()
    assert store.sstable_count == 1
    assert store.metrics.snapshot()["compactions"] >= 1
    assert calls == []
    assert store.get("index", "k1") == [
        item for n in range(4) for item in (f"chunk-{n}".encode(), ("t", n, n + 1))
    ]
    assert store.get("seq", "k1") == [("B", 0), ("A", 3)]
    assert store.get("seq", "k2") == [("A", 3)]
    assert len(calls) == 3  # one decode per read
    store.close()
