"""Range scans on the store."""

from __future__ import annotations

import pytest


@pytest.fixture
def populated(lsm_store):
    lsm_store.create_table("t")
    for i in range(10):
        lsm_store.put("t", i, i * 10)
    lsm_store.create_table("pairs")
    for a in "abc":
        for b in "xy":
            lsm_store.put("pairs", (a, b), a + b)
    return lsm_store


class TestScanRange:
    def test_closed_open_interval(self, populated):
        got = list(populated.scan_range("t", start=3, stop=7))
        assert got == [((3,), 30), ((4,), 40), ((5,), 50), ((6,), 60)]

    def test_open_bounds(self, populated):
        assert len(list(populated.scan_range("t"))) == 10
        assert [k for k, _ in populated.scan_range("t", start=8)] == [(8,), (9,)]
        assert [k for k, _ in populated.scan_range("t", stop=2)] == [(0,), (1,)]

    def test_empty_interval(self, populated):
        assert list(populated.scan_range("t", start=5, stop=5)) == []
        assert list(populated.scan_range("t", start=100)) == []

    def test_tuple_bounds(self, populated):
        got = [k for k, _ in populated.scan_range("pairs", start=("b",), stop=("c",))]
        assert got == [("b", "x"), ("b", "y")]

    def test_partial_tuple_bound(self, populated):
        got = [k for k, _ in populated.scan_range("pairs", start=("b", "y"))]
        assert got == [("b", "y"), ("c", "x"), ("c", "y")]

    def test_does_not_leak_other_tables(self, populated):
        # Values from "t" (int keys) must never appear in "pairs" scans.
        keys = [k for k, _ in populated.scan_range("pairs")]
        assert all(isinstance(k[0], str) for k in keys)


class TestScanRangeAcrossLevels:
    def test_spans_memtable_and_sstables(self, lsm_store):
        lsm_store.create_table("t")
        lsm_store.put("t", 1, "old")
        lsm_store.flush()
        lsm_store.put("t", 2, "new")
        got = list(lsm_store.scan_range("t", start=1, stop=3))
        assert got == [((1,), "old"), ((2,), "new")]

    def test_deleted_keys_skipped(self, lsm_store):
        lsm_store.create_table("t")
        for i in range(5):
            lsm_store.put("t", i, i)
        lsm_store.flush()
        lsm_store.delete("t", 2)
        got = [k for k, _ in lsm_store.scan_range("t", start=1, stop=4)]
        assert got == [(1,), (3,)]
