"""Partitioning helper: coverage, balance, edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.executor.partition import partition_items


class TestContiguous:
    @given(st.lists(st.integers(), max_size=100), st.integers(1, 12))
    def test_concatenation_preserves_order(self, items, parts):
        partitions = partition_items(items, parts)
        flat = [item for partition in partitions for item in partition]
        assert flat == items

    @given(st.lists(st.integers(), min_size=1, max_size=100), st.integers(1, 12))
    def test_sizes_differ_by_at_most_one(self, items, parts):
        partitions = partition_items(items, parts)
        sizes = [len(p) for p in partitions]
        assert max(sizes) - min(sizes) <= 1
        assert all(size > 0 for size in sizes)

    def test_empty_input(self):
        assert partition_items([], 4) == []

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            partition_items([1], 0)
