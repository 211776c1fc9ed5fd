"""Partitioning helpers for the parallel executor."""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def partition_items(items: Sequence[T], num_partitions: int) -> list[list[T]]:
    """Split ``items`` into up to ``num_partitions`` contiguous chunks.

    Chunks differ in size by at most one element; empty chunks are dropped so
    callers never schedule no-op work.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    total = len(items)
    if total == 0:
        return []
    num_partitions = min(num_partitions, total)
    base, extra = divmod(total, num_partitions)
    partitions: list[list[T]] = []
    start = 0
    for i in range(num_partitions):
        size = base + (1 if i < extra else 0)
        partitions.append(list(items[start : start + size]))
        start += size
    return partitions
