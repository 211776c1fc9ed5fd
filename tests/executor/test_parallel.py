"""ParallelExecutor: order preservation and backend equivalence."""

from __future__ import annotations

import os

import pytest

from repro.executor import ParallelExecutor

BACKENDS = ("serial", "thread", "process")


def _double_partition(partition: list[int]) -> list[int]:
    return [x * 2 for x in partition]


def _sum_partition(partition: list[int]) -> list[int]:
    return [sum(partition)]


class TestMapPartitions:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partition_sums(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=4)
        result = executor.map_partitions(_sum_partition, list(range(10)))
        assert sum(result) == sum(range(10))
        assert executor.map_partitions(_sum_partition, []) == []

    def test_serial_runs_one_partition(self):
        executor = ParallelExecutor.serial()
        result = executor.map_partitions(_sum_partition, list(range(10)))
        assert result == [45]


class TestConfiguration:
    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ParallelExecutor(backend="gpu")

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)

    def test_default_workers_positive(self):
        executor = ParallelExecutor(backend="thread")
        assert executor.max_workers >= 1

    def test_serial_constructor(self):
        executor = ParallelExecutor.serial()
        assert executor.backend == "serial"
        assert executor.max_workers == 1

    def test_parallel_equals_serial_results(self):
        items = list(range(100))
        serial = ParallelExecutor.serial().map_partitions(_double_partition, items)
        assert serial == [x * 2 for x in items]
        for backend in ("thread", "process"):
            parallel = ParallelExecutor(backend=backend, max_workers=4).map_partitions(
                _double_partition, items
            )
            assert parallel == serial

    def test_worker_count_does_not_change_results(self):
        items = list(range(50))
        results = [
            ParallelExecutor(backend="thread", max_workers=workers).map_partitions(
                _double_partition, items
            )
            for workers in (1, 2, 7)
        ]
        assert results[0] == results[1] == results[2]
