"""``ParallelExecutor.gather``: fan-out, deadlines, and pool lifecycle."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core.errors import DeadlineExceeded
from repro.executor import ParallelExecutor


#: one worker runs inline (serially); two use the thread pool
WORKERS = pytest.mark.parametrize("workers", (1, 2), ids=("serial", "thread"))


@WORKERS
class TestGather:
    def test_results_preserve_order(self, workers):
        executor = ParallelExecutor(max_workers=workers)
        thunks = [lambda i=i: i * 10 for i in range(7)]
        assert executor.gather(thunks) == [0, 10, 20, 30, 40, 50, 60]

    def test_empty_is_empty(self, workers):
        executor = ParallelExecutor(max_workers=workers)
        assert executor.gather([]) == []

    def test_thunk_exception_propagates(self, workers):
        executor = ParallelExecutor(max_workers=workers)

        def boom():
            raise RuntimeError("shard exploded")

        with pytest.raises(RuntimeError, match="shard exploded"):
            executor.gather([lambda: 1, boom])

    def test_deadline_in_the_past_raises(self, workers):
        executor = ParallelExecutor(max_workers=workers)
        with pytest.raises(DeadlineExceeded):
            executor.gather(
                [lambda: time.sleep(0.2) or 1, lambda: 2],
                deadline=time.monotonic() - 1.0,
            )

    def test_generous_deadline_returns_normally(self, workers):
        executor = ParallelExecutor(max_workers=workers)
        result = executor.gather(
            [lambda: 1, lambda: 2], deadline=time.monotonic() + 30.0
        )
        assert result == [1, 2]


def test_deadline_cancels_slow_fanout():
    executor = ParallelExecutor(max_workers=2)
    release = threading.Event()
    started = time.monotonic()
    try:
        with pytest.raises(DeadlineExceeded):
            executor.gather(
                [lambda: release.wait(5.0)],
                deadline=time.monotonic() + 0.1,
            )
        # The caller got its answer at the deadline, not after the thunk.
        assert time.monotonic() - started < 3.0
    finally:
        release.set()


class TestPersistentPool:
    def test_pool_is_reused(self):
        with ParallelExecutor(max_workers=2) as executor:

            def occupy_worker():
                # Rendezvous so each round provably runs on BOTH workers;
                # instant thunks can land on one worker and make the
                # round-to-round intersection racy.
                barrier.wait(timeout=5.0)
                return threading.current_thread()

            barrier = threading.Barrier(2)
            names_a = set(executor.gather([occupy_worker] * 2))
            barrier.reset()
            names_b = set(executor.gather([occupy_worker] * 2))
            # Same worker threads serve both rounds: the pool persisted.
            assert names_a == names_b and len(names_a) == 2

    @WORKERS
    def test_close_is_idempotent_and_final(self, workers):
        executor = ParallelExecutor(max_workers=workers)
        assert executor.gather([lambda: 1]) == [1]
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.gather([lambda: 1])

    def test_serial_gather_checks_deadline_between_thunks(self):
        executor = ParallelExecutor.serial()
        calls = []

        def slow():
            calls.append("slow")
            time.sleep(0.15)
            return 1

        def fast():
            calls.append("fast")
            return 2

        with pytest.raises(DeadlineExceeded):
            executor.gather([slow, fast], deadline=time.monotonic() + 0.05)
        assert calls == ["slow"]


class TestConfiguration:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)

    def test_default_workers_positive(self):
        assert ParallelExecutor().max_workers == (os.cpu_count() or 1)

    def test_serial_constructor(self):
        assert ParallelExecutor.serial().max_workers == 1
