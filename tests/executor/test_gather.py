"""``ParallelExecutor.gather``: fan-out, deadlines, and pool lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import DeadlineExceeded
from repro.executor import ParallelExecutor


@pytest.mark.parametrize("backend", ("serial", "thread"))
class TestGather:
    def test_results_preserve_order(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=3)
        thunks = [lambda i=i: i * 10 for i in range(7)]
        assert executor.gather(thunks) == [0, 10, 20, 30, 40, 50, 60]

    def test_empty_is_empty(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=2)
        assert executor.gather([]) == []

    def test_thunk_exception_propagates(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=2)

        def boom():
            raise RuntimeError("shard exploded")

        with pytest.raises(RuntimeError, match="shard exploded"):
            executor.gather([lambda: 1, boom])

    def test_deadline_in_the_past_raises(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=2)
        with pytest.raises(DeadlineExceeded):
            executor.gather(
                [lambda: time.sleep(0.2) or 1, lambda: 2],
                deadline=time.monotonic() - 1.0,
            )

    def test_generous_deadline_returns_normally(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=2)
        result = executor.gather(
            [lambda: 1, lambda: 2], deadline=time.monotonic() + 30.0
        )
        assert result == [1, 2]


def test_deadline_cancels_slow_fanout():
    executor = ParallelExecutor(backend="thread", max_workers=2)
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
        with ParallelExecutor(
            backend="thread", max_workers=2, persistent=True
        ) as executor:

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

    def test_close_is_idempotent_and_final(self):
        executor = ParallelExecutor(
            backend="thread", max_workers=2, persistent=True
        )
        assert executor.gather([lambda: 1]) == [1]
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError):
            executor.gather([lambda: 1])

    def test_non_persistent_close_keeps_working(self):
        executor = ParallelExecutor(backend="thread", max_workers=2)
        assert executor.gather([lambda: 2, lambda: 3]) == [2, 3]

    def test_serial_gather_checks_deadline_between_thunks(self):
        executor = ParallelExecutor(backend="serial")
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
