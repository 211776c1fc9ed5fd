"""The partitioned parallel executor.

``ParallelExecutor`` mirrors the slice of the Spark API the paper's
pre-processing job uses: partition a sequence, run a pure function over each
partition, and collect the results *in input order*.  Backends:

* ``serial``  -- run in the calling thread (the paper's "1 thread" mode);
* ``thread``  -- a thread pool; effective when partition work releases the
  GIL (I/O, numpy) and always useful for overlapping store writes;
* ``process`` -- a process pool for CPU-bound pure-Python work; functions and
  items must be picklable.

All operations are deterministic: results come back in the order of the
input items regardless of backend, worker count or completion order, so
parallel output always equals serial output.

With ``persistent=True`` the pool is created once and reused across calls
(call :meth:`ParallelExecutor.close` when done) -- the mode the sharded
query service runs in, where paying thread start-up per query would swamp
sub-millisecond fan-outs.  :meth:`ParallelExecutor.gather` runs independent
thunks concurrently with an optional absolute deadline; on expiry it cancels
whatever has not started and raises :class:`~repro.core.errors.DeadlineExceeded`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Sequence, TypeVar

from repro.executor.partition import partition_items

T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("serial", "thread", "process")


def _run_partition(func: Callable[[list[T]], list[R]], partition: list[T]) -> list[R]:
    return func(partition)


class ParallelExecutor:
    """Partitioned map executor with pluggable backends."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        persistent: bool = False,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.backend = backend
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.persistent = persistent
        self._shared_pool: Executor | None = None
        self._closed = False

    @classmethod
    def serial(cls) -> "ParallelExecutor":
        """The single-executor configuration used for paper "1 thread" runs."""
        return cls(backend="serial", max_workers=1)

    def _num_partitions(self) -> int:
        return 1 if self.backend == "serial" else self.max_workers

    def _make_pool(self) -> Executor | None:
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.max_workers)
        if self.backend == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        return None

    def _pool(self) -> tuple[Executor | None, bool]:
        """Return ``(pool, owned)``; an owned pool must be shut down by the
        caller, a shared (persistent) pool must not."""
        if self.backend == "serial":
            return None, False
        if not self.persistent:
            return self._make_pool(), True
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._shared_pool is None:
            self._shared_pool = self._make_pool()
        return self._shared_pool, False

    def close(self) -> None:
        """Shut down the persistent pool, waiting for in-flight work.

        Idempotent; only meaningful with ``persistent=True``.  After close
        the executor refuses new work.
        """
        self._closed = True
        pool, self._shared_pool = self._shared_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map_partitions(
        self, func: Callable[[list[T]], list[R]], items: Sequence[T]
    ) -> list[R]:
        """Apply ``func`` to contiguous chunks; concatenate in chunk order.

        Chunking is contiguous so that the concatenated output preserves
        input order for element-wise ``func``.
        """
        partitions = partition_items(items, self._num_partitions())
        if not partitions:
            return []
        pool, owned = self._pool()
        if pool is None:
            chunks = [func(partition) for partition in partitions]
        else:
            try:
                futures = [pool.submit(_run_partition, func, p) for p in partitions]
                chunks = [future.result() for future in futures]
            finally:
                if owned:
                    pool.shutdown(wait=True)
        out: list[R] = []
        for chunk in chunks:
            out.extend(chunk)
        return out

    def gather(
        self,
        thunks: Sequence[Callable[[], R]],
        deadline: float | None = None,
    ) -> list[R]:
        """Run zero-argument thunks concurrently; results in input order.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  If it
        passes before every thunk finished, pending futures are cancelled
        (started ones run to completion but their results are discarded) and
        :class:`~repro.core.errors.DeadlineExceeded` is raised.  On the
        serial backend thunks run inline and the deadline is checked between
        thunks -- a single thunk is never interrupted.
        """
        from repro.core.errors import DeadlineExceeded

        if not thunks:
            return []
        pool, owned = self._pool()
        if pool is None:
            results: list[R] = []
            for thunk in thunks:
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceeded(
                        f"deadline expired after {len(results)}/{len(thunks)} tasks"
                    )
                results.append(thunk())
            return results
        futures: list[Future[R]] = []
        expired = False
        try:
            futures = [pool.submit(thunk) for thunk in thunks]
            results = []
            for future in futures:
                if deadline is None:
                    results.append(future.result())
                    continue
                remaining = deadline - time.monotonic()
                try:
                    results.append(future.result(timeout=max(remaining, 0.0)))
                except FutureTimeoutError:
                    expired = True
                    raise DeadlineExceeded(
                        f"deadline expired after {len(results)}/{len(thunks)} tasks"
                    ) from None
            return results
        finally:
            for future in futures:
                future.cancel()
            if owned:
                # On a deadline miss, do NOT wait for the abandoned thunk:
                # the whole point of the deadline is answering on time.  The
                # worker thread finishes on its own and the pool is garbage
                # collected afterwards.
                pool.shutdown(wait=not expired, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(backend={self.backend!r}, "
            f"max_workers={self.max_workers}, persistent={self.persistent})"
        )
