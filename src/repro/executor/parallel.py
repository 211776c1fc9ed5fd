"""The shard coordinator's fan-out pool.

:meth:`ParallelExecutor.gather` runs independent thunks -- one per shard --
and returns their results *in input order*, under an optional absolute
deadline; on expiry it cancels whatever has not started and raises
:class:`~repro.core.errors.DeadlineExceeded`.

With one worker the thunks run inline, in the calling thread, and the
deadline is checked between them.  With more they run on one thread pool,
created on first use and reused until :meth:`ParallelExecutor.close`:
paying thread start-up per query would swamp sub-millisecond fan-outs.
``close()`` is final for every pool size -- a closed executor refuses work.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Sequence, TypeVar

from repro.core.errors import DeadlineExceeded

R = TypeVar("R")


class ParallelExecutor:
    """Deadline-aware fan-out over a lazily created, reused thread pool."""

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    @classmethod
    def serial(cls) -> "ParallelExecutor":
        """One worker: every fan-out runs inline in the calling thread."""
        return cls(max_workers=1)

    def _thread_pool(self) -> ThreadPoolExecutor | None:
        """The shared pool (``None`` with one worker); raises once closed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self.max_workers > 1 and self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight work.  Idempotent;
        afterwards :meth:`gather` raises."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def gather(
        self,
        thunks: Sequence[Callable[[], R]],
        deadline: float | None = None,
    ) -> list[R]:
        """Run zero-argument thunks concurrently; results in input order.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  If it
        passes before every thunk finished, pending futures are cancelled
        (started ones run to completion but their results are discarded) and
        :class:`~repro.core.errors.DeadlineExceeded` is raised.  Inline (one
        worker), the deadline is checked between thunks -- a single thunk is
        never interrupted.
        """
        pool = self._thread_pool()
        results: list[R] = []
        if pool is None:
            for thunk in thunks:
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceeded(
                        f"deadline expired after {len(results)}/{len(thunks)} tasks"
                    )
                results.append(thunk())
            return results
        futures: list[Future[R]] = []
        try:
            futures = [pool.submit(thunk) for thunk in thunks]
            for future in futures:
                if deadline is None:
                    results.append(future.result())
                    continue
                remaining = deadline - time.monotonic()
                try:
                    results.append(future.result(timeout=max(remaining, 0.0)))
                except FutureTimeoutError:
                    raise DeadlineExceeded(
                        f"deadline expired after {len(results)}/{len(thunks)} tasks"
                    ) from None
            return results
        finally:
            for future in futures:
                future.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(max_workers={self.max_workers})"
