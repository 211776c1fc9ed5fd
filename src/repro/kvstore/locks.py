"""Reader/writer lock used by the concurrent LSM store.

Semantics:

* any number of readers may hold the lock concurrently;
* a writer is exclusive against both readers and other writers;
* the lock is *write-preferring*: once a writer is waiting, new readers
  queue behind it, so a steady stream of gets cannot starve the write path;
* write acquisition is reentrant (a thread holding the write lock may
  re-acquire it, and may also take the read side, which is then a no-op);
* read acquisition is reentrant per thread, so a reader never deadlocks
  against a waiting writer on a nested read.

The store holds the write side only for short, in-memory critical sections
(memtable mutation, SSTable-set swaps, manifest bookkeeping); all disk I/O
of flushes and compactions happens outside the lock, which is what keeps
gets and scans from ever blocking behind them.
"""

from __future__ import annotations

import threading
from typing import Callable


class _Side:
    """The ``with`` form of one side of an :class:`RWLock`.

    Stateless (nesting is counted by the lock), so one instance per side
    serves every thread and every nesting depth; a plain two-method object
    because this sits on every store ``get``/``put``/``merge`` and a
    generator-based context manager costs twice as much per ``with``.
    """

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire: Callable[[], None], release: Callable[[], None]) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info: object) -> None:
        self._release()


class RWLock:
    """Write-preferring reader/writer lock with reentrant acquisition."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None
        self._write_depth = 0
        self._waiting_writers = 0
        self._local = threading.local()
        self._read_side = _Side(self.acquire_read, self.release_read)
        self._write_side = _Side(self.acquire_write, self.release_write)

    # -- read side ---------------------------------------------------------

    def acquire_read(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if self._writer == ident:
                # A writer already has exclusive access; nested reads are free.
                self._write_depth += 1
                return
            held = getattr(self._local, "read_depth", 0)
            if held == 0:
                # New readers queue behind waiting writers (write preference);
                # nested reads skip the gate to avoid self-deadlock.
                while self._writer is not None or self._waiting_writers:
                    self._cond.wait()
            self._readers += 1
            self._local.read_depth = held + 1

    def release_read(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if self._writer == ident:
                self._write_depth -= 1
                return
            self._local.read_depth -= 1
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side --------------------------------------------------------

    def acquire_write(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if self._writer == ident:
                self._write_depth += 1
                return
            if getattr(self._local, "read_depth", 0):
                raise RuntimeError("cannot upgrade a read lock to a write lock")
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = ident
                self._write_depth = 1
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        with self._cond:
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ---------------------------------------------------

    def read(self) -> _Side:
        return self._read_side

    def write(self) -> _Side:
        return self._write_side
