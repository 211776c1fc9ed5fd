"""Filesystem shim: the seam every durability-critical I/O goes through.

:class:`RealIO` is the zero-overhead production implementation (plain
``open``/``os.fsync``/``os.replace``/``os.remove``).  :class:`FaultyIO`
wraps the same surface, consults a :class:`~repro.faults.schedule.FaultSchedule`
at every operation, and injects torn writes, failed fsyncs, ``ENOSPC``,
bit flips and crash points deterministically.

The store, WAL and SSTable code take an ``io`` parameter defaulting to
:data:`REAL_IO`, so production pays a single attribute indirection and
tests swap in ``FaultyIO(schedule)`` without monkeypatching.

``fault_point(name, path)`` is the named-protocol-point seam (e.g.
``compaction.pre_swap``): a no-op on :class:`RealIO`, a schedule lookup
under ``point:<name>`` on :class:`FaultyIO` -- a first-class,
seed-reproducible way to hit one instant of a protocol.
"""

from __future__ import annotations

import errno
import os
from typing import IO, Any

from repro.faults.schedule import (
    BIT_FLIP,
    CORRUPT,
    CRASH,
    CRASH_AFTER_RENAME,
    CRASH_BEFORE_RENAME,
    ENOSPC,
    FAIL_FSYNC,
    TORN_WRITE,
    TRUNCATE_CRASH,
    Fault,
    FaultSchedule,
    SimulatedCrash,
)

__all__ = ["RealIO", "REAL_IO", "FaultyIO"]


class RealIO:
    """Pass-through filesystem; the default ``io`` of every store."""

    def open(self, path: str, mode: str = "rb") -> IO[Any]:
        return open(path, mode)

    def fsync(self, fobj: Any) -> None:
        os.fsync(fobj.fileno())

    def fsync_dir(self, path: str) -> None:
        """Fsync a *directory*, durably committing renames inside it.

        On ext4-style journals ``os.replace`` alone only updates the
        in-memory dentry; a crash right after the rename can roll the
        directory back and lose a fully-synced file.  Platforms whose
        directory handles reject fsync (some network filesystems) are
        skipped silently -- they provide no stronger primitive anyway.
        """
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def fault_point(self, name: str, path: str | None = None) -> None:
        """Named protocol point (no-op outside fault injection)."""


#: shared production instance
REAL_IO = RealIO()


class FaultyIO(RealIO):
    """Schedule-driven fault injector over the :class:`RealIO` surface."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule

    # -- file operations ---------------------------------------------------

    def open(self, path: str, mode: str = "rb") -> IO[Any]:
        fault = self.schedule.take("open", path)
        if fault is not None and fault.kind in (CRASH, TORN_WRITE):
            raise SimulatedCrash(fault)
        if fault is not None and fault.kind == ENOSPC:
            raise OSError(errno.ENOSPC, f"injected ENOSPC opening {path}")
        fobj = open(path, mode)
        if any(flag in mode for flag in ("w", "a", "+")):
            return _FaultyFile(fobj, self, path)
        return fobj

    def fsync(self, fobj: Any) -> None:
        path = getattr(fobj, "path", None) or getattr(fobj, "name", "") or ""
        fault = self.schedule.take("fsync", str(path))
        if fault is not None:
            if fault.kind == FAIL_FSYNC:
                raise OSError(errno.EIO, f"injected fsync failure on {path}")
            if fault.kind == CRASH:
                raise SimulatedCrash(fault)
        os.fsync(fobj.fileno())

    def fsync_dir(self, path: str) -> None:
        fault = self.schedule.take("fsync_dir", path)
        if fault is not None:
            if fault.kind == FAIL_FSYNC:
                raise OSError(errno.EIO, f"injected fsync failure on dir {path}")
            if fault.kind in (CRASH, TORN_WRITE):
                raise SimulatedCrash(fault)
        super().fsync_dir(path)

    def replace(self, src: str, dst: str) -> None:
        fault = self.schedule.take("rename", dst)
        if fault is not None:
            if fault.kind in (CRASH, CRASH_BEFORE_RENAME):
                raise SimulatedCrash(fault)
            if fault.kind == CRASH_AFTER_RENAME:
                os.replace(src, dst)
                raise SimulatedCrash(fault)
            if fault.kind == ENOSPC:
                raise OSError(errno.ENOSPC, f"injected ENOSPC renaming {dst}")
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        fault = self.schedule.take("remove", path)
        if fault is not None and fault.kind == CRASH:
            raise SimulatedCrash(fault)
        os.remove(path)

    # -- named protocol points ---------------------------------------------

    def fault_point(self, name: str, path: str | None = None) -> None:
        fault = self.schedule.take(f"point:{name}", path or "")
        if fault is None:
            return
        if fault.kind == TRUNCATE_CRASH and path is not None:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(size // 2)
            raise SimulatedCrash(fault)
        if fault.kind == CORRUPT and path is not None:
            size = os.path.getsize(path)
            offset = min(size - 1, max(8, int(size * fault.arg)))
            with open(path, "r+b") as fh:
                fh.seek(offset)
                fh.write(b"\xde\xad\xbe\xef")
            return  # silent corruption: execution continues
        raise SimulatedCrash(fault)


class _FaultyFile:
    """Writable-file proxy that routes ``write``/``close`` through the schedule."""

    __slots__ = ("_file", "_io", "path")

    def __init__(self, fobj: IO[Any], io: FaultyIO, path: str) -> None:
        self._file = fobj
        self._io = io
        self.path = path

    def write(self, data: Any) -> int:
        fault = self._io.schedule.take("write", self.path)
        if fault is None or not isinstance(data, (bytes, bytearray, memoryview)):
            return self._file.write(data)
        buf = bytes(data)
        if fault.kind == TORN_WRITE:
            keep = int(len(buf) * fault.arg)
            if keep:
                self._file.write(buf[:keep])
            self._file.flush()
            raise SimulatedCrash(fault)
        if fault.kind == ENOSPC:
            raise OSError(errno.ENOSPC, f"injected ENOSPC writing {self.path}")
        if fault.kind == BIT_FLIP:
            if buf:
                flipped = bytearray(buf)
                bit = int(fault.arg * len(flipped) * 8) % (len(flipped) * 8)
                flipped[bit // 8] ^= 1 << (bit % 8)
                buf = bytes(flipped)
            return self._file.write(buf)
        if fault.kind == CRASH:
            self._file.flush()
            raise SimulatedCrash(fault)
        return self._file.write(buf)

    def close(self) -> None:
        fault = self._io.schedule.take("close", self.path)
        if fault is not None and fault.kind == CRASH:
            self._file.flush()
            raise SimulatedCrash(fault)
        self._file.close()

    # -- transparent passthroughs -----------------------------------------

    def flush(self) -> None:
        self._file.flush()

    def fileno(self) -> int:
        return self._file.fileno()

    def tell(self) -> int:
        return self._file.tell()

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._file.seek(offset, whence)

    def truncate(self, size: int | None = None) -> int:
        return self._file.truncate(size)

    def read(self, size: int = -1) -> Any:
        return self._file.read(size)

    @property
    def closed(self) -> bool:
        return self._file.closed

    def __enter__(self) -> "_FaultyFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
