"""FaultyIO: each fault kind produces exactly its documented effect."""

from __future__ import annotations

import errno
import os

import pytest

from repro.faults import (
    BIT_FLIP,
    CORRUPT,
    CRASH,
    CRASH_AFTER_RENAME,
    CRASH_BEFORE_RENAME,
    ENOSPC,
    FAIL_FSYNC,
    LOST_RENAME,
    TORN_WRITE,
    TRUNCATE_CRASH,
    Fault,
    FaultSchedule,
    FaultyIO,
    SimulatedCrash,
    faults_injected_total,
)
from repro.faults.io import durable_replace


def _io(*faults: Fault) -> FaultyIO:
    return FaultyIO(FaultSchedule(list(faults)))


class TestWriteFaults:
    def test_torn_write_keeps_prefix_then_crashes(self, tmp_path):
        path = str(tmp_path / "f")
        io = _io(Fault(TORN_WRITE, "write", nth=1, arg=0.5))
        fh = io.open(path, "wb")
        with pytest.raises(SimulatedCrash):
            fh.write(b"0123456789")
        fh._file.close()
        assert os.path.getsize(path) == 5  # exactly the torn prefix

    def test_enospc_writes_nothing_and_is_an_oserror(self, tmp_path):
        path = str(tmp_path / "f")
        io = _io(Fault(ENOSPC, "write", nth=1))
        fh = io.open(path, "wb")
        with pytest.raises(OSError) as exc_info:
            fh.write(b"data")
        assert exc_info.value.errno == errno.ENOSPC
        fh.close()
        assert os.path.getsize(path) == 0

    def test_bit_flip_changes_exactly_one_bit_silently(self, tmp_path):
        path = str(tmp_path / "f")
        io = _io(Fault(BIT_FLIP, "write", nth=1, arg=0.3))
        fh = io.open(path, "wb")
        fh.write(b"\x00" * 16)  # silent: no exception
        fh.close()
        data = open(path, "rb").read()
        assert len(data) == 16
        flipped_bits = sum(bin(byte).count("1") for byte in data)
        assert flipped_bits == 1

    def test_unfaulted_writes_pass_through(self, tmp_path):
        path = str(tmp_path / "f")
        io = _io(Fault(ENOSPC, "write", nth=5))
        fh = io.open(path, "wb")
        fh.write(b"abc")
        fh.close()
        assert open(path, "rb").read() == b"abc"


class TestFsyncFaults:
    def test_fail_fsync_raises_eio(self, tmp_path):
        path = str(tmp_path / "f")
        io = _io(Fault(FAIL_FSYNC, "fsync", nth=1))
        fh = io.open(path, "wb")
        fh.write(b"abc")
        with pytest.raises(OSError) as exc_info:
            io.fsync(fh)
        assert exc_info.value.errno == errno.EIO
        fh.close()

    def test_crash_at_fsync(self, tmp_path):
        path = str(tmp_path / "f")
        io = _io(Fault(CRASH, "fsync", nth=1))
        fh = io.open(path, "wb")
        with pytest.raises(SimulatedCrash):
            io.fsync(fh)
        fh.close()


class TestRenameFaults:
    def test_crash_before_rename_leaves_source(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        open(src, "wb").write(b"x")
        io = _io(Fault(CRASH_BEFORE_RENAME, "rename", nth=1))
        with pytest.raises(SimulatedCrash):
            io.replace(src, dst)
        assert os.path.exists(src) and not os.path.exists(dst)

    def test_crash_after_rename_completes_it(self, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        open(src, "wb").write(b"x")
        io = _io(Fault(CRASH_AFTER_RENAME, "rename", nth=1))
        with pytest.raises(SimulatedCrash):
            io.replace(src, dst)
        assert os.path.exists(dst) and not os.path.exists(src)

    def test_lost_rename_undoes_every_unsynced_rename_newest_first(self, tmp_path):
        def put(name, data):
            with open(tmp_path / name, "wb") as fh:
                fh.write(data)

        def files():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        put("log", b"old log")
        put("M", b"M0")
        io = _io(Fault(LOST_RENAME, "write", nth=1))
        io.replace(str(tmp_path / "log"), str(tmp_path / "seg"))
        put("log", b"new log")  # made at a renamed path: goes with the rename
        put("M.tmp", b"M1")
        io.replace(str(tmp_path / "M.tmp"), str(tmp_path / "M"))
        put("M.tmp", b"M2")
        io.replace(str(tmp_path / "M.tmp"), str(tmp_path / "M"))
        fh = io.open(str(tmp_path / "x"), "wb")
        with pytest.raises(SimulatedCrash):
            fh.write(b"never written")
        fh.close()
        assert files() == {"log": b"old log", "M": b"M0", "M.tmp": b"M1", "x": b""}

    def test_a_rename_its_directory_fsync_covers_survives(self, tmp_path):
        io = _io(Fault(LOST_RENAME, "rename", nth=2))
        durable_replace(io, str(tmp_path / "a"), b"kept")
        with pytest.raises(SimulatedCrash):
            durable_replace(io, str(tmp_path / "b"), b"lost")
        assert (tmp_path / "a").read_bytes() == b"kept"
        assert not (tmp_path / "b").exists()
        assert (tmp_path / "b.tmp").read_bytes() == b"lost"


class TestNamedPoints:
    def test_truncate_crash_halves_the_file(self, tmp_path):
        path = str(tmp_path / "f")
        open(path, "wb").write(b"0" * 100)
        io = _io(Fault(TRUNCATE_CRASH, "point:compaction.pre_swap", nth=1))
        with pytest.raises(SimulatedCrash):
            io.fault_point("compaction.pre_swap", path)
        assert os.path.getsize(path) == 50

    def test_corrupt_overwrites_silently(self, tmp_path):
        path = str(tmp_path / "f")
        open(path, "wb").write(b"\x00" * 64)
        io = _io(Fault(CORRUPT, "point:compaction.pre_swap", nth=1, arg=0.5))
        io.fault_point("compaction.pre_swap", path)  # no exception
        data = open(path, "rb").read()
        assert len(data) == 64
        assert b"\xde\xad\xbe\xef" in data

    def test_unscheduled_point_is_a_noop(self, tmp_path):
        path = str(tmp_path / "f")
        open(path, "wb").write(b"x")
        _io().fault_point("compaction.pre_swap", path)
        assert open(path, "rb").read() == b"x"


class TestMetrics:
    def test_injections_bump_the_process_counter(self, tmp_path):
        before = faults_injected_total()
        io = _io(Fault(ENOSPC, "write", nth=1))
        fh = io.open(str(tmp_path / "f"), "wb")
        with pytest.raises(OSError):
            fh.write(b"x")
        fh.close()
        assert faults_injected_total() == before + 1

    def test_registry_exposes_the_counter(self):
        from repro.obs.registry import REGISTRY

        rendered = REGISTRY.render()
        assert "repro_faults_injected_total" in rendered
