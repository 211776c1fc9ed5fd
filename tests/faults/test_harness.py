"""Crash-recovery harness: fixed tier-1 seeds plus the wide opt-in sweep."""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import (
    CORRUPT,
    CRASH_AFTER_RENAME,
    CRASH_BEFORE_RENAME,
    TORN_WRITE,
    TRUNCATE_CRASH,
    CrashRecoveryFailure,
    Fault,
    FaultSchedule,
    FaultyIO,
    SimulatedCrash,
    run_seed,
)
from repro.faults.harness import (
    _Oracle,
    ABSENT,
    WorkloadOp,
    generate_workload,
    simulate_crash,
)
from repro.kvstore import LSMStore, blockcodec

# Fixed seeds exercised on every tier-1 run; chosen to cover each fault
# kind (see test_fixed_seeds_cover_fault_kinds, which pins the mapping).
TIER1_SEEDS = (0, 1, 2, 3, 4, 5, 6, 9, 12, 16, 18, 21, 23, 24, 42, 77, 101, 137, 161, 199)


class TestWorkload:
    def test_deterministic(self):
        a = [repr(op) for op in generate_workload(5)]
        b = [repr(op) for op in generate_workload(5)]
        assert a == b

    def test_mixes_op_kinds(self):
        workload = generate_workload(3, ops=400)
        kinds = {op.kind for op in workload}
        assert kinds == {"put", "merge", "delete", "batch", "flush", "compact"}
        batched = {write.kind for op in workload if op.kind == "batch" for write in op.value}
        assert batched == {"put", "merge", "delete"}


class TestOracle:
    def test_ack_advances_single_branch(self):
        oracle = _Oracle()
        oracle.ack(WorkloadOp("put", "kv", 1, "a"))
        oracle.ack(WorkloadOp("put", "kv", 1, "b"))
        assert oracle.possible[("kv", 1)] == ["b"]

    def test_indeterminate_forks_branches(self):
        oracle = _Oracle()
        oracle.ack(WorkloadOp("put", "kv", 1, "a"))
        oracle.indeterminate(WorkloadOp("delete", "kv", 1))
        assert sorted(oracle.possible[("kv", 1)], key=repr) == sorted(
            ["a", ABSENT], key=repr
        )

    def test_acked_merge_advances_both_branches(self):
        # The case the possible-values design exists for: an indeterminate
        # delta followed by an acked one must allow [d1, d2] and [d2].
        oracle = _Oracle()
        oracle.indeterminate(WorkloadOp("merge", "log", 1, ["d1"]))
        oracle.ack(WorkloadOp("merge", "log", 1, ["d2"]))
        branches = {tuple(v) for v in oracle.possible[("log", 1)]}
        assert branches == {("d1", "d2"), ("d2",)}

    def test_a_raised_batch_lands_whole_or_not_at_all(self):
        oracle = _Oracle()
        oracle.ack(WorkloadOp("put", "kv", 1, "a"))
        batch = [WorkloadOp("put", "kv", 1, "b"), WorkloadOp("merge", "log", 2, ["x"])]
        oracle.indeterminate(WorkloadOp("batch", value=batch))
        oracle.ack(WorkloadOp("batch", value=[WorkloadOp("merge", "log", 2, ["y"])]))
        assert oracle.states == [
            {("kv", 1): "a", ("log", 2): ["y"]},
            {("kv", 1): "b", ("log", 2): ["x", "y"]},
        ]
        assert oracle.acked_writes == 2


class TestFixedSeeds:
    """Small deterministic subset that runs on every tier-1 invocation."""

    @pytest.mark.parametrize("seed", TIER1_SEEDS)
    def test_seed_upholds_durability_contract(self, seed, tmp_path):
        # Every table is block-compressed v2, so injected bit flips land
        # inside compressed blocks and must still be *detected* (per-block
        # CRC over the stored bytes), never decoded into plausible garbage.
        summary = run_seed(seed, path=str(tmp_path / "db"))
        assert summary["fired"], "fault never fired: widen the workload"

    @pytest.mark.parametrize("seed", TIER1_SEEDS[:8])
    def test_seed_upholds_contract_with_compression(self, seed, tmp_path, written_codecs):
        # The contract above only covers compressed blocks if zlib really
        # shrank some of the blocks the seed wrote; a writer that fell back
        # to raw blocks everywhere would leave the flips untested there.
        # (Seeds 4 and 6 crash before their first flush and write no table.)
        summary = run_seed(seed, path=str(tmp_path / "db"))
        assert summary["fired"], "fault never fired: widen the workload"
        assert not written_codecs or blockcodec.CODEC_ZLIB in written_codecs

    def test_fixed_seeds_cover_fault_kinds(self):
        kinds = {
            FaultSchedule.from_seed(seed)._faults[0].kind for seed in TIER1_SEEDS
        }
        assert len(kinds) >= 6  # near-full coverage of the 7 generated kinds

    def test_same_seed_reproduces_identical_summary(self, tmp_path):
        a = run_seed(3, path=str(tmp_path / "a"))
        b = run_seed(3, path=str(tmp_path / "b"))
        assert a == b

    def test_failure_message_embeds_reproducer(self):
        failure = CrashRecoveryFailure(1234, "boom")
        assert "python -m repro faults --seed 1234" in str(failure)
        assert failure.seed == 1234


class TestCompactionFaultPoints:
    """The killed-compaction scenarios, ported from the retired hook."""

    @staticmethod
    def _populated(path: str, io=None) -> LSMStore:
        store = LSMStore(
            path, auto_compact=False, compaction_min_tables=2, io=io
        )
        store.create_table("t", merge_operator="list_append")
        for batch in range(4):
            for i in range(25):
                store.merge("t", i % 5, [batch * 100 + i])
            store.flush()
        return store

    def test_truncate_crash_at_pre_swap_recovers(self, tmp_path):
        path = str(tmp_path / "db")
        schedule = FaultSchedule(
            [Fault(TRUNCATE_CRASH, "point:compaction.pre_swap", nth=1)]
        )
        store = self._populated(path, io=FaultyIO(schedule))
        before = {k: v for k, v in store.scan("t")}
        with pytest.raises(SimulatedCrash):
            store.compact()
        store._wal._file.close()
        for reader in store._tableset.readers:
            reader._file.close()

        # The orphan half-written output is outside the manifest; reopening
        # serves the intact pre-compaction tables.
        reopened = LSMStore(path)
        assert {k: v for k, v in reopened.scan("t")} == before
        reopened.verify()
        reopened.close()

    def test_corrupt_output_at_pre_swap_aborts_swap(self, tmp_path):
        path = str(tmp_path / "db")
        schedule = FaultSchedule(
            [Fault(CORRUPT, "point:compaction.pre_swap", nth=1, arg=0.4)]
        )
        store = self._populated(path, io=FaultyIO(schedule))
        before = {k: v for k, v in store.scan("t")}

        assert store.compact() is False  # pre-swap verify rejects the output
        assert store.metrics.compaction_aborts == 1
        assert store.metrics.compactions == 0
        assert {k: v for k, v in store.scan("t")} == before
        store.verify()
        store.close()


class TestCompactionManifestCrashWindow:
    """Crashes aimed at the MANIFEST rewrite inside a compaction round.

    A round commits by rewriting the manifest (tmp write + rename +
    directory fsync) *after* its output is verified and *before* its inputs
    are deleted, so a crash anywhere in that window must leave either the
    old table set (inputs intact, output orphaned) or the new one (output
    live, inputs orphaned) -- both fully readable.
    """

    @staticmethod
    def _open(path: str, io=None) -> LSMStore:
        return LSMStore(path, auto_compact=False, compaction_min_tables=4, io=io)

    @classmethod
    def _populated(cls, path: str) -> dict:
        store = cls._open(path)
        store.create_table("t", merge_operator="list_append")
        for batch in range(4):
            for i in range(25):
                store.merge("t", i % 10, [batch * 100 + i])
            store.flush()
        assert store.sstable_count == 4
        before = {k: v for k, v in store.scan("t")}
        store.close()
        return before

    def _crash_round(self, tmp_path, fault: Fault) -> tuple[str, dict]:
        path = str(tmp_path / "db")
        before = self._populated(path)
        store = self._open(path, io=FaultyIO(FaultSchedule([fault])))
        with pytest.raises(SimulatedCrash):
            store.compact()
        simulate_crash(store)
        return path, before

    @pytest.mark.parametrize(
        "fault",
        [
            Fault(CRASH_BEFORE_RENAME, "rename", nth=1, path_part="MANIFEST"),
            Fault(CRASH_AFTER_RENAME, "rename", nth=1, path_part="MANIFEST"),
            Fault(TORN_WRITE, "write", nth=1, path_part="MANIFEST", arg=0.5),
            Fault("crash", "fsync_dir", nth=2),  # the manifest's, after the output's
        ],
        ids=["before-rename", "after-rename", "torn-tmp-write", "dir-fsync"],
    )
    def test_crash_around_manifest_rewrite_recovers(self, tmp_path, fault):
        path, before = self._crash_round(tmp_path, fault)
        reopened = self._open(path)
        try:
            assert {k: v for k, v in reopened.scan("t")} == before
            reopened.verify()
            # The survivor table set is sound enough for further rounds.
            reopened.compact_all()
            assert reopened.sstable_count == 1
            assert {k: v for k, v in reopened.scan("t")} == before
        finally:
            reopened.close()

    def test_crash_after_rename_orphans_inputs_not_outputs(self, tmp_path):
        fault = Fault(CRASH_AFTER_RENAME, "rename", nth=1, path_part="MANIFEST")
        path, before = self._crash_round(tmp_path, fault)
        # The new manifest is committed: reopening must serve the merged
        # output and remove the not-yet-deleted input tables.
        reopened = self._open(path)
        try:
            with open(os.path.join(path, "MANIFEST"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            listed = {e["file"] for e in manifest["sstables"]}
            on_disk = {f for f in os.listdir(path) if f.endswith(".sst")}
            assert listed == on_disk
            assert reopened.sstable_count == 1
            assert {k: v for k, v in reopened.scan("t")} == before
        finally:
            reopened.close()


class TestFailedCompactionCommit:
    """A compaction whose MANIFEST commit raises has already swapped its
    inputs out of the in-memory set.  They are closed at once; their files
    stay on disk -- the MANIFEST there may still name them -- until a later
    commit is durable, which deletes them."""

    @staticmethod
    def _store(path: str, fault: Fault) -> LSMStore:
        io = FaultyIO(FaultSchedule())
        store = LSMStore(path, auto_compact=False, compaction_min_tables=4, io=io)
        store.create_table("t", merge_operator="list_append")
        for batch in range(4):
            for i in range(25):
                store.merge("t", i % 10, [batch * 100 + i])
            store.flush()
        assert store.sstable_count == 4
        io.schedule = FaultSchedule([fault])
        return store

    @staticmethod
    def _sst_files(path: str) -> list[str]:
        return sorted(name for name in os.listdir(path) if name.endswith(".sst"))

    @pytest.mark.parametrize(
        "fault",
        [
            Fault("fail_fsync", "fsync_dir", nth=2),  # after the rename
            Fault("fail_fsync", "fsync", nth=1, path_part="MANIFEST"),  # before it
        ],
        ids=["dir-fsync", "manifest-tmp-fsync"],
    )
    def test_inputs_close_at_once_and_go_with_the_next_commit(self, tmp_path, fault):
        path = str(tmp_path / "db")
        store = self._store(path, fault)
        inputs = list(store._tableset.readers)
        before = {k: v for k, v in store.scan("t")}
        with pytest.raises(OSError):
            store.compact()
        assert store.sstable_count == 1
        assert all(reader._file.closed for reader in inputs)
        assert len(self._sst_files(path)) == 5  # not yet durably unreferenced
        store.merge("t", 0, ["late"])
        store.flush()
        live = sorted(os.path.basename(r.path) for r in store._tableset.readers)
        assert self._sst_files(path) == live
        store.close()
        before[(0,)] = before[(0,)] + ["late"]
        with LSMStore(path) as reopened:
            assert {k: v for k, v in reopened.scan("t")} == before
            reopened.verify()


class TestOrphanSweep:
    """A killed compaction's leftovers are reclaimed by the next open.

    SSTable ids below ``next_sst_id`` are never reused, so nothing would
    ever overwrite an orphan: outputs sealed before a kill at
    ``compaction.pre_swap``, or inputs already swapped out of the manifest
    when the kill lands before they are retired.
    """

    @staticmethod
    def _assert_no_orphans(path: str) -> None:
        with open(os.path.join(path, "MANIFEST"), encoding="utf-8") as fh:
            listed = {e["file"] for e in json.load(fh)["sstables"]}
        extra = set(os.listdir(path)) - listed - {"MANIFEST", "wal.log"}
        assert all(name.startswith("wal-") for name in extra), sorted(extra)
        assert listed <= set(os.listdir(path))

    @pytest.mark.parametrize(
        "fault",
        [
            Fault(TRUNCATE_CRASH, "point:compaction.pre_swap", nth=1),
            Fault("crash", "remove", nth=1, path_part=".sst"),
        ],
        ids=["pre-swap", "between-swap-and-retire"],
    )
    def test_killed_compaction_leaves_no_orphans_after_reopen(self, tmp_path, fault):
        path = str(tmp_path / "db")
        fault = Fault(fault.kind, fault.op, nth=1, path_part=fault.path_part)
        store = LSMStore(path, io=FaultyIO(FaultSchedule([fault])), auto_compact=False)
        store.create_table("t", merge_operator="list_append")
        model: dict = {}
        for batch in range(4):
            for i in range(25):
                store.merge("t", i % 10, [batch * 100 + i])
                model.setdefault((i % 10,), []).append(batch * 100 + i)
            store.flush()
        with pytest.raises(SimulatedCrash):
            store.compact_all()
        simulate_crash(store)

        reopened = LSMStore(path, auto_compact=False)
        try:
            self._assert_no_orphans(path)
            assert dict(reopened.scan("t")) == model
            reopened.verify()
            reopened.merge("t", 0, [999])
            model[(0,)].append(999)
            reopened.flush()
            reopened.compact_all()
            assert dict(reopened.scan("t")) == model
        finally:
            reopened.close()
        self._assert_no_orphans(path)


class TestDirectoryFsyncFaults:
    """The directory fsyncs that make a rename durable: the SSTable's in
    ``SSTableWriter.finish`` and the MANIFEST's in ``TableSet.commit``.

    Each test arms its fault once the store is open and its table exists
    (both commit the MANIFEST), so ``nth`` counts from the flush: the
    first directory fsync is the SSTable's, the second the MANIFEST's.
    """

    @staticmethod
    def _store(path: str, fault: Fault) -> LSMStore:
        io = FaultyIO(FaultSchedule())
        store = LSMStore(path, io=io)
        store.create_table("t", merge_operator="list_append")
        io.schedule = FaultSchedule([fault])
        return store

    def test_crash_at_directory_fsync_recovers(self, tmp_path):
        # Kill the process at the flush's first directory fsync -- i.e.
        # right after the SSTable rename commits.  Acknowledged writes must
        # still be recoverable (from the table if the dentry survived, else
        # from the retained WAL segment).
        path = str(tmp_path / "db")
        store = self._store(path, Fault("crash", "fsync_dir", nth=1))
        for i in range(10):
            store.merge("t", i % 3, [i])
        with pytest.raises(SimulatedCrash):
            store.flush()
        store._wal._file.close()
        for reader in store._tableset.readers:
            reader._file.close()

        reopened = LSMStore(path)
        recovered = {k[0]: v for k, v in reopened.scan("t")}
        assert recovered == {0: [0, 3, 6, 9], 1: [1, 4, 7], 2: [2, 5, 8]}
        reopened.verify()
        reopened.close()

    def test_failed_directory_fsync_is_survivable(self, tmp_path):
        # EIO from the directory fsync behaves like a failed file fsync:
        # the flush is unacknowledged and retried, the store stays usable.
        path = str(tmp_path / "db")
        store = self._store(path, Fault("fail_fsync", "fsync_dir", nth=1))
        store.merge("t", 1, ["a"])
        with pytest.raises(OSError):
            store.flush()
        store.merge("t", 1, ["b"])
        store.flush()  # retried handoff drains, then the new data flushes
        assert store.get("t", 1) == ["a", "b"]
        store.verify()
        store.close()

    def test_failed_manifest_directory_fsync_raises(self, tmp_path):
        # The flush's MANIFEST commit cannot be made durable: the flush
        # raises instead of acknowledging it, and keeps the WAL segment
        # that still holds the rows until a later commit succeeds.
        path = str(tmp_path / "db")
        store = self._store(path, Fault("fail_fsync", "fsync_dir", nth=2))
        store.merge("t", 1, ["a"])
        with pytest.raises(OSError):
            store.flush()
        assert any(name.startswith("wal-") for name in os.listdir(path))
        store.merge("t", 1, ["b"])
        store.flush()
        assert not any(name.startswith("wal-") for name in os.listdir(path))
        store.close()
        with LSMStore(path) as reopened:
            assert reopened.get("t", 1) == ["a", "b"]
            reopened.verify()


@pytest.mark.faults
class TestSeedSweep:
    """Wide sweep (``pytest -m faults``); failures print their reproducer."""

    SWEEP = 200

    def test_seed_sweep(self, tmp_path):
        # Every injected bit flip inside a compressed block must be
        # detected, none laundered through compaction under a fresh CRC.
        failures = []
        for seed in range(self.SWEEP):
            try:
                run_seed(seed, path=str(tmp_path / f"seed-{seed}"))
            except CrashRecoveryFailure as exc:
                failures.append(str(exc))
        if failures:
            pytest.fail(
                f"{len(failures)}/{self.SWEEP} seeds violated the durability "
                "contract:\n" + "\n".join(failures)
            )
