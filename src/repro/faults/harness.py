"""Crash-recovery harness: seeded workload x fault schedule x oracle.

One :class:`CrashRecoveryHarness` run is a complete simulated
crash/recovery cycle:

1. derive a workload (puts / list-append merges / deletes / flushes /
   compactions) and a :class:`~repro.faults.schedule.FaultSchedule` from a
   single integer seed;
2. drive the workload into an :class:`~repro.kvstore.lsm.LSMStore` whose
   I/O runs through :class:`~repro.faults.io.FaultyIO`, tracking every
   *acknowledged* operation (returned without raising) in an in-memory
   oracle;
3. when the scheduled fault kills the store (or the workload ends), drop
   the store's file handles without flushing -- a process kill -- and
   reopen the directory with a clean filesystem;
4. check the recovered state against the oracle:

   * every acknowledged write must survive;
   * an operation that raised (the in-flight op at the crash, or the one
     an injected ``ENOSPC``/fsync failure hit) may have landed or not --
     the oracle tracks both branches, anything outside them is a torn
     value;
   * no key the oracle never saw may appear (no phantoms);
   * ``verify()`` must pass -- recovery never serves torn bytes;
   * for silent-corruption faults (bit flips) the store may instead
     *detect* the damage with a typed corruption error, which counts as a
     pass: failing loudly is the contract, serving garbage is the bug.

Any violation raises :class:`CrashRecoveryFailure`, whose message embeds
the reproducer command (``python -m repro faults --seed N``).

The oracle state is a ``{(table, key): [possible values]}`` map.  An
acknowledged write advances *every* branch; an unacknowledged write forks
the branches (with and without the write).  Exactly one fault fires per
schedule, so at most one key ever carries two branches -- the map stays
tiny while still expressing the full may-or-may-not-have-landed
semantics.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from typing import Any

from repro.faults.io import FaultyIO
from repro.faults.schedule import CORRUPTING_KINDS, FaultSchedule, SimulatedCrash
from repro.kvstore.api import CorruptionError
from repro.kvstore.compaction import LeveledConfig
from repro.kvstore.lsm import LSMStore
from repro.obs.registry import REGISTRY

__all__ = [
    "CrashRecoveryFailure",
    "CrashRecoveryHarness",
    "WorkloadOp",
    "generate_workload",
    "run_seed",
    "simulate_crash",
]

#: sentinel for "key has no value" (the workload never stores this string)
ABSENT = "\x00<absent>"

_WRITE_KINDS = ("put", "merge", "delete")


class CrashRecoveryFailure(AssertionError):
    """A durability invariant was violated; carries the reproducer seed."""

    def __init__(self, seed: int, message: str) -> None:
        self.seed = seed
        super().__init__(
            f"seed {seed}: {message}\n"
            f"  reproduce with: python -m repro faults --seed {seed}"
        )


class WorkloadOp:
    """One step of the seeded workload."""

    __slots__ = ("kind", "table", "key", "value")

    def __init__(self, kind: str, table: str = "", key: Any = None, value: Any = None) -> None:
        self.kind = kind
        self.table = table
        self.key = key
        self.value = value

    def __repr__(self) -> str:
        if self.kind in _WRITE_KINDS:
            return f"WorkloadOp({self.kind} {self.table}[{self.key!r}])"
        return f"WorkloadOp({self.kind})"


def generate_workload(seed: int, ops: int = 160) -> list[WorkloadOp]:
    """Deterministic mixed workload over a plain table and a merge table.

    Values carry variable-length payloads so torn or truncated writes
    change bytes a checksum (or the oracle comparison) will notice.
    """
    rng = random.Random(f"workload-{seed}")
    workload: list[WorkloadOp] = []
    for i in range(ops):
        roll = rng.random()
        if roll < 0.35:
            key = rng.randrange(16)
            value = f"v{i}-" + "x" * rng.randint(0, 80)
            workload.append(WorkloadOp("put", "kv", key, value))
        elif roll < 0.65:
            key = rng.randrange(8)
            delta = [f"d{i}.{rng.randrange(1000)}"]
            workload.append(WorkloadOp("merge", "log", key, delta))
        elif roll < 0.75:
            table = rng.choice(("kv", "log"))
            key = rng.randrange(16 if table == "kv" else 8)
            workload.append(WorkloadOp("delete", table, key))
        elif roll < 0.90:
            workload.append(WorkloadOp("flush"))
        else:
            workload.append(WorkloadOp("compact"))
    return workload


def simulate_crash(store: LSMStore) -> None:
    """Drop a store's OS handles without flushing -- a process kill.

    The on-disk state is left exactly as the last completed I/O left it;
    nothing is sealed, truncated or flushed on the way out.  The store
    object is poisoned (marked closed) so accidental reuse fails loudly.
    """
    REGISTRY.unregister(store._obs_handle)
    compactor, store._compactor = store._compactor, None
    if compactor is not None:
        compactor.stop()
    try:
        store._wal._file.close()
    except Exception:
        pass  # the crash may have hit the WAL handle itself
    for reader in list(store._tableset.readers):
        try:
            reader._file.close()
        except Exception:
            pass
    store._closed = True


class _Oracle:
    """Possible-values tracker for acknowledged vs indeterminate writes."""

    def __init__(self) -> None:
        #: (table, key) -> list of possible current values (1 or 2 entries)
        self.possible: dict[tuple[str, Any], list[Any]] = {}
        self.acked_writes = 0

    @staticmethod
    def _applied(current: Any, op: WorkloadOp) -> Any:
        if op.kind == "put":
            return op.value
        if op.kind == "delete":
            return ABSENT
        if op.kind == "merge":
            base = list(current) if isinstance(current, list) else []
            return base + list(op.value)
        raise ValueError(f"not a write op: {op!r}")

    @staticmethod
    def _freeze(value: Any) -> Any:
        return tuple(value) if isinstance(value, list) else value

    def _branches(self, op: WorkloadOp) -> list[Any]:
        return self.possible.get((op.table, op.key), [ABSENT])

    def ack(self, op: WorkloadOp) -> None:
        """The op returned: it must be reflected in every branch."""
        branches = [self._applied(v, op) for v in self._branches(op)]
        self.possible[(op.table, op.key)] = _dedup(branches, self._freeze)
        self.acked_writes += 1

    def indeterminate(self, op: WorkloadOp) -> None:
        """The op raised: it may or may not have landed -- fork branches."""
        branches = self._branches(op)
        branches = branches + [self._applied(v, op) for v in branches]
        self.possible[(op.table, op.key)] = _dedup(branches, self._freeze)


def _dedup(values: list[Any], freeze: Any) -> list[Any]:
    seen: set[Any] = set()
    out: list[Any] = []
    for value in values:
        frozen = freeze(value)
        if frozen not in seen:
            seen.add(frozen)
            out.append(value)
    return out


class CrashRecoveryHarness:
    """Run one seed's workload-under-faults cycle and verify recovery."""

    TABLES = (("kv", None), ("log", "list_append"))

    def __init__(
        self,
        path: str,
        seed: int,
        ops: int = 160,
        memtable_flush_bytes: int = 2048,
        compaction_min_tables: int = 3,
        compression: str | None = None,
        compaction: str = "size_tiered",
        schedule: FaultSchedule | None = None,
    ) -> None:
        self.path = path
        self.seed = seed
        self.ops = ops
        self.memtable_flush_bytes = memtable_flush_bytes
        self.compaction_min_tables = compaction_min_tables
        #: block codec for the store under test; faults then land inside
        #: compressed v2 blocks, exercising the per-block CRC detection path
        self.compression = compression
        #: compaction strategy under test; ``"leveled"`` shrinks the level
        #: budgets so the seeded workload actually drives cascades and
        #: manifest rewrites through the injected fault
        self.compaction = compaction
        #: explicit schedule override (default: derived from the seed) --
        #: lets tests aim a fault at a precise protocol point, e.g. the
        #: crash window around a leveled round's MANIFEST rename
        self.schedule = schedule

    def _store_kwargs(self) -> dict[str, Any]:
        kwargs: dict[str, Any] = {"compaction": self.compaction}
        if self.compaction == "leveled":
            kwargs["leveled"] = LeveledConfig(
                l0_compact_tables=max(2, self.compaction_min_tables),
                base_level_bytes=8 * 1024,
                fanout=4,
            )
        return kwargs

    def run(self) -> dict[str, Any]:
        """Execute the cycle; returns a summary dict or raises
        :class:`CrashRecoveryFailure`."""
        schedule = self.schedule or FaultSchedule.from_seed(self.seed)
        fault = schedule._faults[0]
        workload = generate_workload(self.seed, self.ops)
        oracle = _Oracle()
        crashed = False
        detected = False
        store: LSMStore | None = None

        try:
            store = LSMStore(
                self.path,
                memtable_flush_bytes=self.memtable_flush_bytes,
                compaction_min_tables=self.compaction_min_tables,
                auto_compact=True,
                background_compaction=False,
                block_cache_bytes=64 * 1024,
                compression=self.compression,
                io=FaultyIO(schedule),
                **self._store_kwargs(),
            )
            for table, operator in self.TABLES:
                store.create_table(table, merge_operator=operator)
        except (SimulatedCrash, OSError, CorruptionError) as exc:
            if not schedule.fired:
                raise
            # Fault hit during bootstrap: nothing was acknowledged yet.
            crashed = True
            detected = isinstance(exc, CorruptionError)
        else:
            crashed, detected = self._drive(store, workload, schedule, oracle)

        if store is not None:
            simulate_crash(store)

        summary = {
            "seed": self.seed,
            "fault": repr(fault),
            "fired": schedule.fired,
            "crashed": crashed,
            "detected": detected,
            "acked": oracle.acked_writes,
            "checked": 0,
        }
        self._verify_recovery(fault, oracle, summary)
        return summary

    def _drive(
        self,
        store: LSMStore,
        workload: list[WorkloadOp],
        schedule: FaultSchedule,
        oracle: _Oracle,
    ) -> tuple[bool, bool]:
        """Apply the workload; returns ``(crashed, detected)``."""
        for op in workload:
            try:
                if op.kind == "put":
                    store.put(op.table, op.key, op.value)
                elif op.kind == "merge":
                    store.merge(op.table, op.key, op.value)
                elif op.kind == "delete":
                    store.delete(op.table, op.key)
                elif op.kind == "flush":
                    store.flush()
                else:
                    store.compact()
            except SimulatedCrash:
                if op.kind in _WRITE_KINDS:
                    oracle.indeterminate(op)
                return True, False
            except (OSError, CorruptionError) as exc:
                if not schedule.fired:
                    raise  # a real I/O error, not one we injected
                if isinstance(exc, CorruptionError):
                    # Planted corruption surfaced mid-run as a typed error:
                    # that is detection; stop here and check recovery.
                    return True, True
                # Injected transient failure (ENOSPC / failed fsync): the
                # store must survive it; the op is simply unacknowledged.
                if op.kind in _WRITE_KINDS:
                    oracle.indeterminate(op)
            else:
                if op.kind in _WRITE_KINDS:
                    oracle.ack(op)
        return False, False

    def _verify_recovery(
        self, fault: Any, oracle: _Oracle, summary: dict[str, Any]
    ) -> None:
        corruption_planted = fault.kind in CORRUPTING_KINDS
        try:
            # Reopen under the same strategy: a leveled run must survive
            # its own manifest (including a torn manifest rewrite, which
            # demotes to L0 rather than failing).
            recovered = LSMStore(
                self.path, auto_compact=False, **self._store_kwargs()
            )
        except (CorruptionError, json.JSONDecodeError) as exc:
            if corruption_planted:
                summary["detected"] = True
                return  # corruption detected at open: the contract held
            raise CrashRecoveryFailure(
                self.seed, f"store failed to reopen after {fault!r}: {exc!r}"
            ) from exc
        except Exception as exc:
            raise CrashRecoveryFailure(
                self.seed, f"store failed to reopen after {fault!r}: {exc!r}"
            ) from exc
        try:
            try:
                recovered.verify()
            except CorruptionError as exc:
                if corruption_planted:
                    summary["detected"] = True
                    return
                raise CrashRecoveryFailure(
                    self.seed, f"recovered store fails verify(): {exc!r}"
                ) from exc
            self._check_values(recovered, oracle, summary)
        finally:
            recovered.close()

    def _check_values(
        self, recovered: LSMStore, oracle: _Oracle, summary: dict[str, Any]
    ) -> None:
        freeze = oracle._freeze
        checked = 0
        for (table, key), branches in oracle.possible.items():
            if not recovered.has_table(table):
                if any(freeze(v) != ABSENT for v in branches):
                    raise CrashRecoveryFailure(
                        self.seed,
                        f"table {table!r} lost in recovery but may hold "
                        f"key {key!r}",
                    )
                continue
            try:
                got = recovered.get(table, key, ABSENT)
            except Exception as exc:
                raise CrashRecoveryFailure(
                    self.seed,
                    f"reading {table}[{key!r}] after recovery raised {exc!r}",
                ) from exc
            allowed = {freeze(v) for v in branches}
            if freeze(got) not in allowed:
                raise CrashRecoveryFailure(
                    self.seed,
                    f"{table}[{key!r}] recovered as {got!r}, expected one of "
                    f"{sorted(map(repr, allowed))}",
                )
            checked += 1
        # No phantoms: every surviving key must be one the oracle saw.
        for table, _ in self.TABLES:
            if not recovered.has_table(table):
                continue
            for scan_key, _value in recovered.scan(table):
                key = scan_key[0] if len(scan_key) == 1 else scan_key
                if (table, key) not in oracle.possible:
                    raise CrashRecoveryFailure(
                        self.seed,
                        f"phantom key {table}[{key!r}] appeared after recovery",
                    )
        summary["checked"] = checked


def run_seed(
    seed: int,
    ops: int = 160,
    path: str | None = None,
    **harness_kwargs: Any,
) -> dict[str, Any]:
    """Run one seed end-to-end (in a temp dir unless ``path`` is given)."""
    workdir = path or tempfile.mkdtemp(prefix=f"repro-faults-{seed}-")
    try:
        harness = CrashRecoveryHarness(workdir, seed, ops=ops, **harness_kwargs)
        return harness.run()
    finally:
        if path is None:
            shutil.rmtree(workdir, ignore_errors=True)
