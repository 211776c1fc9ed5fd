"""Crash-recovery harness: seeded workload x fault schedule x oracle.

One :class:`CrashRecoveryHarness` run is a complete simulated
crash/recovery cycle:

1. derive a workload (puts / list-append merges / deletes, alone or as
   multi-op ``write`` batches / flushes / compactions) and a
   :class:`~repro.faults.schedule.FaultSchedule` from a single integer seed;
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
     value; a batch lands whole or not at all, so recovering part of one
     is a failure too;
   * no key the oracle never saw may appear (no phantoms);
   * ``verify()`` must pass -- recovery never serves torn bytes;
   * for silent-corruption faults (bit flips) the store may instead
     *detect* the damage with a typed corruption error, which counts as a
     pass: failing loudly is the contract, serving garbage is the bug.

Any violation raises :class:`CrashRecoveryFailure`, whose message embeds
the reproducer command (``python -m repro faults --seed N``).

The oracle holds the possible *store states* -- ``{(table, key): value}``
maps.  An acknowledged write advances every state; an unacknowledged one
forks them (without the write, and with all of it).  Exactly one fault
fires per schedule, so there are at most two states -- tiny, while still
expressing the full may-or-may-not-have-landed semantics, and for a batch
that it landed as a whole.
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

_WRITE_KINDS = ("put", "merge", "delete", "batch")


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
        if self.kind == "batch":
            return f"WorkloadOp(batch of {len(self.value)})"
        if self.kind in _WRITE_KINDS:
            return f"WorkloadOp({self.kind} {self.table}[{self.key!r}])"
        return f"WorkloadOp({self.kind})"

    def ops(self) -> list[tuple[str, str, Any, Any]]:
        """This write as ``KeyValueStore.write`` ops."""
        writes = self.value if self.kind == "batch" else [self]
        return [(op.kind, op.table, op.key, op.value) for op in writes]


def _draw_write(rng: random.Random, tag: str) -> WorkloadOp:
    """One put, list-append merge or delete, weighted 35 : 30 : 10."""
    roll = rng.random() * 0.75
    if roll < 0.35:
        value = f"v{tag}-" + "x" * rng.randint(0, 80)
        return WorkloadOp("put", "kv", rng.randrange(16), value)
    if roll < 0.65:
        return WorkloadOp("merge", "log", rng.randrange(8), [f"d{tag}.{rng.randrange(1000)}"])
    table = rng.choice(("kv", "log"))
    return WorkloadOp("delete", table, rng.randrange(16 if table == "kv" else 8))


def generate_workload(seed: int, ops: int = 160) -> list[WorkloadOp]:
    """Deterministic mixed workload over a plain table and a merge table.

    Values carry variable-length payloads so torn or truncated writes
    change bytes a checksum (or the oracle comparison) will notice; a
    ``batch`` is 2-6 writes applied as one ``write`` (keys may repeat).
    """
    rng = random.Random(f"workload-{seed}")
    workload: list[WorkloadOp] = []
    for i in range(ops):
        roll = rng.random()
        if roll < 0.65:
            workload.append(_draw_write(rng, str(i)))
        elif roll < 0.77:
            size = rng.randint(2, 6)
            batch = [_draw_write(rng, f"{i}.{j}") for j in range(size)]
            workload.append(WorkloadOp("batch", value=batch))
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
    """Possible-states tracker for acknowledged vs indeterminate writes."""

    def __init__(self) -> None:
        #: every store state the writes so far allow, as ``{(table, key):
        #: value}`` (1 entry, or 2 once a write raised)
        self.states: list[dict[tuple[str, Any], Any]] = [{}]
        self.acked_writes = 0

    @staticmethod
    def _applied(state: dict[tuple[str, Any], Any], op: WorkloadOp) -> dict:
        """``state`` after all of ``op`` (every write of a batch, in order)."""
        state = dict(state)
        for kind, table, key, value in op.ops():
            if kind == "put":
                state[table, key] = value
            elif kind == "delete":
                state[table, key] = ABSENT
            elif kind == "merge":
                current = state.get((table, key))
                base = list(current) if isinstance(current, list) else []
                state[table, key] = base + list(value)
            else:
                raise ValueError(f"not a write op: {op!r}")
        return state

    @staticmethod
    def _freeze(value: Any) -> Any:
        return tuple(value) if isinstance(value, list) else value

    def _frozen(self, state: dict[tuple[str, Any], Any]) -> Any:
        return frozenset(
            (key, self._freeze(value)) for key, value in state.items() if value != ABSENT
        )

    @property
    def possible(self) -> dict[tuple[str, Any], list[Any]]:
        """Per key, every value it may hold: the states seen key by key."""
        keys = dict.fromkeys(key for state in self.states for key in state)
        return {
            key: _dedup([state.get(key, ABSENT) for state in self.states], self._freeze)
            for key in keys
        }

    def ack(self, op: WorkloadOp) -> None:
        """The write returned: it must be reflected in every state."""
        self.states = [self._applied(state, op) for state in self.states]
        self.acked_writes += len(op.ops())

    def indeterminate(self, op: WorkloadOp) -> None:
        """The write raised: it may have landed or not, but never in part --
        fork every state into "none of it" and "all of it"."""
        states = self.states + [self._applied(state, op) for state in self.states]
        self.states = _dedup(states, self._frozen)


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
        schedule: FaultSchedule | None = None,
    ) -> None:
        self.path = path
        self.seed = seed
        self.ops = ops
        self.memtable_flush_bytes = memtable_flush_bytes
        self.compaction_min_tables = compaction_min_tables
        #: explicit schedule override (default: derived from the seed) --
        #: lets tests aim a fault at a precise protocol point, e.g. the
        #: crash window around a compaction's MANIFEST rename
        self.schedule = schedule

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
                io=FaultyIO(schedule),
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
                elif op.kind == "batch":
                    store.write(op.ops())
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
            recovered = LSMStore(self.path, auto_compact=False)
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
        recovered_state: dict[tuple[str, Any], Any] = {}
        possible = oracle.possible
        for (table, key), branches in possible.items():
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
            recovered_state[table, key] = got
            checked += 1
        frozen = oracle._frozen(recovered_state)
        if not any(frozen == oracle._frozen(state) for state in oracle.states):
            raise CrashRecoveryFailure(
                self.seed,
                "every key recovered a possible value, but together they mix "
                "the outcomes of the write in flight: part of a batch landed",
            )
        # No phantoms: every surviving key must be one the oracle saw.
        for table, _ in self.TABLES:
            if not recovered.has_table(table):
                continue
            for scan_key, _value in recovered.scan(table):
                key = scan_key[0] if len(scan_key) == 1 else scan_key
                if (table, key) not in possible:
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
