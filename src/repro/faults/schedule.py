"""Deterministic fault schedules for the durability-critical I/O path.

A :class:`FaultSchedule` is a small list of :class:`Fault` points consumed
by the :class:`~repro.faults.io.FaultyIO` filesystem shim.  Every
durability-relevant operation (``write``/``fsync``/``rename``/``remove``/
``close``/``open`` plus named protocol points like
``point:compaction.pre_swap``) asks the schedule whether a fault is due;
the *n-th* operation matching a fault's op type and path filter fires it.

Schedules are deterministic: :meth:`FaultSchedule.from_seed` derives the
fault kind, target operation, ordinal and parameters from a single integer
seed with :class:`random.Random` (whose string seeding is stable across
processes), so any failure observed under a seed is reproducible by
replaying the same seed -- the model FoundationDB-style simulation testing
is built on.

Fault kinds
-----------

``torn_write``
    Write only a prefix of the buffer, then raise :class:`SimulatedCrash`
    (a partial WAL record / truncated SSTable block, as left by a real
    kill mid-``write(2)``).
``enospc``
    Raise ``OSError(ENOSPC)`` without writing anything; the store is
    expected to *survive* this (failed-flush handoff) rather than crash.
``fail_fsync``
    Raise ``OSError(EIO)`` from ``fsync``; also survivable.
``bit_flip``
    Flip one bit of the buffer and write the corrupted bytes silently --
    recovery must later *detect* this via a checksum, never serve it.
``crash``
    Raise :class:`SimulatedCrash` instead of performing the operation.
``crash_before_rename`` / ``crash_after_rename``
    Kill immediately before / after an atomic ``os.replace``, exercising
    both sides of every rename-based commit point (manifest swap, SSTable
    seal, WAL rotation).
``truncate_crash`` / ``corrupt``
    Named-point faults: truncate the target file to half its size and
    crash, or silently overwrite four bytes mid-file.

After any crash-kind fault fires the schedule goes inert (the simulated
process is dead); cleanup code running during unwind performs real I/O
without further injection, exactly as the OS would complete buffered
writes after a ``SIGKILL``.
"""

from __future__ import annotations

import random
import threading

__all__ = [
    "Fault",
    "FaultSchedule",
    "SimulatedCrash",
    "TORN_WRITE",
    "ENOSPC",
    "FAIL_FSYNC",
    "BIT_FLIP",
    "CRASH",
    "CRASH_BEFORE_RENAME",
    "CRASH_AFTER_RENAME",
    "TRUNCATE_CRASH",
    "CORRUPT",
]

TORN_WRITE = "torn_write"
ENOSPC = "enospc"
FAIL_FSYNC = "fail_fsync"
BIT_FLIP = "bit_flip"
CRASH = "crash"
CRASH_BEFORE_RENAME = "crash_before_rename"
CRASH_AFTER_RENAME = "crash_after_rename"
TRUNCATE_CRASH = "truncate_crash"
CORRUPT = "corrupt"

#: kinds that kill the simulated process when they fire
CRASH_KINDS = frozenset(
    {TORN_WRITE, CRASH, CRASH_BEFORE_RENAME, CRASH_AFTER_RENAME, TRUNCATE_CRASH}
)
#: kinds that plant silent corruption (recovery must *detect*, not serve)
CORRUPTING_KINDS = frozenset({BIT_FLIP, CORRUPT})


class SimulatedCrash(Exception):
    """A scheduled kill point was reached; the store must be abandoned.

    Deliberately an :class:`Exception` (not ``BaseException``) so
    ``finally`` blocks and ``writer.abort()``-style unwinding run -- their
    on-disk effects (closing handles, unlinking ``.tmp`` files) match what
    a real crash leaves behind closely enough for recovery testing, since
    recovery must ignore orphan temporaries anyway.
    """

    def __init__(self, fault: "Fault") -> None:
        super().__init__(f"simulated crash: {fault}")
        self.fault = fault


class Fault:
    """One scheduled injection: fire on the ``nth`` matching operation."""

    __slots__ = ("kind", "op", "nth", "path_part", "path_exclude", "arg", "fired_at")

    def __init__(
        self,
        kind: str,
        op: str,
        nth: int = 1,
        path_part: str | None = None,
        path_exclude: str | None = None,
        arg: float = 0.5,
    ) -> None:
        if nth < 1:
            raise ValueError("nth is 1-based; the first matching op is nth=1")
        self.kind = kind
        self.op = op
        self.nth = nth  # counts down; fires when it reaches zero
        self.path_part = path_part
        self.path_exclude = path_exclude
        #: kind-specific knob in [0, 1): torn-write keep fraction, bit/byte
        #: position selector for bit_flip/corrupt
        self.arg = arg
        self.fired_at: tuple[str, str] | None = None  # (op, path) that fired us

    def matches(self, op: str, path: str) -> bool:
        if self.op != op:
            return False
        if self.path_part is not None and self.path_part not in path:
            return False
        if self.path_exclude is not None and self.path_exclude in path:
            return False
        return True

    def __repr__(self) -> str:
        where = f" path~{self.path_part!r}" if self.path_part else ""
        return f"Fault({self.kind} at {self.op}#{self.nth}{where})"


class FaultSchedule:
    """Seeded, thread-safe dispenser of :class:`Fault` points.

    The schedule owns no I/O; :class:`~repro.faults.io.FaultyIO` calls
    :meth:`take` from every instrumented operation and applies whatever
    comes back.  ``take`` is one-shot per fault and the whole schedule
    halts after a crash-kind fault fires.
    """

    def __init__(self, faults: list[Fault] | tuple[Fault, ...] = (), seed: int | None = None) -> None:
        self.seed = seed
        self._faults = list(faults)
        self._lock = threading.Lock()
        self._halted = False
        #: faults that have fired, in firing order
        self.injected: list[Fault] = []
        #: per-op counts of instrumented operations seen (diagnostics)
        self.op_counts: dict[str, int] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_seed(cls, seed: int) -> "FaultSchedule":
        """Derive one fault deterministically from ``seed``.

        String seeding of :class:`random.Random` hashes with SHA-512, so
        the derivation is stable across processes and Python invocations
        (unlike tuple hashing, which ``PYTHONHASHSEED`` randomizes).
        """
        rng = random.Random(f"fault-schedule-{seed}")
        kind = rng.choice(
            (
                TORN_WRITE,
                TORN_WRITE,  # the most productive kind: weight it up
                ENOSPC,
                FAIL_FSYNC,
                BIT_FLIP,
                CRASH,
                CRASH_BEFORE_RENAME,
                CRASH_AFTER_RENAME,
            )
        )
        if kind in (TORN_WRITE, ENOSPC, BIT_FLIP):
            op = "write"
        elif kind == FAIL_FSYNC:
            op = "fsync"
        elif kind in (CRASH_BEFORE_RENAME, CRASH_AFTER_RENAME):
            op = "rename"
        else:  # generic crash: pick the op class to die in
            op = rng.choice(("write", "fsync", "rename", "close", "remove"))
        if op == "write":
            nth = rng.randint(1, 250)
        elif op == "fsync":
            nth = rng.randint(1, 12)
        else:
            nth = rng.randint(1, 15)
        fault = Fault(
            kind,
            op,
            nth=nth,
            # A flipped bit in the JSON manifest can change state without
            # tripping any checksum; real deployments would checksum the
            # manifest, here we scope silent flips to the CRC-covered files.
            path_exclude="MANIFEST" if kind == BIT_FLIP else None,
            arg=rng.random(),
        )
        return cls([fault], seed=seed)

    # -- consumption -------------------------------------------------------

    def take(self, op: str, path: str = "") -> Fault | None:
        """Count one ``op`` against the schedule; return a fault if due."""
        with self._lock:
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            if self._halted:
                return None
            for fault in self._faults:
                if fault.fired_at is None and fault.matches(op, path):
                    fault.nth -= 1
                    if fault.nth <= 0:
                        fault.fired_at = (op, path)
                        self.injected.append(fault)
                        if fault.kind in CRASH_KINDS:
                            self._halted = True
                        _bump_injected_total()
                        return fault
            return None

    @property
    def fired(self) -> bool:
        """Whether any fault has been injected yet."""
        with self._lock:
            return bool(self.injected)

    @property
    def halted(self) -> bool:
        """Whether a crash-kind fault has killed the simulated process."""
        with self._lock:
            return self._halted

    def __repr__(self) -> str:
        return (
            f"FaultSchedule(seed={self.seed}, faults={self._faults!r}, "
            f"injected={len(self.injected)})"
        )


# -- process-wide injection counter (exposed as repro_faults_injected_total) --

_injected_lock = threading.Lock()
_injected_total = 0


def _bump_injected_total() -> None:
    global _injected_total
    with _injected_lock:
        _injected_total += 1


def faults_injected_total() -> int:
    """Process-wide count of injected faults (all schedules, monotonic)."""
    with _injected_lock:
        return _injected_total


def _collect_fault_metrics() -> dict[str, float]:
    return {"repro_faults_injected_total": float(faults_injected_total())}


def _register_metrics() -> None:
    # Deferred import: repro.obs must stay importable without repro.faults.
    from repro.obs.registry import REGISTRY

    REGISTRY.register({"subsystem": "faults"}, _collect_fault_metrics)


_register_metrics()
