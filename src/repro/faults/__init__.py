"""Deterministic fault injection for the LSM durability path.

The subsystem has three layers:

* :mod:`repro.faults.schedule` -- :class:`FaultSchedule`: seeded, one-shot
  fault points (torn writes, failed fsyncs, ``ENOSPC``, bit flips, crashes
  around renames, a power cut that loses unsynced renames), fully reproducible from a single integer seed.
* :mod:`repro.faults.io` -- :class:`FaultyIO`: the filesystem shim the
  store, WAL and SSTable code route their durability-critical I/O through
  (production uses the pass-through :data:`REAL_IO`).
* :mod:`repro.faults.harness` -- :class:`CrashRecoveryHarness`: runs a
  seeded workload against an :class:`~repro.kvstore.lsm.LSMStore` under a
  fault schedule, kills the store at the scheduled point, reopens it and
  checks recovery against an in-memory oracle of acknowledged operations.
* :mod:`repro.faults.ingest` -- :func:`run_ingest_replay`: kills the
  streaming ingester mid-batch (before the apply, or between apply and
  checkpoint), replays from the durable checkpoint, and requires the
  recovered index to be logically identical to a clean batch build.

Replay any failing seed from the shell::

    python -m repro faults --seed 1234
    python -m repro faults --ingest --seed 1234
"""

from repro.faults.io import REAL_IO, FaultyIO, RealIO
from repro.faults.schedule import (
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
    SimulatedCrash,
    faults_injected_total,
)

__all__ = [
    "RealIO",
    "REAL_IO",
    "FaultyIO",
    "Fault",
    "FaultSchedule",
    "SimulatedCrash",
    "faults_injected_total",
    "TORN_WRITE",
    "ENOSPC",
    "FAIL_FSYNC",
    "BIT_FLIP",
    "CRASH",
    "CRASH_BEFORE_RENAME",
    "CRASH_AFTER_RENAME",
    "LOST_RENAME",
    "TRUNCATE_CRASH",
    "CORRUPT",
    # lazily re-exported from repro.faults.harness (see __getattr__)
    "CrashRecoveryHarness",
    "CrashRecoveryFailure",
    "run_seed",
    # lazily re-exported from repro.faults.ingest
    "IngestReplayFailure",
    "generate_feed_events",
    "run_ingest_replay",
]

_HARNESS_EXPORTS = {"CrashRecoveryHarness", "CrashRecoveryFailure", "run_seed"}
_INGEST_EXPORTS = {
    "IngestReplayFailure",
    "generate_feed_events",
    "run_ingest_replay",
}


def __getattr__(name: str):
    # The harnesses import repro.kvstore, which itself imports this package
    # for REAL_IO -- resolving them lazily keeps the import acyclic.
    if name in _HARNESS_EXPORTS:
        from repro.faults import harness

        return getattr(harness, name)
    if name in _INGEST_EXPORTS:
        from repro.faults import ingest

        return getattr(ingest, name)
    raise AttributeError(name)
