"""Durable ingest checkpoints: how far into the feed the index has consumed.

A checkpoint is one small JSON document, written atomically (temp file,
fsync, ``os.replace``) *after* the micro-batch it describes has been
applied to the index.  Crash ordering therefore only ever loses the
checkpoint, never runs ahead of the index: on restart the ingester re-reads
from the last persisted offset and the replay filter (``update(dedup=True)``
on the engine) discards the events the index already holds.  See
docs/INGEST.md for the full recovery argument.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

__all__ = ["Checkpoint", "load_checkpoint", "store_checkpoint"]

_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """Ingest progress: feed offset plus cumulative apply counters."""

    offset: int = 0
    batches: int = 0
    events: int = 0


def load_checkpoint(path: str) -> Checkpoint:
    """Load a checkpoint; a missing file means "start of the feed".

    Anything but a ``version: 1`` object with a non-negative integer
    ``offset`` (and counters, when present) is refused with ``ValueError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return Checkpoint()
    if isinstance(record, dict) and record.get("version") == _VERSION:
        counts = [record.get("offset"), record.get("batches", 0), record.get("events", 0)]
        if all(type(count) is int and count >= 0 for count in counts):
            return Checkpoint(*counts)
    raise ValueError(f"unsupported ingest checkpoint: {record!r}")


def store_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Persist ``checkpoint`` atomically (readers see old or new, never torn)."""
    record = {
        "version": _VERSION,
        "offset": checkpoint.offset,
        "batches": checkpoint.batches,
        "events": checkpoint.events,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
