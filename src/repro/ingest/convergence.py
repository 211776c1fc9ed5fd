"""Canonical index snapshots: proving two build paths reached the same state.

Micro-batched streaming ingest applies the same events as one big batch
``update()``, but in different batch groupings -- so the *byte* layout of
an Index row can differ (entries from different traces interleave in batch
order, and the postings codec chunks per batch) while the *logical* index
is identical.  :func:`index_snapshot` canonicalizes away exactly that
freedom and nothing else:

* ``Seq`` rows are per-trace and append-ordered -- compared verbatim;
* ``Index`` rows are compared as the *sorted* set of decoded
  ``(trace, ts_a, ts_b)`` entries per (partition, pair) -- batch grouping
  only permutes entry order across traces, never the entries themselves;
* ``Count``/``ReverseCount`` durations and completion counts and the
  per-pair ``LastChecked`` last completions are order-insensitive
  sums/maxima -- compared verbatim.

Works over a single-store engine or a sharded coordinator (shard snapshots
merge; traces are disjoint across shards).  The ingest crash-replay
harness (:mod:`repro.faults.ingest`) asserts snapshot equality between a
killed-and-replayed streaming build and a clean batch build.
"""

from __future__ import annotations

from typing import Any

__all__ = ["index_snapshot"]


def index_snapshot(engine: Any) -> dict[str, Any]:
    """Canonical logical contents of an engine's index tables.

    ``engine`` is any :class:`~repro.core.engine.QueryEngine` (a single
    store is its own only shard); snapshots of engines holding the same
    logical index compare equal regardless of batch grouping, chunk format,
    compression or shard count.
    """
    seq: dict[str, tuple] = {}
    index: dict[tuple[str, tuple[str, str]], list] = {}
    counts: dict[tuple[str, str], list[float]] = {}
    reverse: dict[tuple[str, str], list[float]] = {}
    checked: dict[tuple[str, str], float] = {}
    for shard in engine.shards:
        store = shard.store
        for trace_id, (activities, stamps) in shard.tables.iter_sequences():
            seq[trace_id] = tuple(zip(activities, stamps))
        for partition, pair, postings in shard.tables.iter_index():
            index.setdefault((partition, pair), []).extend(postings.rows())
        for key, per_second in store.scan("count"):
            for second, (duration, completions) in per_second.items():
                slot = counts.setdefault((key[0], second), [0.0, 0])
                slot[0] += duration
                slot[1] += int(completions)
        for key, per_first in store.scan("reverse_count"):
            for first, (duration, completions) in per_first.items():
                slot = reverse.setdefault((first, key[0]), [0.0, 0])
                slot[0] += duration
                slot[1] += int(completions)
        for pair, latest in shard.tables.iter_last_completions():
            checked[pair] = max(latest, checked.get(pair, latest))
    return {
        "seq": seq,
        "index": {
            key: tuple(sorted(entries)) for key, entries in index.items()
        },
        "count": {key: tuple(slot) for key, slot in counts.items()},
        "reverse_count": {key: tuple(slot) for key, slot in reverse.items()},
        "last_checked": checked,
    }
