"""Ingest crash-replay harness: kill the tailer around a batch, prove convergence.

One :func:`run_ingest_replay` seed is a complete streaming crash cycle:

1. derive a deterministic interleaved event feed from the seed (integer
   timestamps keep the Count-table duration sums exact across groupings);
2. tail it into a fresh store (single or sharded, also seed-derived) with
   a :class:`~repro.ingest.ingester.TailIngester` and kill it at a seeded
   batch ordinal in one of three phases: *before the apply* (batch read but
   not indexed), *inside the apply* (``mid_apply``) or *after the apply but
   before the checkpoint* (the at-least-once window);
3. drop the store's file handles without flushing
   (:func:`~repro.faults.harness.simulate_crash` -- a process kill);
4. reopen everything and let a new ingester replay from the durable
   checkpoint to the end of the feed;
5. build the same feed in one clean batch ``update()`` into a second
   store and require the two indexes to be *logically identical*
   (:func:`~repro.ingest.convergence.index_snapshot`) -- same sequences,
   same decoded pair entries, same statistics, same tails.

A pre-checkpoint kill forces the replay to re-read an already-applied
batch, so this harness exercises exactly the dedup filter that makes the
checkpoint protocol at-least-once-safe; a pre-apply kill exercises the
plain resume path.  A ``mid_apply`` kill lands inside the crash batch's one
store write (an ``update()`` is one WAL frame), at one of the two points
that matter, also seed-chosen: a **torn frame** (the stores run on a
:class:`~repro.faults.io.FaultyIO` that tears the batch's WAL write at a
seeded byte -- recovery must see none of the batch), or a kill **after the
frame is written, partway through the memtable apply** (recovery must see
all of it, and the replay must dedup it).  A batch recovered in part would
leave ``Seq`` ahead of the Index and the replay filter, which trusts
``Seq``, would silently drop the events whose pairs were lost.  Any
divergence raises :class:`IngestReplayFailure` with the reproducer command
(``python -m repro faults --ingest --seed N``).
"""

from __future__ import annotations

import random
import shutil
import tempfile
from functools import partial
from pathlib import Path
from typing import Any

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.faults.harness import simulate_crash
from repro.faults.io import FaultyIO
from repro.faults.schedule import TORN_WRITE, Fault, FaultSchedule, SimulatedCrash
from repro.ingest.convergence import index_snapshot
from repro.ingest.feed import FeedWriter
from repro.ingest.ingester import EngineSink, TailIngester
from repro.kvstore.lsm import WAL_NAME, LSMStore
from repro.shard import ShardedSequenceIndex

__all__ = ["IngestReplayFailure", "generate_feed_events", "run_ingest_replay"]

_ACTIVITIES = ("login", "search", "add", "pay", "ship", "refund")
_PHASES = ("pre_apply", "mid_apply", "pre_checkpoint")
#: where a ``mid_apply`` kill lands inside the batch's one store write
_MID_APPLY_KILLS = ("torn_frame", "memtable_apply")


class IngestReplayFailure(AssertionError):
    """Replay after a crash did not converge to the clean batch build."""

    def __init__(self, seed: int, message: str, forced_phase: str | None = None) -> None:
        self.seed = seed
        reproducer = (
            f"python -m repro faults --ingest --seed {seed}"
            if forced_phase is None  # the seed's own phase: reachable from the CLI
            else f"repro.faults.run_ingest_replay({seed}, phase={forced_phase!r})"
        )
        super().__init__(f"seed {seed}: {message}\n  reproduce with: {reproducer}")


def generate_feed_events(seed: int, total: int | None = None) -> list[Event]:
    """Deterministic interleaved event stream for one seed.

    Traces interleave arbitrarily but each trace's timestamps strictly
    increase (the append-only order the index requires), and timestamps
    are integers so duration sums compare exactly across batch groupings.
    """
    rng = random.Random(f"ingest-feed-{seed}")
    if total is None:
        total = rng.randint(40, 120)
    num_traces = rng.randint(3, 8)
    clocks = {f"t{seed}-{i}": rng.randint(0, 5) for i in range(num_traces)}
    trace_ids = sorted(clocks)
    events: list[Event] = []
    for _ in range(total):
        trace_id = rng.choice(trace_ids)
        clocks[trace_id] += rng.randint(1, 4)
        events.append(
            Event(trace_id, rng.choice(_ACTIVITIES), float(clocks[trace_id]))
        )
    return events


def _open_engine(path: str, shards: int | None, io: FaultyIO | None = None) -> Any:
    store_factory = partial(LSMStore, io=io)
    if shards:
        return ShardedSequenceIndex.open(path, store_factory, num_shards=shards)
    return SequenceIndex(store_factory(path))


def _crash_engine(engine: Any) -> None:
    """Process-kill the engine: drop every underlying store's handles.

    Stores are left exactly as their last completed I/O left them.
    """
    for shard in engine.shards:
        simulate_crash(shard.store)


def _first_divergence(streamed: dict, clean: dict) -> str:
    for table in ("seq", "index", "count", "reverse_count", "last_checked"):
        left, right = streamed[table], clean[table]
        if left == right:
            continue
        keys = set(left) | set(right)
        for key in sorted(keys, key=repr):
            if left.get(key) != right.get(key):
                return (
                    f"table {table!r} diverges at {key!r}: "
                    f"streamed={left.get(key)!r} clean={right.get(key)!r}"
                )
        return f"table {table!r} diverges"
    return "snapshots differ"


def _kill_mid_memtable_apply(store: LSMStore, fraction: float) -> None:
    """Arm ``store`` to die inside its next write's memtable apply -- after
    the batch's WAL frame is written, with ``fraction`` of its records
    applied."""
    real_apply = store._apply_locked

    def apply(numbered: Any) -> bool:
        records = list(numbered)
        real_apply(records[: int(len(records) * fraction)])
        raise SimulatedCrash(f"ingest kill mid-apply, {len(records)} records logged")

    store._apply_locked = apply


def run_ingest_replay(
    seed: int,
    path: str | None = None,
    total_events: int | None = None,
    phase: str | None = None,
) -> dict[str, Any]:
    """Run one seed's kill/replay/converge cycle; returns a summary dict.

    ``phase`` is ``"pre_apply"``, ``"mid_apply"``, ``"pre_checkpoint"`` or
    ``None`` for the seed's own choice.  Raises
    :class:`IngestReplayFailure` when the replayed streaming index differs
    from the clean batch build.
    """
    if phase is not None and phase not in _PHASES:
        raise ValueError(f"unknown ingest kill phase {phase!r}")
    workdir = path or tempfile.mkdtemp(prefix=f"repro-ingest-{seed}-")
    try:
        return _run(seed, Path(workdir), total_events, phase)
    finally:
        if path is None:
            shutil.rmtree(workdir, ignore_errors=True)


def _run(
    seed: int, workdir: Path, total_events: int | None, phase: str | None
) -> dict[str, Any]:
    rng = random.Random(f"ingest-replay-{seed}")
    events = generate_feed_events(seed, total_events)
    batch_events = rng.choice((4, 8, 16))
    shards = rng.choice((None, None, 2))  # 1/3 of seeds run sharded
    partition = rng.choice(("", "", "audit"))
    total_batches = -(-len(events) // batch_events)
    crash_batch = rng.randrange(total_batches)
    seeded_phase = rng.choice(_PHASES)  # drawn even when overridden: same sweep
    forced_phase = phase if phase not in (None, seeded_phase) else None
    phase = phase or seeded_phase
    mid_apply_kill = rng.choice(_MID_APPLY_KILLS)
    kill_at = rng.random()  # torn-write keep fraction / share of records applied
    kill = f"{phase}/{mid_apply_kill}" if phase == "mid_apply" else phase

    feed_path = str(workdir / "events.jsonl")
    checkpoint_path = str(workdir / "ingest.checkpoint")
    stream_path = str(workdir / "stream-store")
    clean_path = str(workdir / "clean-store")

    with FeedWriter(feed_path) as writer:
        writer.append(events)

    # one shim for every shard: the first WAL write after arming is torn
    io = FaultyIO(FaultSchedule())

    def crash_hook(batch_no: int) -> None:
        if batch_no != crash_batch:
            return
        if phase != "mid_apply":
            raise SimulatedCrash(f"ingest kill at {phase} of batch {batch_no}")
        if mid_apply_kill == "torn_frame":
            io.schedule = FaultSchedule(
                [Fault(TORN_WRITE, "write", path_part=WAL_NAME, arg=kill_at)]
            )
        else:
            for shard in engine.shards:
                _kill_mid_memtable_apply(shard.store, kill_at)

    # -- phase 1: stream until the seeded kill ------------------------------------
    engine = _open_engine(stream_path, shards, io)
    ingester = TailIngester(
        feed_path,
        EngineSink(engine, partition=partition),
        checkpoint_path,
        batch_events=batch_events,
        name=f"ingest-replay-{seed}",
        pre_apply_hook=crash_hook if phase != "pre_checkpoint" else None,
        pre_checkpoint_hook=crash_hook if phase == "pre_checkpoint" else None,
    )
    try:
        ingester.drain()
    except SimulatedCrash:
        pass
    else:
        raise IngestReplayFailure(
            seed, f"scheduled kill at batch {crash_batch} never fired", forced_phase
        )
    finally:
        ingester.close()
    _crash_engine(engine)

    # -- phase 2: reopen and replay from the durable checkpoint -------------------
    engine = _open_engine(stream_path, shards)
    try:
        ingester = TailIngester(
            feed_path,
            EngineSink(engine, partition=partition),
            checkpoint_path,
            batch_events=batch_events,
            name=f"ingest-replay-{seed}-recovery",
        )
        try:
            stats = ingester.drain()
        finally:
            ingester.close()
        if stats.lag_bytes != 0:
            raise IngestReplayFailure(
                seed,
                f"replay left {stats.lag_bytes} bytes of feed unconsumed",
                forced_phase,
            )
        streamed = index_snapshot(engine)
    finally:
        engine.close()

    # -- phase 3: clean one-shot batch build over the same feed -------------------
    clean_engine = _open_engine(clean_path, shards)
    try:
        clean_engine.update(events, partition)
        clean = index_snapshot(clean_engine)
    finally:
        clean_engine.close()

    if streamed != clean:
        raise IngestReplayFailure(
            seed,
            f"replayed streaming index != clean batch build "
            f"(killed {kill} of batch {crash_batch}/{total_batches}, "
            f"batch_events={batch_events}, shards={shards or 1}): "
            + _first_divergence(streamed, clean),
            forced_phase,
        )

    return {
        "seed": seed,
        "phase": phase,
        "kill": kill,
        "crash_batch": crash_batch,
        "total_batches": total_batches,
        "batch_events": batch_events,
        "shards": shards or 1,
        "partition": partition,
        "events": len(events),
        "replayed": stats.events_read,
        "deduped": stats.events_deduped,
    }
