"""One writer per store, enforced by the engine: concurrent ``update()`` callers
(ingester thread, service handlers, shard fan-out) serialize on
``SequenceIndex``'s own lock -- no caller holds one for it."""

from __future__ import annotations

import threading
import time

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.shard import ShardedSequenceIndex
from repro.shard.hashing import shard_for_trace
from tests.temp_store import TempStore


class _WindowStore(TempStore):
    """Records, per calling thread, when each slowed-down ``write`` ran."""

    def __init__(self):
        super().__init__()
        self.batches: list[tuple[int, float, float]] = []  # (thread, enter, exit)

    def write(self, ops):
        enter = time.monotonic()
        time.sleep(0.005)
        super().write(ops)
        self.batches.append((threading.get_ident(), enter, time.monotonic()))

    def windows(self) -> list[tuple[float, float]]:
        """``(first enter, last exit)`` per thread that wrote here, in time
        order: each thread below makes one ``update()`` per store."""
        stamps: dict[int, list[float]] = {}
        for thread, enter, exit_ in self.batches:
            stamps.setdefault(thread, []).extend((enter, exit_))
        return sorted((min(times), max(times)) for times in stamps.values())


def _serialized(windows: list[tuple[float, float]]) -> bool:
    return all(a[1] <= b[0] for a, b in zip(windows, windows[1:]))


def _trace(trace_id: str) -> list[Event]:
    return [Event(trace_id, activity, float(i)) for i, activity in enumerate("ABCD")]


def _update_concurrently(engine, batches) -> None:
    barrier = threading.Barrier(len(batches))

    def run(batch):
        barrier.wait(timeout=5)
        engine.update(batch)

    threads = [threading.Thread(target=run, args=(batch,)) for batch in batches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_concurrent_updates_on_one_engine_serialize():
    store = _WindowStore()
    with SequenceIndex(store) as engine:
        store.batches.clear()  # the meta row written on open
        _update_concurrently(engine, [_trace("t1"), _trace("t2"), _trace("t3")])
        assert len(store.windows()) == 3 and _serialized(store.windows())
        assert engine.write_generation == 3
        assert sorted(engine.trace_ids()) == ["t1", "t2", "t3"]


def test_shards_interleave_while_each_shard_serializes():
    on_shard = {0: [], 1: []}
    for n in range(32):
        on_shard[shard_for_trace(f"t{n}", 2)].append(f"t{n}")
    # Two batches, each touching both shards with its own traces.
    batches = [_trace(on_shard[0][k]) + _trace(on_shard[1][k]) for k in range(2)]
    stores = [_WindowStore(), _WindowStore()]
    # Each caller writes its sub-batches in its own thread, one shard after
    # the other: both callers can reach a shard at once, so only the shard's
    # own lock keeps them apart, while they overlap on different shards.
    with ShardedSequenceIndex([SequenceIndex(store) for store in stores]) as engine:
        for store in stores:
            store.batches.clear()
        _update_concurrently(engine, batches)
        assert [s.write_generation for s in engine.shards] == [2, 2]
    first, second = (store.windows() for store in stores)
    assert _serialized(first) and _serialized(second)
    assert any(a[0] < b[1] and b[0] < a[1] for a in first for b in second)
