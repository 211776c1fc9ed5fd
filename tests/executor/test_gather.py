"""The engine's gather: shard order, errors, deadlines and close.

``QueryEngine._gather`` runs ``task(shard)`` for every shard in the thread
that calls it.  Each test calls it on a real 2-shard engine either from the
test's own thread (``serial``) or from a fresh thread (``thread``), and checks
that every task ran in that calling thread.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import SequenceIndex
from repro.core.errors import DeadlineExceeded
from repro.core.model import EventLog
from repro.kvstore import StoreClosedError
from repro.shard import ShardedSequenceIndex

CALLER = pytest.mark.parametrize("caller", ("serial", "thread"))


def _two_shards() -> ShardedSequenceIndex:
    engine = ShardedSequenceIndex([SequenceIndex() for _ in range(2)])
    engine.update(EventLog.from_dict({f"t{i}": list("ABC") for i in range(8)}))
    assert all(shard.trace_ids() for shard in engine.shards)
    return engine


def _call(caller, fn, callers):
    """``fn()`` in the test's thread or in a fresh one, appending the calling
    thread's ident to ``callers``; returns its result or re-raises its error."""
    if caller == "serial":
        callers.append(threading.get_ident())
        return fn()
    outcome = {}

    def target():
        callers.append(threading.get_ident())
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # handed back to the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def _recording(task, ran):
    """``task`` that first appends ``(shard, thread ident)`` to ``ran``."""

    def recorded(shard):
        ran.append((shard, threading.get_ident()))
        return task(shard)

    return recorded


@CALLER
class TestGather:
    def test_results_preserve_order(self, caller):
        engine, callers, ran = _two_shards(), [], []
        try:
            task = _recording(lambda shard: shard.trace_ids(), ran)
            result = _call(caller, lambda: engine._gather(task, None), callers)
            assert result == [shard.trace_ids() for shard in engine.shards]
            assert ran == [(shard, callers[0]) for shard in engine.shards]
        finally:
            engine.close()

    def test_thunk_exception_propagates(self, caller):
        engine, callers, ran = _two_shards(), [], []
        try:

            def boom(shard):
                raise RuntimeError("shard exploded")

            with pytest.raises(RuntimeError, match="shard exploded"):
                _call(
                    caller, lambda: engine._gather(_recording(boom, ran), None), callers
                )
            # Shard 0 raised; shard 1 never started.
            assert ran == [(engine.shards[0], callers[0])]
        finally:
            engine.close()

    def test_deadline_in_the_past_raises(self, caller):
        engine, callers, ran = _two_shards(), [], []
        try:
            task = _recording(lambda shard: shard.trace_ids(), ran)
            with pytest.raises(DeadlineExceeded):
                _call(
                    caller,
                    lambda: engine._gather(task, time.monotonic() - 1.0),
                    callers,
                )
            assert ran == []
        finally:
            engine.close()

    def test_generous_deadline_returns_normally(self, caller):
        engine, callers, ran = _two_shards(), [], []
        try:
            task = _recording(lambda shard: len(shard.trace_ids()), ran)
            result = _call(
                caller,
                lambda: engine._gather(task, time.monotonic() + 30.0),
                callers,
            )
            assert sum(result) == 8 and all(result)
            assert ran == [(shard, callers[0]) for shard in engine.shards]
        finally:
            engine.close()


class TestPersistentPool:
    """The engine, which took over the gather from the executor's persistent
    pool, owns its lifecycle: closing it ends every later gather."""

    @CALLER
    def test_close_is_idempotent_and_final(self, caller):
        engine, callers = _two_shards(), []
        task = lambda shard: 1  # noqa: E731
        assert _call(caller, lambda: engine._gather(task, None), callers) == [1, 1]
        _call(caller, engine.close, callers)
        _call(caller, engine.close, callers)
        with pytest.raises(StoreClosedError):
            _call(caller, lambda: engine._gather(task, None), callers)
