"""Concurrency hammer tests for the serving layer.

N writer threads mutate disjoint put/delete keys plus overlapping merge
keys while M reader threads continuously get/scan and check invariants
(torn values, out-of-order merge deltas, inconsistent scans).  At the end
the store must agree exactly with a dict model maintained alongside the
writes.

The quick variants run in the default suite; the big ones are gated behind
``pytest -m stress``.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.kvstore import LSMStore

KEYSPACE = 16  # per-writer put/delete key slots
SHARED = 8  # shared merge-key slots


def _hammer(store, *, writers, readers, ops_per_writer, seed=0):
    """Run the hammer; returns (model, appended_tags) for final validation."""
    store.create_table("kv")
    store.create_table("log", merge_operator="list_append")

    model: dict = {}
    model_lock = threading.Lock()
    appended = {wid: [] for wid in range(writers)}
    errors: list[BaseException] = []
    stop_readers = threading.Event()

    def writer(wid: int) -> None:
        rng = random.Random(seed * 1000 + wid)
        try:
            for i in range(ops_per_writer):
                roll = rng.random()
                key = ("w", wid, rng.randrange(KEYSPACE))
                if roll < 0.55:
                    # Value is self-describing: [owner, op#]; readers use
                    # the owner field to detect torn/misplaced values.
                    value = [wid, i]
                    store.put("kv", key, value)
                    with model_lock:
                        model[key] = value
                elif roll < 0.75:
                    store.delete("kv", key)
                    with model_lock:
                        model.pop(key, None)
                else:
                    tag = [wid, i]
                    store.merge("log", ("shared", rng.randrange(SHARED)), [tag])
                    appended[wid].append(tag)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    def reader(rid: int) -> None:
        rng = random.Random(seed * 7777 + rid)
        try:
            while not stop_readers.is_set():
                roll = rng.random()
                if roll < 0.5:
                    wid = rng.randrange(writers)
                    value = store.get("kv", ("w", wid, rng.randrange(KEYSPACE)))
                    if value is not None:
                        assert value[0] == wid, f"torn read: {value!r}"
                elif roll < 0.8:
                    merged = store.get("log", ("shared", rng.randrange(SHARED)))
                    if merged is not None:
                        _assert_writer_order(merged)
                else:
                    for key, value in store.scan("kv"):
                        assert value[0] == key[1], f"scan mismatch at {key!r}"
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    writer_threads = [
        threading.Thread(target=writer, args=(wid,)) for wid in range(writers)
    ]
    reader_threads = [
        threading.Thread(target=reader, args=(rid,)) for rid in range(readers)
    ]
    for thread in writer_threads + reader_threads:
        thread.start()
    for thread in writer_threads:
        thread.join()
    stop_readers.set()
    for thread in reader_threads:
        thread.join()
    assert not errors, f"worker errors: {errors[:3]}"
    return model, appended


def _assert_writer_order(merged: list) -> None:
    """Each writer's tags must appear in its own append order."""
    last: dict = {}
    for tag in merged:
        wid, op = tag
        assert last.get(wid, -1) < op, f"reordered deltas for writer {wid}"
        last[wid] = op


def _check_final_state(store, model: dict, appended: dict) -> None:
    store.flush()
    assert dict(store.scan("kv")) == model
    merged_tags = []
    for slot in range(SHARED):
        merged = store.get("log", ("shared", slot))
        if merged is not None:
            _assert_writer_order(merged)
            merged_tags.extend(tuple(tag) for tag in merged)
    expected = sorted(
        tuple(tag) for tags in appended.values() for tag in tags
    )
    assert sorted(merged_tags) == expected


def _lsm(tmp_path) -> LSMStore:
    # Tiny flush threshold + eager compaction so the hammer constantly
    # exercises seal/flush/compact interleavings, not just the memtable.
    return LSMStore(
        str(tmp_path / "store"), memtable_flush_bytes=2000, compaction_min_tables=2
    )


def test_hammer_lsm_quick(tmp_path):
    store = _lsm(tmp_path)
    model, appended = _hammer(
        store, writers=4, readers=2, ops_per_writer=150, seed=1
    )
    _check_final_state(store, model, appended)
    store.close()
    # Durability: a reopen must replay to exactly the same state.
    with LSMStore(str(tmp_path / "store")) as reopened:
        assert dict(reopened.scan("kv")) == model


@pytest.mark.stress
def test_hammer_lsm_stress(tmp_path):
    store = _lsm(tmp_path)
    model, appended = _hammer(
        store, writers=8, readers=4, ops_per_writer=1200, seed=3
    )
    _check_final_state(store, model, appended)
    metrics = store.metrics.snapshot()
    assert metrics["flushes"] > 0
    store.close()
    with LSMStore(str(tmp_path / "store")) as reopened:
        assert dict(reopened.scan("kv")) == model
