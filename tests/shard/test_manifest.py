"""The SHARDS.json manifest: creation, detection, and reopen safety.

The manifest is what makes a sharded store self-describing -- reopening
with a different shard count would route traces to the wrong shard, so
the mismatch must be refused, and on-disk round trips must preserve the
full query surface.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import IndexStateError
from repro.core.model import EventLog
from repro.core.policies import Policy
from repro.executor import ParallelExecutor
from repro.kvstore import LSMStore, StoreClosedError
from repro.shard import (
    MANIFEST_NAME,
    ShardedSequenceIndex,
    is_sharded_store,
    read_manifest,
    shard_paths,
    write_manifest,
)


def _open(root, num_shards=None):
    return ShardedSequenceIndex.open(
        root, lambda path: LSMStore(path), num_shards=num_shards
    )


def test_write_read_roundtrip(tmp_path):
    root = tmp_path / "sx"
    write_manifest(root, 4)
    assert is_sharded_store(root)
    manifest = read_manifest(root)
    assert manifest["num_shards"] == 4
    assert manifest["hash"] == "crc32"


def test_plain_directory_is_not_sharded(tmp_path):
    assert not is_sharded_store(tmp_path)
    with LSMStore(str(tmp_path / "ix")) as store:
        store.create_table("seq")
        store.put("seq", "k", {"v": 1})
    assert not is_sharded_store(tmp_path / "ix")


def test_shard_paths_are_stable(tmp_path):
    paths = shard_paths(tmp_path, 3)
    assert [p.name for p in paths] == ["shard-00", "shard-01", "shard-02"]


def test_open_persists_and_reopens(tmp_path):
    root = tmp_path / "sx"
    log = EventLog.from_dict(
        {"t1": list("ABAB"), "t2": list("BAC"), "t3": list("AB")}
    )
    with _open(root, num_shards=3) as index:
        index.update(log)
        expected = [
            (m.trace_id, m.timestamps) for m in index.detect(["A", "B"])
        ]
        assert expected
    # Reopen without a shard count: the manifest supplies it.
    with _open(root) as index:
        assert index.num_shards == 3
        got = [(m.trace_id, m.timestamps) for m in index.detect(["A", "B"])]
        assert got == expected


def test_reopen_with_wrong_count_is_refused(tmp_path):
    root = tmp_path / "sx"
    with _open(root, num_shards=2):
        pass
    with pytest.raises(ValueError, match="resharding"):
        _open(root, num_shards=4)


def test_new_store_requires_count(tmp_path):
    with pytest.raises(ValueError, match="num_shards"):
        _open(tmp_path / "fresh")


def test_corrupt_manifest_is_refused(tmp_path):
    root = tmp_path / "sx"
    write_manifest(root, 2)
    manifest_path = root / MANIFEST_NAME
    payload = json.loads(manifest_path.read_text())
    payload["hash"] = "md5"
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        read_manifest(root)


def test_open_accepts_the_serial_executor_stub_and_nothing_else(tmp_path):
    root = tmp_path / "sx"
    with ShardedSequenceIndex.open(
        root, LSMStore, num_shards=2, executor=ParallelExecutor.serial()
    ) as index:
        index.update(EventLog.from_dict({"t1": list("AB"), "t2": list("AB")}))
        assert index.count(["A", "B"]) == 2
    fresh = tmp_path / "fresh"
    with pytest.raises(TypeError, match="executor"):
        ShardedSequenceIndex.open(fresh, LSMStore, num_shards=2, executor=object())
    assert not is_sharded_store(fresh)


def test_a_failed_open_closes_the_stores_it_opened(tmp_path):
    root = tmp_path / "sx"
    with _open(root, num_shards=2) as index:  # built with Policy.STNM
        index.update(EventLog.from_dict({"t1": list("AB"), "t2": list("BA")}))
    opened = []

    def recording_factory(path):
        opened.append(LSMStore(path))
        return opened[-1]

    with pytest.raises(IndexStateError):
        ShardedSequenceIndex.open(root, recording_factory, policy=Policy.SC)
    assert opened
    for store in opened:
        with pytest.raises(StoreClosedError):
            store.get("seq", "t1")
