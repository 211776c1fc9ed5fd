"""``repro upgrade``: a store older code wrote is refused, rewritten once, and
then answers every query its fixture's ``make.py`` recorded.

Three stores older code wrote: ``tests/data/legacy_store`` (varint and
tuple Index rows, pair-keyed LastChecked rows, v1 SSTables),
``tests/data/leveled_store`` (a plain key-value store of the retired
leveled strategy) and ``tests/data/parent_store`` (current rows, a table
and a WAL, but no ``format`` in its MANIFEST).  Opening any of them writes
nothing; the upgrade is idempotent and survives a crash, or a power cut, at
any fsync or rename it makes.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.faults import FaultyIO, FaultSchedule
from repro.faults.schedule import (
    CRASH,
    CRASH_AFTER_RENAME,
    LOST_RENAME,
    Fault,
    SimulatedCrash,
)
from repro.kvstore import LSMStore, StoreFormatError
from repro.shard.index import ShardedSequenceIndex, write_manifest
from repro.upgrade import upgrade_store

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURES = ("legacy_store", "leveled_store", "parent_store")
ALPHABET = "ABCDE"


def _copy(tmp_path, name: str) -> str:
    path = str(tmp_path / name)
    shutil.copytree(os.path.join(DATA, name, "store"), path)
    return path


def _recorded(name: str) -> dict:
    with open(os.path.join(DATA, name, "events.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bytes(root: str) -> dict[str, bytes]:
    """Every file under ``root``, by relative path."""
    out = {}
    for folder, _, files in os.walk(root):
        for file in files:
            path = os.path.join(folder, file)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _answers(index) -> dict:
    pairs = [[a, b] for a in ALPHABET for b in ALPHABET]
    return {
        "detect": [index.detect(pair, partition=None) for pair in pairs],
        "triples": [index.count([a, b, "A"], partition=None) for a, b in pairs],
        "statistics": index.statistics(list(ALPHABET), all_pairs=True),
        "traces": {tid: index.get_trace(tid) for tid in index.trace_ids()},
    }


def _expected(name: str) -> dict:
    """What the fixture's ``make.py`` recorded: a scan of each table of the
    key-value fixture, the answers of an engine fed the events of the others."""
    doc = _recorded(name)
    if name == "leveled_store":
        return {table: {tuple(key): value for key, value in rows} for table, rows in doc.items()}
    oracle = SequenceIndex()
    oracle.tables.ensure_partition("p1")
    partitions = doc.get("partitions", [""] * 3)
    for batch, partition in zip(doc["batches"][:3], partitions):
        oracle.update([Event(*row) for row in batch], partition=partition)
    return _answers(oracle)


def _holds(name: str, path: str, expected: dict) -> None:
    with LSMStore(path) as store:
        store.verify()
        if name == "leveled_store":
            assert {table: dict(store.scan(table)) for table in expected} == expected
        else:
            assert _answers(SequenceIndex(store)) == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_an_old_store_is_refused_and_nothing_is_written(tmp_path, name):
    path = _copy(tmp_path, name)
    root = str(tmp_path / "sharded")
    write_manifest(root, 1)
    shutil.copytree(path, os.path.join(root, "shard-00"))
    before, sharded = _bytes(path), _bytes(root)
    names_the_command = f"run `repro upgrade --store {path}`"

    with pytest.raises(StoreFormatError, match=names_the_command):
        SequenceIndex(LSMStore(path))
    with pytest.raises(StoreFormatError, match="run `repro upgrade --store"):
        ShardedSequenceIndex.open(root, LSMStore)
    with pytest.raises(SystemExit, match=f"repro detect: .*{names_the_command}"):
        main(["detect", "--store", path, "A,B"])
    with pytest.raises(SystemExit, match=f"repro serve: .*{names_the_command}"):
        main(["serve", "--store", path, "--port", "0", "--duration", "0"])
    assert _bytes(path) == before
    assert _bytes(root) == sharded


@pytest.mark.parametrize("name", FIXTURES)
def test_the_upgrade_keeps_every_recorded_answer_and_runs_once(tmp_path, name):
    path = _copy(tmp_path, name)
    report = upgrade_store(path)
    assert not report.current and report.sstables_before >= 1
    expected = _expected(name)
    _holds(name, path, expected)
    with LSMStore(path) as store:
        assert [row["format_version"] for row in store.storage_stats()["sstables"]] == [2]
    after = _bytes(path)
    assert upgrade_store(path).current
    assert _bytes(path) == after  # a second run touches nothing


def test_a_sharded_root_is_upgraded_shard_by_shard(tmp_path, capsys):
    root = str(tmp_path / "sharded")
    write_manifest(root, 2)
    for shard in range(2):
        shutil.copytree(
            os.path.join(DATA, "parent_store", "store"), os.path.join(root, f"shard-{shard:02d}")
        )
    assert main(["upgrade", "--store", root]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        os.path.join(root, "shard-00"), os.path.join(root, "shard-01")
    ]
    with ShardedSequenceIndex.open(root, LSMStore) as sharded:
        assert sharded.num_shards == 2 and sharded.trace_ids()


def _crash_points(name: str, tmp_path) -> list[Fault]:
    """A crash at every fsync and rename the fixture's upgrade makes, one
    right after every rename, and a power cut that loses the renames no
    directory fsync has covered yet at every rename."""
    path = _copy(tmp_path / "count", name)
    schedule = FaultSchedule([])
    upgrade_store(path, io=FaultyIO(schedule))
    counts = schedule.op_counts
    points = [
        Fault(kind, op, nth)
        for op, kinds in (
            ("fsync", [CRASH]),
            ("fsync_dir", [CRASH]),
            ("rename", [CRASH, CRASH_AFTER_RENAME, LOST_RENAME]),
        )
        for kind in kinds
        for nth in range(1, counts[op] + 1)
    ]
    assert len(points) > 15
    return points


@pytest.mark.parametrize("name", FIXTURES)
def test_a_crash_anywhere_in_the_upgrade_leaves_a_store_a_rerun_upgrades(tmp_path, name):
    expected = _expected(name)
    outcomes = set()
    for i, fault in enumerate(_crash_points(name, tmp_path)):
        path = _copy(tmp_path / str(i), name)
        with pytest.raises(SimulatedCrash):
            upgrade_store(path, io=FaultyIO(FaultSchedule([fault])))
        try:
            LSMStore(path).close()
            outcomes.add("upgraded")
        except StoreFormatError:
            outcomes.add("refused")
            upgrade_store(path)
        _holds(name, path, expected)
    # the last commit is the one that records the format
    assert outcomes == {"refused", "upgraded"}
