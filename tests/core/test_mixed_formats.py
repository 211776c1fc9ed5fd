"""Stores older code wrote, holding every retired layout: ``repro upgrade``
rewrites them once, and only then do they open.

Two sources of older-format rows: a store directory written by the last
commit that had the varint *encoder* (``tests/data/legacy_store``, see its
``make.py``), and in-test writers that merge legacy tuples, varint and
dictionary chunks, generic Seq lists and pair-keyed LastChecked rows into a
store whose MANIFEST records no format.  Either way the store is upgraded,
then appended to with current code, flushed and compacted, and every answer
is held to a default engine fed the same events by current code
alone.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.postings as postings_module
import repro.kvstore.merge as merge_module
from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.pattern import Pattern
from repro.core.tables import LAST_CHECKED, IndexTables, _index_table
from repro.ingest.convergence import index_snapshot
from repro.kvstore import LSMStore, StoreFormatError
from repro.kvstore.encoding import decode_value
from repro.upgrade import LegacyTableSet, encode_postings, upgrade_store

from .legacy_codec import encode_varint_postings

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "legacy_store")
ALPHABET = "ABCDE"
COMPOSITES = [
    Pattern.of("A", "!C", "B"),
    Pattern.of("(A|B)", "D"),
    Pattern.of("B+", "E", within=120),
    Pattern.of("C", "A", "!E"),
    Pattern.of("A", "B", "C", within=60),
]


def _answers(index) -> dict:
    """Every query class over a small alphabet, plus the canonical snapshot."""
    out: dict = {"snapshot": index_snapshot(index)}
    sequences = [
        list(p)
        for n in (1, 2, 3)
        for p in itertools.product(ALPHABET, repeat=n)
    ]
    for partition in ("", None, "p1"):
        for pattern in sequences:
            if len(pattern) == 3 and partition == "p1":
                continue
            key = (tuple(pattern), partition)
            out["detect", key] = index.detect(pattern, partition=partition)
            out["count", key] = index.count(pattern, partition=partition)
            out["contains", key] = index.contains(pattern, partition=partition)
        for pattern in COMPOSITES:
            key = (pattern, partition)
            out["detect", key] = index.detect(pattern, partition=partition)
            out["count", key] = index.count(pattern, partition=partition)
            out["contains", key] = index.contains(pattern, partition=partition)
    out["within"] = index.detect(["A", "B"], within=30)
    out["stam"] = index.detect(["A", "B", "A"], policy=index.policy.__class__.STAM)
    out["statistics"] = index.statistics(["A", "B", "C"], all_pairs=True)
    out["continuations"] = index.continuations(["A", "B"], mode="accurate")
    out["traces"] = {tid: index.get_trace(tid) for tid in index.trace_ids()}
    return out


def _load_fixture():
    with open(os.path.join(FIXTURE, "events.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    batches = [[Event(*row) for row in batch] for batch in doc["batches"]]
    return batches, doc["partitions"]


def _oracle(batches, partitions, upto: int) -> SequenceIndex:
    oracle = SequenceIndex()
    oracle.tables.ensure_partition("p1")  # queried even before a batch lands in it
    for batch, partition in zip(batches[:upto], partitions):
        oracle.update(batch, partition=partition)
    return oracle


def _formats(index) -> dict[str, set[str]]:
    """Storage formats present in each list table."""
    return {table: set(by) for table, by in index.tables.format_stats().items()}


def _sstable_versions(index) -> list[int]:
    return [row["format_version"] for row in index.store.storage_stats()["sstables"]]


def _upgraded_fixture(tmp_path) -> str:
    """A copy of the legacy store, upgraded."""
    path = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURE, "store"), path)
    upgrade_store(path)
    return path


def test_store_written_by_the_parent_commit(tmp_path):
    batches, partitions = _load_fixture()
    path = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURE, "store"), path)
    with pytest.raises(StoreFormatError, match="repro upgrade"):
        LSMStore(path)

    report = upgrade_store(path)
    assert (report.index_rows, report.traces_numbered, report.last_checked_folded) == (32, 10, 25)
    index = SequenceIndex(LSMStore(path, auto_compact=False))
    assert _sstable_versions(index) == [2]  # one table, rewritten as v2
    assert _formats(index) == {
        "seq": {"plain"},
        # raw: a batch mixing the int-stamped traces with the float-stamped ones
        "index": {"columnar", "raw"},
        "index:p1": {"columnar", "raw"},
    }
    assert _answers(index) == _answers(_oracle(batches, partitions, 3))
    index.store.verify()

    # append with current code
    index.update(batches[3], partition=partitions[3])
    expected = _answers(_oracle(batches, partitions, 4))
    assert _answers(index) == expected
    assert _formats(index)["seq"] == {"plain", "columnar"}
    before = index.tables.format_stats()
    index.flush()
    assert _sstable_versions(index) == [2, 2]
    assert _answers(index) == expected
    index.store.compact_all()
    assert _sstable_versions(index) == [2]
    assert _answers(index) == expected
    # compaction splices list values: it moves no row between formats
    assert index.tables.format_stats() == before
    index.store.verify()
    index.close()

    reopened = SequenceIndex(LSMStore(path))
    assert _answers(reopened) == expected
    reopened.close()


# -- in-test writers of the older formats ----------------------------------------


class _OldStore(LSMStore):
    """A store whose MANIFEST records no format: one older code wrote."""

    tableset_type = LegacyTableSet


def _write_as(index: SequenceIndex, fmt: str) -> None:
    """Make ``index`` write Index rows as ``fmt``, Seq rows as generic lists
    and LastChecked rows keyed by the pair -- through the tables' one
    write, so still one batch per update."""
    tables = index.tables

    def append_index(pair, columns, partition=""):
        numbers, ts_a, ts_b = columns
        entries = list(zip(tables.trace_names(numbers), ts_a, ts_b))
        if fmt == "tuples":
            delta = entries
        elif fmt == "varint":
            delta = [encode_varint_postings(entries)]
        else:
            delta = [encode_postings(entries)]
        tables.write("merge", _index_table(partition), pair, delta)

    def add_last_completions(first, completions):
        for second, ts in completions.items():
            tables.write("merge", LAST_CHECKED, (first, second), {"a-trace": ts})

    tables.append_index = append_index
    tables.append_sequence = lambda trace_id, events: tables.write(
        "merge", "seq", trace_id, events
    )
    tables.add_last_completions = add_last_completions


_trace_events = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.integers(1, 30)), min_size=1, max_size=10
)
_logs = st.lists(_trace_events, min_size=1, max_size=6)


def _batches(log, cuts) -> list[list[Event]]:
    """``log`` as four batches: trace ``i`` is cut at three sorted points."""
    batches: list[list[Event]] = [[], [], [], []]
    for i, (steps, points) in enumerate(zip(log, cuts)):
        clock = 0
        bounds = sorted(min(p, len(steps)) for p in points)
        for j, (activity, gap) in enumerate(steps):
            clock += gap
            phase = sum(j >= b for b in bounds)
            batches[phase].append(Event(f"t{i}", activity, clock))
    return batches


@given(
    log=_logs,
    cuts=st.lists(st.tuples(*[st.integers(0, 10)] * 3), min_size=6, max_size=6),
    formats=st.permutations(["tuples", "varint", "dictionary", "columnar"]),
    float_stamps=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_any_mix_of_formats_equals_the_oracle(
    tmp_path_factory, log, cuts, formats, float_stamps
):
    batches = _batches(log, cuts)
    if float_stamps:
        for batch in batches:
            for event in batch:
                event.timestamp = float(event.timestamp)
    path = str(tmp_path_factory.mktemp("mixed"))
    oracle = SequenceIndex()
    oracle.tables.ensure_partition("p1")
    for batch, fmt in zip(batches, formats):
        index = SequenceIndex(_OldStore(path, auto_compact=False))
        index.tables.ensure_partition("p1")
        if fmt != "columnar":
            _write_as(index, fmt)
        index.update(batch)
        oracle.update(batch)
        index.close()  # one SSTable per format
    with pytest.raises(StoreFormatError):
        LSMStore(path)
    upgrade_store(path)
    index = SequenceIndex(LSMStore(path))
    expected = _answers(oracle)
    assert _answers(index) == expected
    assert set().union(*_formats(index).values()) <= {"columnar", "raw", "plain"}
    assert all(len(key) == 1 for key, _ in index.store.scan(LAST_CHECKED))
    index.close()
    shutil.rmtree(path)


# -- what the read path may touch ---------------------------------------------------


def test_composite_detect_decodes_no_element_and_reads_seq_once(tmp_path, monkeypatch):
    """Over a store of columnar rows, a composite ``detect`` hands the generic
    value codec nothing but list frames around whole chunks, and fetches every
    candidate sequence with one Seq ``multi_get``."""
    # int stamps throughout (no batch needs the RAW fallback), applied as one
    # batch (a single-event Seq batch would stay a plain item)
    events = [
        Event(e.trace_id, e.activity, int(e.timestamp))
        for batch in _load_fixture()[0]
        for e in batch
    ]
    batches = [events]
    store = LSMStore(str(tmp_path / "store"))
    index = SequenceIndex(store)
    index.update(events)
    index.flush()
    assert _formats(index) == {"seq": {"columnar"}, "index": {"columnar"}}

    decoded = []
    reads = []

    def recording_decode(buf):
        value = decode_value(buf)
        decoded.append(value)
        return value

    def no_raw_chunks(buf):
        raise AssertionError("a RAW chunk went through the generic codec")

    real_multi_get = store.multi_get
    real_get = store.get
    monkeypatch.setattr(merge_module, "decode_value", recording_decode)
    monkeypatch.setattr(postings_module, "decode_value", no_raw_chunks)
    monkeypatch.setattr(
        store, "multi_get",
        lambda table, keys, default=None: (
            reads.append(("multi_get", table)) or real_multi_get(table, keys, default)
        ),
    )
    monkeypatch.setattr(
        store, "get",
        lambda table, key, default=None: (
            reads.append(("get", table)) or real_get(table, key, default)
        ),
    )
    pattern = Pattern.of("A", "!C", "(B|D)")
    matches = index.detect(pattern)
    monkeypatch.undo()

    assert len({m.trace_id for m in matches}) > 1
    assert matches == _oracle(batches, [""], 1).detect(pattern)
    assert reads.count(("multi_get", "seq")) == 1
    assert not [read for read in reads if read[0] == "get"]
    rows = [value for value in decoded if isinstance(value, list)]
    assert rows  # Index and Seq rows did come off disk
    for row in rows:  # ...as frames holding chunks, never an element
        assert row and all(type(item) is bytes for item in row)
    # everything else the codec saw is a Count document
    assert all(isinstance(value, (list, dict)) for value in decoded)


def test_tables_are_the_only_seam(tmp_path):
    """``iter_index``/``iter_sequences``/``iter_last_completions`` of an
    upgraded store equal those of one current code wrote."""
    batches, partitions = _load_fixture()
    old = IndexTables(LSMStore(_upgraded_fixture(tmp_path)))
    new = _oracle(batches, partitions, 3).tables
    assert dict(old.iter_sequences()) == dict(new.iter_sequences())
    assert {
        (partition, pair): sorted(postings.rows())
        for partition, pair, postings in old.iter_index()
    } == {
        (partition, pair): sorted(postings.rows())
        for partition, pair, postings in new.iter_index()
    }
    assert dict(old.iter_last_completions()) == dict(new.iter_last_completions())
    old.store.close()
