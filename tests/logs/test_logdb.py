"""Log database and periodic indexing pipeline."""

from __future__ import annotations

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.policies import Policy
from repro.kvstore import LSMStore
from repro.logs.logdb import IndexingPipeline, LogDatabase


@pytest.fixture
def db(tmp_path):
    return LogDatabase(str(tmp_path / "logdb"))


def _events(trace_id, start, activities):
    return [
        Event(trace_id, activity, start + i) for i, activity in enumerate(activities)
    ]


class TestLogDatabase:
    def test_append_and_iterate(self, db):
        assert db.append(_events("t1", 0, "AB")) == 2
        db.append(_events("t2", 0, "C"))
        events = list(db)
        assert [(e.trace_id, e.activity, e.timestamp) for e in events] == [
            ("t1", "A", 0.0),
            ("t1", "B", 1.0),
            ("t2", "C", 0.0),
        ]

    def test_requires_timestamps(self, db):
        with pytest.raises(ValueError):
            db.append([Event("t", "A", None)])

    def test_checkpoint_tracks_unindexed(self, db):
        db.append(_events("t", 0, "AB"))
        events, offset = db.unindexed_events()
        assert len(events) == 2 and offset == db.size_bytes
        db.mark_indexed(offset)
        assert db.unindexed_events() == ([], offset)
        db.append(_events("t", 10, "C"))
        unindexed, _ = db.unindexed_events()
        assert [e.activity for e in unindexed] == ["C"]

    def test_checkpoint_survives_reopen(self, db, tmp_path):
        db.append(_events("t", 0, "AB"))
        db.mark_indexed(db.unindexed_events()[1])
        db.append(_events("t", 10, "C"))
        reopened = LogDatabase(str(tmp_path / "logdb"))
        assert [e.activity for e in reopened.unindexed_events()[0]] == ["C"]

    def test_empty_database(self, db):
        assert list(db) == []
        assert db.unindexed_events() == ([], db.size_bytes)
        assert db.size_bytes > 0  # header row


class TestPipeline:
    def test_tick_indexes_and_checkpoints(self, db):
        index = SequenceIndex(policy=Policy.STNM)
        pipeline = IndexingPipeline(db, index)
        db.append(_events("t", 0, "AB"))
        stats = pipeline.run_once()
        assert stats.events_indexed == 2
        assert index.detect(["A", "B"])
        assert pipeline.run_once().events_indexed == 0  # nothing new

    def test_incremental_ticks_equal_batch(self, db):
        index = SequenceIndex(policy=Policy.STNM)
        pipeline = IndexingPipeline(db, index)
        db.append(_events("t", 0, "ABC"))
        pipeline.run_once()
        db.append(_events("t", 10, "AB"))
        pipeline.run_once()
        reference = SequenceIndex(policy=Policy.STNM)
        reference.update(list(db))
        for pair in (("A", "B"), ("B", "C"), ("C", "A")):
            assert index.tables.get_index(pair) == reference.tables.get_index(pair)

    def test_crash_replay_is_idempotent(self, db):
        index = SequenceIndex(policy=Policy.STNM)
        pipeline = IndexingPipeline(db, index)
        db.append(_events("t", 0, "AB"))
        pipeline.run_once()
        # Simulate "indexed but checkpoint write lost": reset checkpoint.
        import os

        os.remove(db._checkpoint_path)
        stats = pipeline.run_once()  # replays the same events
        assert stats.events_indexed == 0
        assert index.tables.get_index(("A", "B")) == [("t", 0.0, 1.0)]

    def test_events_appended_during_a_tick_wait_for_the_next(self, db, monkeypatch):
        # The checkpoint moves to where the tick's read ended, not to
        # wherever the file ends once the batch is indexed.
        index = SequenceIndex(policy=Policy.STNM)
        pipeline = IndexingPipeline(db, index)
        db.append(_events("t1", 1, "AB"))
        real_update = index.update

        def update_while_a_producer_appends(*args, **kwargs):
            db.append([Event("t1", "C", 3.0)])
            monkeypatch.undo()
            return real_update(*args, **kwargs)

        monkeypatch.setattr(index, "update", update_while_a_producer_appends)
        assert pipeline.run_once().events_read == 2
        assert [activity for activity, _ in index.get_trace("t1")] == ["A", "B"]
        stats = pipeline.run_once()
        assert (stats.events_read, stats.events_indexed) == (1, 1)
        assert stats.checkpoint == db.size_bytes
        assert [activity for activity, _ in index.get_trace("t1")] == ["A", "B", "C"]

    def test_torn_last_row_is_left_for_the_next_tick(self, db):
        index = SequenceIndex(policy=Policy.STNM)
        pipeline = IndexingPipeline(db, index)
        db.append(_events("t1", 1, "AB"))
        whole = db.size_bytes
        with open(db._events_path, "a", encoding="utf-8", newline="") as fh:
            fh.write("t1,C,3")  # a producer mid-write: no row terminator yet
        stats = pipeline.run_once()
        assert (stats.events_read, stats.checkpoint) == (2, whole)
        assert pipeline.run_once().events_read == 0
        with open(db._events_path, "a", encoding="utf-8", newline="") as fh:
            fh.write(".5\r\n")
        assert pipeline.run_once().events_indexed == 1
        assert index.get_trace("t1")[-1] == ("C", 3.5)

    def test_partition_routing(self, db):
        index = SequenceIndex(policy=Policy.STNM)
        pipeline = IndexingPipeline(
            db, index, partition_fn=lambda e: "early" if e.timestamp < 10 else "late"
        )
        db.append(_events("jan", 0, "AB") + _events("feb", 100, "AB"))
        pipeline.run_once()
        early = index.detect(["A", "B"], partition="early")
        late = index.detect(["A", "B"], partition="late")
        assert {m.trace_id for m in early} == {"jan"}
        assert {m.trace_id for m in late} == {"feb"}

    def test_durable_end_to_end(self, db, tmp_path):
        store_dir = str(tmp_path / "ix")
        with SequenceIndex(LSMStore(store_dir)) as index:
            pipeline = IndexingPipeline(db, index)
            db.append(_events("t", 0, "ABAB"))
            pipeline.run_once()
        with SequenceIndex(LSMStore(store_dir)) as index:
            assert index.count(["A", "B"]) == 2
