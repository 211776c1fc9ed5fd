"""Slow-query log threshold, ring bound, and engine integration."""

from __future__ import annotations

import logging

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.obs.slowlog import SlowQueryLog


def _events(traces: int = 3) -> list[Event]:
    return [
        Event(trace_id=f"t{t}", activity=act, timestamp=float(i))
        for t in range(traces)
        for i, act in enumerate(["a", "b", "c"])
    ]


class TestSlowQueryLog:
    def test_records_only_at_or_above_threshold(self):
        log = SlowQueryLog(threshold_s=0.010)
        assert log.observe("query.detect", "fast", 0.009) is False
        assert log.observe("query.detect", "at", 0.010) is True
        assert log.observe("query.detect", "slow", 0.5) is True
        assert [e.detail for e in log.entries] == ["at", "slow"]
        assert log.stats() == {"observed": 3, "slow": 2, "retained": 2}

    def test_zero_threshold_records_everything(self):
        log = SlowQueryLog(threshold_s=0.0)
        assert log.observe("q", "d", 0.0) is True

    def test_ring_keeps_most_recent(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=2)
        for i in range(5):
            log.observe("q", f"d{i}", 1.0)
        assert [e.detail for e in log.entries] == ["d3", "d4"]
        assert log.stats()["slow"] == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=-1.0)
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=0.0, capacity=0)

    def test_logs_warning(self, caplog):
        log = SlowQueryLog(threshold_s=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            log.observe("query.detect", "pattern=['a']", 0.123)
        assert "slow query" in caplog.text
        assert "123.0ms" in caplog.text

    def test_clear(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.observe("q", "d", 1.0)
        log.clear()
        assert log.entries == []


class TestEngineIntegration:
    def test_threshold_zero_catches_every_query(self):
        with SequenceIndex(slow_query_threshold=0.0) as index:
            index.update(_events())
            index.detect(["a", "b", "c"])
            index.count(["a", "b"])
            entries = index.slow_queries()
        kinds = [e.query for e in entries]
        assert "query.detect" in kinds
        assert "query.count" in kinds

    def test_high_threshold_catches_nothing(self):
        with SequenceIndex(slow_query_threshold=100.0) as index:
            index.update(_events())
            index.detect(["a", "b", "c"])
            assert index.slow_queries() == []

    def test_disabled_by_default(self):
        with SequenceIndex() as index:
            index.update(_events())
            index.detect(["a", "b", "c"])
            assert index.slow_query_log is None
            assert index.slow_queries() == []

    def test_env_var_configures_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        with SequenceIndex() as index:
            index.update(_events())
            index.detect(["a", "b", "c"])
            assert index.slow_query_log is not None
            assert len(index.slow_queries()) >= 1

    def test_cache_hits_also_observed(self):
        with SequenceIndex(slow_query_threshold=0.0) as index:
            index.update(_events())
            index.detect(["a", "b", "c"])
            index.detect(["a", "b", "c"])  # row-cache hits
            assert index.slow_query_log.stats()["observed"] >= 2
