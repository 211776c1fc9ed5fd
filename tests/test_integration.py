"""End-to-end integration: all systems over a generated process log."""

from __future__ import annotations

import pytest

from repro.baselines import ElasticIndex, SaseEngine, SuffixArrayMatcher
from repro.core.engine import SequenceIndex
from repro.core.policies import Policy
from repro.kvstore import LSMStore
from repro.logs.generator import random_patterns
from repro.logs.process_generator import generate_process_log


@pytest.fixture(scope="module")
def process_log():
    return generate_process_log(num_traces=120, num_activities=15, seed=42)


@pytest.fixture(scope="module")
def stnm_index(process_log):
    index = SequenceIndex(policy=Policy.STNM)
    index.update(process_log)
    return index


@pytest.fixture(scope="module")
def sc_index(process_log):
    index = SequenceIndex(policy=Policy.SC)
    index.update(process_log)
    return index


class TestCrossSystemAgreement:
    def test_sc_trace_sets_match_suffix_and_sase(self, process_log, sc_index):
        matcher = SuffixArrayMatcher(process_log)
        sase = SaseEngine(process_log)
        for pattern in random_patterns(process_log, 2, 15, seed=1):
            ours = set(sc_index.contains(pattern))
            suffix = set(matcher.contains(pattern))
            cep = set(sase.contains(pattern, strategy=Policy.SC))
            assert ours == suffix == cep, pattern

    def test_sc_match_positions_match_suffix(self, process_log, sc_index):
        matcher = SuffixArrayMatcher(process_log)
        for pattern in random_patterns(process_log, 3, 10, seed=2):
            ours = sorted(
                (m.trace_id, m.timestamps) for m in sc_index.detect(pattern)
            )
            suffix = sorted(
                (m.trace_id, m.timestamps) for m in matcher.detect(pattern)
            )
            assert ours == suffix, pattern

    def test_length2_stnm_everyone_agrees(self, process_log, stnm_index):
        elastic = ElasticIndex.from_log(process_log)
        sase = SaseEngine(process_log)
        for pattern in random_patterns(process_log, 2, 15, seed=3):
            ours = sorted(
                (m.trace_id, m.timestamps) for m in stnm_index.detect(pattern)
            )
            spans = sorted(
                (m.trace_id, m.timestamps) for m in elastic.span_search(pattern)
            )
            cep = sorted((m.trace_id, m.timestamps) for m in sase.query(pattern))
            assert ours == spans == cep, pattern

    def test_long_stnm_ours_within_elastic_trace_sets(self, process_log, stnm_index):
        """Our chained detections only fire in traces the span query finds."""
        elastic = ElasticIndex.from_log(process_log)
        for pattern in random_patterns(process_log, 4, 10, seed=4):
            ours = set(stnm_index.contains(pattern))
            spans = {m.trace_id for m in elastic.span_search(pattern)}
            assert ours <= spans, pattern

    def test_stam_superset_of_stnm_chaining(self, process_log, stnm_index):
        for pattern in random_patterns(process_log, 3, 10, seed=5):
            chained = set(stnm_index.contains(pattern))
            stam = {
                m.trace_id
                for m in stnm_index.detect(
                    pattern, policy=Policy.STAM, max_matches=50_000
                )
            }
            assert chained <= stam, pattern


class TestDurableEndToEnd:
    def test_lsm_backed_index_full_cycle(self, tmp_path, process_log):
        path = str(tmp_path / "ix")
        patterns = random_patterns(process_log, 3, 5, seed=6)
        with SequenceIndex(LSMStore(path, memtable_flush_bytes=64 * 1024)) as index:
            index.update(process_log)
            expected = {tuple(p): index.detect(p) for p in patterns}
            stats = index.statistics(patterns[0])
            continuations = index.continuations(patterns[0][:2], mode="hybrid", top_k=3)
        with SequenceIndex(LSMStore(path)) as index:
            for pattern in patterns:
                assert index.detect(pattern) == expected[tuple(pattern)]
            assert index.statistics(patterns[0]).pairs == stats.pairs
            assert (
                index.continuations(patterns[0][:2], mode="hybrid", top_k=3)
                == continuations
            )
