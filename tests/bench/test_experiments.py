"""Experiment harness: every table/figure function produces sane rows."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    _shard_writer,
    exp_fig2,
    exp_fig3,
    exp_fig4,
    exp_fig5,
    exp_fig6,
    exp_fig7,
    exp_pattern_language,
    exp_table4,
    exp_table5,
    exp_table6,
    exp_table7,
    exp_table8,
)
from repro.bench.workloads import prepared_dataset
from repro.core.engine import SequenceIndex
from repro.core.policies import Policy
from repro.logs.generator import generate_random_log

SCALE = 0.01
SMALL = ("max_100", "bpi_2013")


class TestDatasetExperiments:
    def test_table4_rows(self):
        result = exp_table4(SCALE, datasets=SMALL)
        assert result.columns[0] == "log file"
        assert [row[0] for row in result.rows] == list(SMALL)
        assert all(row[1] > 0 and row[2] > 0 for row in result.rows)

    def test_fig2_distributions(self):
        result = exp_fig2(SCALE, datasets=SMALL)
        for row in result.rows:
            _, ev_min, ev_mean, ev_max, act_min, act_mean, act_max = row
            assert ev_min <= ev_mean <= ev_max
            assert act_min <= act_mean <= act_max


class TestIndexingExperiments:
    def test_table5_times_positive(self):
        result = exp_table5(SCALE, datasets=SMALL)
        assert result.columns[1:] == ["indexing", "parsing", "state", "build"]
        for row in result.rows:
            assert all(cell > 0 for cell in row[1:])

    def test_fig3_covers_three_sweeps(self, monkeypatch):
        # The paper's traces of up to 4 000 events cost Parsing about a
        # minute here; 60 events keep every sweep, flavor and cell.
        def short_traces(config):
            return generate_random_log(dataclasses.replace(config, max_events_per_trace=60))

        monkeypatch.setattr(experiments, "generate_random_log", short_traces)
        result = exp_fig3(0.005)
        assert result.columns[2:] == ["indexing", "parsing", "state"]
        sweeps = {row[0] for row in result.rows}
        assert sweeps == {"events/trace", "traces", "activities"}
        assert all(cell > 0 for row in result.rows for cell in row[2:])

    def test_table6_columns(self):
        result = exp_table6(SCALE, datasets=("bpi_2013",), workers=2)
        assert len(result.columns) == 7
        (row,) = result.rows
        assert all(cell > 0 for cell in row[1:])
        # the two shard writers index exactly what one build does
        log = prepared_dataset("bpi_2013", SCALE)
        for policy in (Policy.SC, Policy.STNM):
            stats = SequenceIndex(policy=policy).update(log)
            shards = [_shard_writer("bpi_2013", SCALE, policy, 2, shard) for shard in (0, 1)]
            assert tuple(map(sum, zip(*shards))) == (stats.events_indexed, stats.pairs_created)


class TestQueryExperiments:
    def test_table7(self):
        result = exp_table7(SCALE, datasets=("max_100",), patterns_per_length=3)
        assert result.columns[1:] == [
            "[19] (len 2)",
            "[19] (len 10)",
            "ours (len 2)",
            "ours (len 10)",
        ]
        (row,) = result.rows
        assert all(cell > 0 for cell in row[1:])

    def test_table7_times_19_per_length(self, monkeypatch):
        # A stand-in for [19] that takes 1 ms per pattern event: a column
        # that mixed the lengths would put both near 6 ms a query.
        class SlowMatcher:
            def __init__(self, log):
                pass

            def detect(self, pattern):
                time.sleep(0.001 * len(pattern))

        monkeypatch.setattr(experiments, "SuffixArrayMatcher", SlowMatcher)
        result = exp_table7(SCALE, datasets=("max_100",), patterns_per_length=2)
        (row,) = result.rows
        suffix_short, suffix_long = row[1], row[2]
        assert 0.002 <= suffix_short < 0.005
        assert suffix_long >= 0.010

    def test_fig4_lengths(self):
        result = exp_fig4(SCALE, dataset="max_100", lengths=(2, 4), patterns_per_length=3)
        assert [row[0] for row in result.rows] == [2, 4]

    def test_table8(self):
        result = exp_table8(
            SCALE, datasets=("max_100",), lengths=(2,), patterns_per_config=3
        )
        (row,) = result.rows
        assert row[0] == 2 and row[1] == "max_100"
        assert all(cell > 0 for cell in row[2:])


class TestContinuationExperiments:
    def test_fig5(self):
        result = exp_fig5(SCALE, dataset="max_100", lengths=(1, 2), patterns_per_length=2)
        assert len(result.rows) == 2

    def test_fig6_brackets(self):
        result = exp_fig6(SCALE, dataset="max_100", top_ks=(0, 2))
        assert len(result.rows) == 2

    def test_fig7_accuracy_bounds(self):
        result = exp_fig7(SCALE, dataset="max_100", top_ks=(1, 50))
        accuracies = [row[1] for row in result.rows]
        assert all(0.0 <= acc <= 1.0 for acc in accuracies)
        assert accuracies[-1] == 1.0  # huge topK == accurate


class TestPatternLanguageExperiment:
    def test_per_kind_rows_and_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the snapshot lands in the cwd
        result = exp_pattern_language(SCALE, dataset="max_100", patterns_per_kind=2)
        kinds = [row[0] for row in result.rows]
        assert kinds == ["windowed", "alternation", "kleene", "negation", "all"]
        assert all(row[1] > 0 for row in result.rows)  # pattern counts
        assert all(row[2] > 0 and row[3] > 0 for row in result.rows)  # timings
        assert (tmp_path / "BENCH_pattern_language.json").is_file()


class TestRegistryCompleteness:
    def test_every_paper_artifact_has_an_experiment(self):
        paper_artifacts = {
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
        }
        assert paper_artifacts <= set(ALL_EXPERIMENTS)
        # Beyond the paper: repo-specific ablations must stay registered
        # so the runner exposes them.
        assert set(ALL_EXPERIMENTS) - paper_artifacts == {
            "ablation_cache",
            "pattern_language",
            "sharded_service",
        }
