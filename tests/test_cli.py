"""Command-line interface: every subcommand end-to-end."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.kvstore import blockcodec
from repro.core.model import EventLog, Trace
from repro.logs.csv_log import write_csv_log


@pytest.fixture
def log_file(tmp_path):
    log = EventLog(
        [
            Trace.from_pairs("t1", [("A", 1.0), ("B", 2.0), ("C", 3.0)]),
            Trace.from_pairs("t2", [("A", 1.0), ("C", 2.0)]),
        ]
    )
    path = str(tmp_path / "log.csv")
    write_csv_log(log, path)
    return path


@pytest.fixture
def store_dir(tmp_path, log_file):
    store = str(tmp_path / "ix")
    assert main(["index", "--log", log_file, "--store", store]) == 0
    return store


class TestGenerate:
    def test_csv_output(self, tmp_path, capsys):
        out = str(tmp_path / "gen.csv")
        code = main(
            ["generate", "--dataset", "bpi_2013", "--scale", "0.01", "--out", out]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_xes_output(self, tmp_path):
        out = str(tmp_path / "gen.xes")
        assert main(
            ["generate", "--dataset", "max_100", "--scale", "0.05", "--out", out]
        ) == 0
        from repro.logs.xes import read_xes

        assert len(read_xes(out)) > 0


class TestIndexAndQuery:
    def test_index_reports_counts(self, log_file, tmp_path, capsys):
        store = str(tmp_path / "ix")
        assert main(["index", "--log", log_file, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "indexed 5 events" in out

    def test_index_takes_no_pair_method(self, log_file, tmp_path):
        # the policy alone picks the pair creator
        with pytest.raises(SystemExit) as usage:
            main(["index", "--log", log_file, "--store", str(tmp_path / "ix"), "--method", "state"])
        assert usage.value.code == 2

    def test_detect(self, store_dir, capsys):
        assert main(["detect", "--store", store_dir, "A,C"]) == 0
        out = capsys.readouterr().out
        assert "2 completions" in out
        assert "t1" in out and "t2" in out

    def test_detect_with_within(self, store_dir, capsys):
        assert main(["detect", "--store", store_dir, "A,C", "--within", "1.0"]) == 0
        assert "1 completions" in capsys.readouterr().out

    def test_detect_stam(self, store_dir, capsys):
        assert main(["detect", "--store", store_dir, "A,C", "--stam"]) == 0
        assert "2 completions" in capsys.readouterr().out

    def test_stats(self, store_dir, capsys):
        assert main(["stats", "--store", store_dir, "A,B,C"]) == 0
        out = capsys.readouterr().out
        assert "A -> B" in out and "upper bound" in out

    def test_continue(self, store_dir, capsys):
        assert main(["continue", "--store", store_dir, "A", "--mode", "accurate"]) == 0
        out = capsys.readouterr().out
        assert "score=" in out

    def test_detect_explain(self, store_dir, capsys):
        assert main(["detect", "--store", store_dir, "A,C", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "cardinality" in out

    def test_detect_profile(self, store_dir, capsys):
        assert main(
            ["detect", "--store", store_dir, "A,B,C", "--explain", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "profile:" in out
        assert "query.detect" in out
        for stage in ("plan ", "fetch_postings", "intersect", "join", "materialize"):
            assert stage in out

    def test_empty_pattern_rejected(self, store_dir):
        with pytest.raises(SystemExit):
            main(["detect", "--store", store_dir, ",,"])

    def test_detect_composite_expression(self, store_dir, capsys):
        assert main(
            ["detect", "--store", store_dir, "--pattern", "SEQ(A, (B|C)) WITHIN 2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 completions of SEQ(A, (B|C)) WITHIN 2" in out
        assert "t1" in out and "t2" in out

    def test_detect_composite_explain_shows_groups(self, store_dir, capsys):
        assert main(
            ["detect", "--store", store_dir, "--pattern", "SEQ(A, !X, C)", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "A -> C" in out
        assert "negated element !X" in out

    def test_detect_composite_profile_has_verify_stage(self, store_dir, capsys):
        assert main(
            ["detect", "--store", store_dir, "--pattern", "SEQ(A, C+)", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        for stage in ("plan ", "fetch_postings", "intersect", "verify"):
            assert stage in out

    def test_detect_rejects_both_pattern_forms(self, store_dir):
        with pytest.raises(SystemExit):
            main(["detect", "--store", store_dir, "A,B", "--pattern", "SEQ(A, B)"])

    def test_detect_rejects_within_flag_on_composite(self, store_dir):
        with pytest.raises(SystemExit):
            main(
                ["detect", "--store", store_dir, "--pattern", "SEQ(A, B)",
                 "--within", "5"]
            )

    def test_detect_rejects_bad_expression(self, store_dir):
        with pytest.raises(SystemExit):
            main(["detect", "--store", store_dir, "--pattern", "SEQ(!A)"])

    def test_detect_requires_some_pattern(self, store_dir):
        with pytest.raises(SystemExit):
            main(["detect", "--store", store_dir])


class TestProfile:
    def test_profile_output(self, log_file, capsys):
        assert main(["profile", "--log", log_file]) == 0
        out = capsys.readouterr().out
        assert "Traces" in out and "events/trace" in out


class TestMetrics:
    def test_metrics_renders_prometheus_snapshot(self, store_dir, capsys):
        assert main(["metrics", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_store_gets_total counter" in out
        assert "# HELP repro_store_sstables" in out
        assert f'store="{store_dir}"' in out

    def test_metrics_with_pattern_moves_counters(self, store_dir, capsys):
        assert main(["metrics", "--store", store_dir, "--pattern", "A,C"]) == 0
        out = capsys.readouterr().out
        assert "# ran detect" in out
        for line in out.splitlines():
            if line.startswith("repro_store_gets_total"):
                assert int(line.rsplit(" ", 1)[1]) > 0
                break
        else:  # pragma: no cover - the metric must exist
            raise AssertionError("repro_store_gets_total not rendered")


class TestFaults:
    def test_single_seed_replay(self, capsys):
        assert main(["faults", "--seed", "3", "--ops", "120"]) == 0
        out = capsys.readouterr().out
        assert "seed 3: ok" in out

    def test_seed_range_sweep(self, capsys):
        assert main(["faults", "--seeds", "0:3", "--ops", "80"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 3

    def test_requires_seed_argument(self):
        with pytest.raises(SystemExit):
            main(["faults"])

    def test_keeps_directory_when_path_given(self, tmp_path, capsys):
        keep = str(tmp_path / "kept")
        assert main(["faults", "--seed", "1", "--ops", "80", "--path", keep]) == 0
        import os

        assert os.path.isdir(os.path.join(keep, "seed-1"))


class TestDiffcheck:
    def test_single_seed_replay_prints_report(self, capsys):
        assert main(["diffcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "seed 7: ok" in out
        assert "1 seeds, 0 divergences" in out

    def test_seed_range_sweep(self, capsys):
        assert main(["diffcheck", "--seeds", "0:10"]) == 0
        out = capsys.readouterr().out
        assert "10 seeds, 0 divergences" in out

    def test_bad_seed_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["diffcheck", "--seeds", "nope"])

    def test_divergence_exits_nonzero(self, monkeypatch, capsys):
        """Wire a fake diverging case through run_case: the command must
        print the report (with the reproducer line) and return 1."""
        import repro.cli as cli
        from repro.core.pattern import Pattern, PatternElement
        from repro.difftest import CaseResult

        def fake_run_case(seed):
            return CaseResult(
                seed=seed,
                pattern=Pattern((PatternElement(types=("A",)),)),
                log={"t0": [("A", 0.0)]},
                indexed={("t0", (0.0,))},
                oracle=set(),
            )

        import repro.difftest as difftest

        monkeypatch.setattr(difftest, "run_case", fake_run_case)
        assert main(["diffcheck", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "diffcheck --seed 5" in out
        assert "1 seeds, 1 divergences" in out


class TestStoreStats:
    def test_stats_without_pattern_reports_storage(self, tmp_path, log_file, capsys):
        store = str(tmp_path / "ix")
        assert main(["index", "--log", log_file, "--store", store]) == 0
        capsys.readouterr()
        assert main(["stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "index:" in out  # per-table record counts
        assert "raw bytes:" in out
        assert "compression ratio:" in out
        sstable_lines = [l for l in out.splitlines() if l.startswith("    sst-")]
        assert sstable_lines and all(": v2 " in l for l in sstable_lines)
        # list tables also report the storage format of their rows
        index_line = next(l for l in out.splitlines() if l.startswith("  index:"))
        seq_line = next(l for l in out.splitlines() if l.startswith("  seq:"))
        assert "[columnar: " in index_line and " chunks/" in index_line
        assert "[columnar: " in seq_line and seq_line.endswith("entries]")
        assert "[" not in next(l for l in out.splitlines() if l.startswith("  count:"))

    def test_stats_shows_the_migration_state_of_an_old_store(self, tmp_path, capsys):
        import os
        import shutil

        fixture = os.path.join(os.path.dirname(__file__), "data", "legacy_store", "store")
        store = str(tmp_path / "ix")
        shutil.copytree(fixture, store)
        # an old store is not read: the message names the one command
        with pytest.raises(SystemExit, match=f"run `repro upgrade --store {store}`"):
            main(["stats", "--store", store])
        assert main(["upgrade", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "32 index rows rewritten, 10 traces numbered" in out
        assert main(["stats", "--store", store]) == 0
        out = capsys.readouterr().out
        # the old Index rows became NUMBERED chunks, RAW where stamps were mixed
        index_line = next(l for l in out.splitlines() if l.startswith("  index:"))
        assert "[columnar: " in index_line and "; raw: " in index_line
        assert "varint" not in out and "plain: " not in index_line
        assert "  seq: " in out and "[plain: " in out
        assert "  last_checked: 5 records\n" in out  # one row per first event
        assert main(["upgrade", "--store", store]) == 0
        assert capsys.readouterr().out == f"{store}: already in format 1\n"

    def test_stats_with_pattern_still_works(self, store_dir, capsys):
        assert main(["stats", "A,C", "--store", store_dir]) == 0
        assert "A -> C" in capsys.readouterr().out

    def test_faults_accepts_compression(self, capsys, written_codecs):
        # compressed tables are the only ones there are: the seed replays
        # on zlib blocks with no flag to ask for them
        assert main(["faults", "--seed", "3"]) == 0
        assert "seed 3: ok" in capsys.readouterr().out
        assert blockcodec.CODEC_ZLIB in written_codecs


class TestSharded:
    @pytest.fixture
    def sharded_store(self, tmp_path, log_file):
        store = str(tmp_path / "sx")
        assert main(
            ["index", "--log", log_file, "--store", store, "--shards", "2"]
        ) == 0
        return store

    def test_index_writes_manifest(self, sharded_store):
        from repro.shard import is_sharded_store, read_manifest

        assert is_sharded_store(sharded_store)
        assert read_manifest(sharded_store)["num_shards"] == 2

    def test_detect_matches_single_store(
        self, sharded_store, store_dir, capsys
    ):
        assert main(["detect", "A,B", "--store", sharded_store]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["detect", "A,B", "--store", store_dir]) == 0
        assert capsys.readouterr().out == sharded_out
        assert "1 completions" in sharded_out

    def test_composite_detect(self, sharded_store, capsys):
        assert main(
            ["detect", "--store", sharded_store, "--pattern", "SEQ(A, (B|C))"]
        ) == 0
        assert "completions of SEQ" in capsys.readouterr().out

    def test_incremental_index_reuses_manifest(
        self, tmp_path, log_file, sharded_store, capsys
    ):
        # No --shards on reopen: the manifest supplies the count.
        from repro.core.model import EventLog, Trace
        from repro.logs.csv_log import write_csv_log

        more = str(tmp_path / "more.csv")
        write_csv_log(
            EventLog([Trace.from_pairs("t9", [("A", 1.0), ("B", 2.0)])]), more
        )
        assert main(["index", "--log", more, "--store", sharded_store]) == 0
        assert "1 traces (1 new)" in capsys.readouterr().out

    def test_stats_aggregates_shards(self, sharded_store, capsys):
        assert main(["stats", "--store", sharded_store]) == 0
        out = capsys.readouterr().out
        assert "(2 shards)" in out
        assert "shard 00:" in out
        assert "shard 01:" in out
        assert "totals:" in out
        assert "compression ratio:" in out
        assert "index formats: [columnar: " in out
        assert "seq formats: [columnar: " in out
        assert "last_checked formats" not in out  # not a list table

    def test_pattern_stats_on_sharded_store(self, sharded_store, capsys):
        assert main(["stats", "A,B", "--store", sharded_store]) == 0
        assert "A -> B" in capsys.readouterr().out

    def test_continue_matches_single_store(self, sharded_store, store_dir, capsys):
        assert main(["continue", "A,B", "--store", sharded_store]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["continue", "A,B", "--store", store_dir]) == 0
        assert capsys.readouterr().out == sharded_out
        assert "completions=" in sharded_out

    def test_detect_explain_profile(self, sharded_store, store_dir, capsys):
        # Crashed at the parent: the sharded detect took no explain keywords.
        assert main(
            ["detect", "A,B", "--store", sharded_store, "--explain", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "finisher=join" in out
        assert "profile:" in out and "shard.fanout" in out
        assert "1 completions" in out
        # The plan text is the single-store engine's.
        assert main(["detect", "A,B", "--store", store_dir, "--explain"]) == 0
        single_out = capsys.readouterr().out
        plan = [line for line in out.splitlines() if "step " in line]
        assert plan and all(line in single_out for line in plan)

    def test_detect_rejects_negative_limit(self, sharded_store, store_dir):
        for store in (sharded_store, store_dir):
            with pytest.raises(SystemExit, match="max_matches"):
                main(["detect", "A,B", "--store", store, "--limit", "-1"])

    def test_metrics_exposes_shard_gauges(self, sharded_store, capsys):
        assert main(
            ["metrics", "--store", sharded_store, "--pattern", "A,B"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_shard_count" in out
        assert "repro_shard_fanout_total" in out


class TestServeAndLoadgen:
    def test_serve_then_loadgen(self, tmp_path, log_file, capsys):
        import json as json_mod
        import re
        import threading
        import time

        from repro.service import ServiceClient

        store = str(tmp_path / "sx")
        assert main(
            ["index", "--log", log_file, "--store", store, "--shards", "2"]
        ) == 0
        capsys.readouterr()

        results = {}

        def serve():
            results["code"] = main(
                ["serve", "--store", store, "--port", "0", "--duration", "5"]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        # The ephemeral port is printed, not predictable; poll the output.
        port = None
        for _ in range(200):
            found = re.search(
                r"on 127\.0\.0\.1:(\d+)", capsys.readouterr().out
            )
            if found:
                port = int(found.group(1))
                break
            time.sleep(0.02)
        assert port is not None, "server never announced its port"
        with ServiceClient("127.0.0.1", port) as client:
            assert client.ping() == "pong"
        assert main(
            [
                "loadgen",
                "--port",
                str(port),
                "--pattern",
                "A,B",
                "--pattern",
                "SEQ(A, (B|C))",
                "--clients",
                "2",
                "--duration",
                "1.0",
            ]
        ) == 0
        report = json_mod.loads(capsys.readouterr().out)
        assert report["errors"] == 0
        assert report["requests"] > 0
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert results["code"] == 0


class TestFeedAndIngest:
    def test_feed_then_local_ingest_then_detect(
        self, log_file, tmp_path, capsys
    ):
        feed = str(tmp_path / "events.jsonl")
        store = str(tmp_path / "ix")
        assert main(["feed", "--log", log_file, "--feed", feed]) == 0
        assert "appended 5 events" in capsys.readouterr().out
        assert main(["ingest", "--feed", feed, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "applied 5 events" in out
        assert "lag 0 bytes" in out
        assert main(["detect", "--store", store, "A,C"]) == 0
        assert "completions" in capsys.readouterr().out

    def test_rerun_resumes_from_checkpoint(self, log_file, tmp_path, capsys):
        feed = str(tmp_path / "events.jsonl")
        store = str(tmp_path / "ix")
        assert main(["feed", "--log", log_file, "--feed", feed]) == 0
        assert main(["ingest", "--feed", feed, "--store", store]) == 0
        capsys.readouterr()
        assert main(["ingest", "--feed", feed, "--store", store]) == 0
        assert "applied 0 events" in capsys.readouterr().out

    def test_metrics_flag_renders_the_registry(
        self, log_file, tmp_path, capsys
    ):
        feed = str(tmp_path / "events.jsonl")
        assert main(["feed", "--log", log_file, "--feed", feed]) == 0
        assert main(
            [
                "ingest",
                "--feed",
                feed,
                "--store",
                str(tmp_path / "ix"),
                "--metrics",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_ingest_events_total" in out
        assert "repro_ingest_freshness_events_total" in out

    def test_ingest_requires_exactly_one_target(self, tmp_path):
        feed = str(tmp_path / "events.jsonl")
        with pytest.raises(SystemExit, match="exactly one"):
            main(["ingest", "--feed", feed])
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                [
                    "ingest",
                    "--feed",
                    feed,
                    "--store",
                    str(tmp_path / "ix"),
                    "--port",
                    "7071",
                ]
            )

    def test_faults_ingest_sweep(self, capsys):
        assert main(["faults", "--ingest", "--seeds", "0:2"]) == 0
        out = capsys.readouterr().out
        assert "seed 0: ok" in out
        assert "converged" in out
