"""Smoke test of the pipeline benchmark: ``pytest benchmarks/pipeline -q``.

Runs every workload, untraced and traced, at scale 0.01 for 2 s, and checks
the output contract, the correctness gates and the trace's accounting.  It is
not part of the repository's tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(metrics.WORKLOADS))
def both_runs(request):
    workload = request.param
    traced = run(workload, 1)
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    return workload, run(workload, 0), traced, trace


def check_shape(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in expected}
    for metric in expected:
        entry = result["metrics"][metric.name]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric.unit and UNIT.match(entry["unit"])
        assert NAME.match(metric.name)
        assert isinstance(entry["value"], float)


def test_untraced_run_reports_every_end_to_end_metric(both_runs):
    _, untraced, _, _ = both_runs
    check_shape(untraced, list(metrics.END_TO_END))
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(both_runs):
    _, _, traced, _ = both_runs
    check_shape(traced, list(metrics.PER_LAYER))


def test_no_operation_fails(both_runs):
    _, untraced, traced, _ = both_runs
    for result in (untraced, traced):
        assert result["correct"] is True and result["failed"] == 0
    assert traced["metrics"]["failed_share"]["value"] == 0.0


def test_spans_cover_the_interval_they_decompose(both_runs):
    """Each decomposition is held against a time taken some other way: a
    part that went missing, or was counted twice, moves the covered share."""
    workload, _, traced, trace = both_runs
    value = {name: entry["value"] for name, entry in traced["metrics"].items()}
    spans = trace["self_time"]
    if workload == "query_cold":
        assert value["core.query_cache_hit_ratio"] == 0.0
        # what repro.obs recorded inside the program, against the benchmark's
        # own span around each query
        inside = sum(row["self_s"] for row in trace["obs_self_time"].values())
        whole = spans["core.query"]["total_s"]
        assert 0.90 * whole <= inside <= whole
        stages = sum(value[f"core.{stage}_ms"] for stage in (
            "plan", "fetch_postings", "intersect", "join", "materialize", "verify",
            "store_read"))
        assert 0.0 < stages <= value["core.query_traced_ms"]
    elif workload == "index_bulk":
        # the spans of one build, against a clock read outside all of them
        covered = sum(spans[name]["total_s"]
                      for name in ("core.update", "kvstore.flush", "kvstore.close"))
        build_s = trace["meta"]["traced_build_s"]
        assert 0.90 * build_s <= covered <= build_s
        assert 0.0 < value["core.update_self_s"] < spans["core.update"]["total_s"]
    elif workload == "stream_ingest":
        # drain() runs the batches on the calling thread: apply is all it does
        # but reading the feed and writing checkpoints
        drain = spans["ingest.drain"]
        assert drain["self_s"] <= 0.10 * drain["total_s"]
        assert value["core.update_self_s"] < value["ingest.apply_s"]
    # every span in the trace has a name, an interval and a resolvable parent
    ids = {span["id"] for span in trace["spans"]}
    for span in trace["spans"]:
        assert span["name"] and span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids


def test_host_speed_cost_is_the_mean_unit_over_the_reference():
    from common import HostSpeed

    speed = HostSpeed()  # the samples are put in by hand
    speed._starts = [float(i) for i in range(20)]
    speed._unit_s = [0.002] * 20
    speed._unit_s[8:11] = [0.003, 0.003, 0.030]
    # units 4 to 14: the one inside and five either side; the 30 ms one is left out
    assert speed.cost(8.5, 9.5) == pytest.approx(1.1)
    assert speed.spent(8.5, 10.5) == pytest.approx(0.033)
    assert HostSpeed().cost(0.0, 1.0) == 1.0
    speed.sample()
    assert len(speed._unit_s) == 21 and speed._unit_s[-1] > 0.0


def test_benchmark_json_matches_the_catalog():
    document = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert document == metrics.benchmark_document()
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in document[section]]
        assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in document["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
