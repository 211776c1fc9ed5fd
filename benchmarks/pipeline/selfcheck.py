"""Run every workload several times and check that the numbers repeat.

    python3 benchmarks/pipeline/selfcheck.py            # two rounds
    python3 benchmarks/pipeline/selfcheck.py --rounds 10

Every run is the one ``BENCHMARK.json`` gates: the driver's command, run
length and scale, on seeds 1, 2, ...  Rounds alternate the workload order
(forwards, backwards, ...).  With two rounds the check fails if any
end-to-end metric differs between them by more than its bound.  With more
rounds it fails if any metric's spread, taken as the driver takes it (the
distance between the first and third quartile as a share of the median), is
beyond its bound; ``setup_s`` is held to its bound like the rest.  The report
goes to ``out/selfcheck.json``: observed difference or spread next to each
bound, every value, and the environment of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(metrics.RUN_SECONDS), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    record = json.loads(
        (HERE / "out" / f"result-{workload}-trace0-seed{seed}.json").read_text())
    result["environment"] = {**record["environment"],
                             "host_cost": record["notes"]["host_cost"]}
    return result


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()

    workloads = list(metrics.WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for round_no in range(args.rounds):
        order = workloads if round_no % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, 1 + round_no)
            runs[workload].append(result)
            print(f"round {round_no} {workload:<14} {result['wall_s']:6.1f}s "
                  f"correct={result['correct']}", flush=True)

    report: dict = {"rounds": args.rounds, "seconds": metrics.RUN_SECONDS, "workloads": {}}
    ok = True
    for workload, results in runs.items():
        rows = {}
        for metric in metrics.END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in results]
            row = {"unit": metric.unit, "bound": metric.bound, "values": values,
                   "median": statistics.median(values)}
            if len(values) == 2:
                row["relative_difference"] = abs(values[0] - values[1]) / min(values)
                row["within_bound"] = row["relative_difference"] <= metric.bound
            elif len(values) > 2:
                row["spread"] = spread(values)
                row["within_bound"] = row["spread"] <= metric.bound
            ok = ok and row.get("within_bound", True)
            rows[metric.name] = row
        all_correct = all(r["correct"] for r in results)
        ok = ok and all_correct
        report["workloads"][workload] = {
            "correct": all_correct,
            "failed": sum(r["failed"] for r in results),
            "wall_s": [round(r["wall_s"], 1) for r in results],
            "environment": [r["environment"] for r in results],
            "end_to_end": rows,
        }
    report["passed"] = ok

    for workload, entry in report["workloads"].items():
        print(f"\n{workload}  correct={entry['correct']}  wall={entry['wall_s']}")
        for name, row in entry["end_to_end"].items():
            observed = row.get("spread", row.get("relative_difference", 0.0))
            flag = "" if row.get("within_bound", True) else "   <-- beyond its bound"
            print(f"  {name:<22} median {row['median']:>12.4f} {row['unit']:<6} "
                  f"observed {observed:6.3f}  bound {row['bound']:.2f}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nselfcheck {'passed' if ok else 'FAILED'}; report in {out / 'selfcheck.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
