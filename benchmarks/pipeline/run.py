"""Run one workload of the pipeline benchmark and print its metrics.

    python3 benchmarks/pipeline/run.py --workload query_cold --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing interposed;
``--trace 1`` runs the same workload through the timing proxies with the
``repro.obs`` tracer switched on and reports the per-layer metrics, writing
``out/trace-<workload>.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    import metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (default: the benchmark's fixed scale)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import common
    from spans import SpanRecorder, write_trace

    common.OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.OUT_DIR))
    cfg = common.RunConfig(
        seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), scale=args.scale or common.DEFAULT_SCALE,
        work_dir=work_dir, speed=common.HostSpeed(),
        recorder=SpanRecorder() if args.trace else None,
    )
    env = common.environment(cfg)
    try:
        outcome = importlib.import_module(f"workloads.{args.workload}").run(cfg)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_share = outcome.failed / max(1, outcome.attempted)
    if cfg.trace:
        values = {m.name: 0.0 for m in metrics.PER_LAYER}
        unknown = set(outcome.per_layer) - set(values)
        if unknown:
            raise SystemExit(f"per-layer metrics missing from the catalog: {sorted(unknown)}")
        values.update(outcome.per_layer)
        values["failed_share"] = failed_share
    else:
        values = dict(outcome.end_to_end)
    reported = {
        name: {"value": float(value), "unit": metrics.UNITS[name]}
        for name, value in values.items()
    }

    aliases = metrics.ALIASES[args.workload]
    print(f"# {args.workload}  seed={args.seed} seconds={args.seconds:g} "
          f"scale={cfg.scale:g} trace={args.trace}")
    for key, value in {**env, **outcome.notes}.items():
        print(f"#   {key}: {value}")
    for name, entry in reported.items():
        alias = f"  (= {aliases[name]})" if name in aliases else ""
        print(f"{name:<36} {entry['value']:>16.6f} {entry['unit']}{alias}")
    if not cfg.trace:
        for name, value in {**outcome.extras, "failed_share": failed_share}.items():
            print(f"{name:<36} {value:>16.6f} {metrics.UNITS[name]}  (ungated)")

    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": reported,
    }
    record = {**result, "workload": args.workload, "trace": args.trace,
              "environment": env, "notes": outcome.notes, "extras": outcome.extras}
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (common.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if cfg.trace:
        write_trace(str(common.OUT_DIR / f"trace-{args.workload}.json"), cfg.recorder,
                    outcome.obs, reported,
                    {**env, **outcome.notes, "workload": args.workload})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
