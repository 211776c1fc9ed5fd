"""Command-line interface: index logs and query them from a shell.

Examples::

    python -m repro generate --dataset med_5000 --scale 0.1 --out log.csv
    python -m repro index --log log.csv --store ./ix --policy stnm
    python -m repro index --log log.csv --store ./sx --shards 4
    python -m repro detect --store ./ix A,B,C --explain --profile
    python -m repro detect --store ./ix --pattern "SEQ(A, !B, (C|D)+) WITHIN 10"
    python -m repro stats  --store ./ix A,B,C
    python -m repro continue --store ./ix A,B --mode hybrid --top-k 5
    python -m repro profile --log log.csv --store ./ix
    python -m repro upgrade --store ./old-ix
    python -m repro metrics --store ./ix
    python -m repro serve --store ./sx --port 7700
    python -m repro loadgen --port 7700 --pattern a,b --clients 4 --duration 5
    python -m repro feed --log log.csv --feed events.jsonl --chunk 64
    python -m repro ingest --feed events.jsonl --store ./ix --follow
    python -m repro ingest --feed events.jsonl --port 7700 --metrics
    python -m repro faults --seed 1234
    python -m repro faults --ingest --seeds 0:20
    python -m repro diffcheck --seeds 0:500

Stores created with ``--shards N`` carry a ``SHARDS.json`` manifest; every
other subcommand auto-detects it and opens the store through the
scatter-gather coordinator, so ``detect``/``stats``/``serve`` work
identically on single-store and sharded layouts.

A store written by older code does not open: every subcommand exits with a
message naming ``repro upgrade --store PATH``, which rewrites it once into
the current on-disk format (a sharded root shard by shard).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import SequenceIndex
from repro.core.errors import PatternSyntaxError
from repro.core.pattern import parse_pattern
from repro.core.policies import Policy
from repro.core.tables import IndexTables
from repro.kvstore import LSMStore, StoreFormatError
from repro.logs.csv_log import read_csv_log, write_csv_log
from repro.logs.datasets import DATASETS, load_dataset
from repro.logs.stats import format_distributions, format_profile_table, profile_log
from repro.logs.xes import read_xes, write_xes
from repro.shard import ShardedSequenceIndex, is_sharded_store

_POLICIES = {"sc": Policy.SC, "stnm": Policy.STNM}


def _read_log(path: str):
    if path.endswith(".xes"):
        return read_xes(path)
    return read_csv_log(path)


def _open_index(args: argparse.Namespace):
    """Open the store behind ``args.store`` as the right engine.

    A directory carrying a ``SHARDS.json`` manifest (or a fresh ``--shards N``
    request) opens through :class:`ShardedSequenceIndex`; everything else is
    a plain single-store :class:`SequenceIndex`.  Both expose the same query
    surface, so the subcommands don't care which they got.
    """
    policy = _POLICIES[getattr(args, "policy", "stnm")]
    shards = getattr(args, "shards", None)
    if shards or is_sharded_store(args.store):
        return ShardedSequenceIndex.open(
            args.store, LSMStore, num_shards=shards, policy=policy
        )
    return SequenceIndex(LSMStore(args.store), policy=policy)


def _pattern(raw: str) -> list[str]:
    pattern = [part.strip() for part in raw.split(",") if part.strip()]
    if not pattern:
        raise SystemExit("pattern must be a comma-separated list of activities")
    return pattern


def cmd_generate(args: argparse.Namespace) -> int:
    log = load_dataset(args.dataset, scale=args.scale)
    if args.out.endswith(".xes"):
        write_xes(log, args.out)
    else:
        write_csv_log(log, args.out)
    print(f"wrote {log.num_events} events / {len(log)} traces to {args.out}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    log = _read_log(args.log)
    with _open_index(args) as index:
        stats = index.update(log, partition=args.partition)
        print(
            f"indexed {stats.events_indexed} events from {stats.traces_seen} "
            f"traces ({stats.new_traces} new), {stats.pairs_created} pairs"
            + (f" into partition {args.partition!r}" if args.partition else "")
        )
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    if args.expr is not None:
        if args.pattern is not None:
            raise SystemExit(
                "give either a positional pattern or --pattern, not both"
            )
        if args.stam or args.within is not None:
            raise SystemExit(
                "--stam/--within apply to plain patterns only; composite "
                "expressions carry their window inside (... WITHIN 10)"
            )
        try:
            pattern = parse_pattern(args.expr)
        except PatternSyntaxError as exc:
            raise SystemExit(f"bad pattern expression: {exc}") from None
    elif args.pattern is not None:
        pattern = _pattern(args.pattern)
    else:
        raise SystemExit(
            "detect needs a pattern: positional A,B,C or --pattern 'SEQ(...)'"
        )
    with _open_index(args) as index:
        try:
            answer = index.detect(
                pattern,
                partition=args.partition if args.partition else None,
                policy=Policy.STAM if args.stam else None,
                max_matches=args.limit,
                within=args.within,
                explain=args.explain,
                explain_profile=args.profile,
            )
        except ValueError as exc:  # --limit / --within out of range
            raise SystemExit(f"detect: {exc}") from None
        matches = answer
        if args.explain or args.profile:
            matches, plan = answer[:2]
            print("plan:")
            for line in plan.describe().splitlines():
                print(f"  {line}")
        if args.profile:
            print("profile:")
            for line in answer[2].describe().splitlines():
                print(f"  {line}")
        print(f"{len(matches)} completions of {pattern}")
        for match in matches[: args.show]:
            stamps = ", ".join(f"{ts:g}" for ts in match.timestamps)
            print(f"  {match.trace_id}: [{stamps}]")
        if len(matches) > args.show:
            print(f"  ... and {len(matches) - args.show} more")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.pattern is None:
        return _store_stats(args)
    pattern = _pattern(args.pattern)
    with _open_index(args) as index:
        stats = index.statistics(pattern)
        for row in stats.pairs:
            last = f"{row.last_completion:g}" if row.last_completion is not None else "-"
            print(
                f"{row.pair[0]} -> {row.pair[1]}: completions={row.completions} "
                f"avg_duration={row.average_duration:g} last={last}"
            )
        print(
            f"pattern upper bound: {stats.max_completions} completions, "
            f"estimated duration {stats.estimated_duration:g}"
        )
    return 0


def _store_stats(args: argparse.Namespace) -> int:
    """Storage-level report: per-table record counts, raw vs on-disk bytes,
    and the compression ratio the block codec is achieving.

    On a sharded store the report aggregates across shards: a per-shard
    breakdown followed by the totals row."""
    if is_sharded_store(args.store):
        return _sharded_store_stats(args)
    with LSMStore(args.store) as store:
        print(f"store {args.store}")
        formats = IndexTables(store).format_stats()
        for name in sorted(store.list_tables()):
            count = sum(1 for _ in store.scan(name))
            print(f"  {name}: {count} records" + _format_summary(formats.get(name)))
        stats = store.storage_stats()
        print(
            f"  sstables: {len(stats['sstables'])} "
            f"({stats['records']} records on disk)"
        )
        for entry in stats["sstables"]:
            print(
                f"    {entry['file']}: v{entry['format_version']} "
                f"records={entry['records']} raw={entry['raw_data_bytes']} "
                f"disk={entry['data_bytes']}"
            )
        print(
            f"  raw bytes: {stats['raw_data_bytes']}  "
            f"on-disk bytes: {stats['data_bytes']}  "
            f"(files: {stats['file_bytes']})"
        )
        print(f"  compression ratio: {stats['compression_ratio']:.2f}x")
    return 0


def _format_summary(formats: dict[str, dict[str, int]] | None) -> str:
    """``" [columnar: 12 chunks/340 entries; plain: 7 entries]"`` for a table
    in ``format_stats()`` -- the chunks and entries of each row layout -- and
    ``""`` for any other."""
    if not formats:
        return ""
    parts = [
        f"{name}: "
        + (f"{slot['chunks']} chunks/" if slot["chunks"] else "")
        + f"{slot['entries']} entries"
        for name, slot in sorted(formats.items())
    ]
    return f" [{'; '.join(parts)}]"


def _sharded_store_stats(args: argparse.Namespace) -> int:
    """Aggregate storage accounting across every shard of a sharded store."""
    with _open_index(args) as index:
        stats = index.storage_stats()
        print(f"store {args.store} ({stats['num_shards']} shards)")
        for entry in stats["shards"]:
            sstables = entry.get("sstables", ())
            print(
                f"  shard {entry['shard']:02d}: {len(sstables)} sstables, "
                f"{entry.get('records', 0)} records, "
                f"raw={entry.get('raw_data_bytes', 0)} "
                f"disk={entry.get('data_bytes', 0)}"
            )
        totals = stats["totals"]
        print(
            f"  totals: {totals['sstables']} sstables, "
            f"{totals['records']} records"
        )
        for name, formats in sorted(index.format_stats().items()):
            print(f"  {name} formats:{_format_summary(formats)}")
        print(
            f"  raw bytes: {totals['raw_data_bytes']}  "
            f"on-disk bytes: {totals['data_bytes']}  "
            f"(files: {totals['file_bytes']})"
        )
        print(f"  compression ratio: {totals['compression_ratio']:.2f}x")
    return 0


def cmd_continue(args: argparse.Namespace) -> int:
    pattern = _pattern(args.pattern)
    with _open_index(args) as index:
        proposals = index.continuations(
            pattern, mode=args.mode, top_k=args.top_k, within=args.within
        )
        for proposal in proposals[: args.show]:
            exact = "exact" if proposal.exact else "approx"
            print(
                f"{proposal.event}: completions={proposal.completions} "
                f"avg_gap={proposal.average_duration:g} "
                f"score={proposal.score:g} ({exact})"
            )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a Prometheus-style metrics snapshot for one store.

    Opens the store (registering it with the process-wide registry),
    optionally exercises the read path with a detection so the serving
    counters are non-zero, and prints the registry's text exposition.
    """
    from repro.obs.registry import REGISTRY

    with _open_index(args) as index:
        if args.pattern:
            partition = args.partition if args.partition else None
            matches = index.detect(_pattern(args.pattern), partition=partition)
            print(f"# ran detect {args.pattern!r}: {len(matches)} completions")
        sys.stdout.write(REGISTRY.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a store over the length-prefixed JSON protocol.

    Runs until interrupted (or for ``--duration`` seconds when given --
    handy for scripted smoke runs), then drains: in-flight requests finish,
    new ones are refused with the ``shutdown`` error code.
    """
    import time

    from repro.service import SequenceService

    with _open_index(args) as index:
        service = SequenceService(
            index,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_ingest_inflight=args.max_ingest_inflight,
            default_deadline_ms=args.deadline_ms,
        )
        service.start()
        host, port = service.address
        print(
            f"serving {args.store} ({index.num_shards} shard(s)) on {host}:{port}"
        )
        sys.stdout.flush()
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            print("interrupt: draining")
        finally:
            service.shutdown()
    print("server stopped")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive closed-loop mixed read/write traffic at a running server.

    Each ``--pattern`` is either a comma-separated plain sequence (sent as
    a list) or a composite expression (anything containing ``(``, sent as
    a string).  The report prints as JSON: request counts, rejections,
    p50/p95/p99 latency per operation class, and overall QPS.
    """
    import json

    from repro.service import run_loadgen

    patterns: list[object] = []
    for raw in args.pattern:
        patterns.append(raw if "(" in raw else _pattern(raw))
    report = run_loadgen(
        args.host,
        args.port,
        patterns,
        clients=args.clients,
        duration_s=args.duration,
        write_fraction=args.write_fraction,
        write_batch=args.write_batch,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_feed(args: argparse.Namespace) -> int:
    """Append a batch log into an append-only event feed.

    Events are interleaved across traces in global timestamp order (the
    shape a live producer emits) and stamped with the append instant, which
    is what the ingester's freshness metric measures against.  ``--chunk``
    plus ``--interval`` turn a static log into a paced stream for demos.
    """
    import time

    from repro.ingest import FeedWriter

    log = _read_log(args.log)
    # Stable sort: per-trace order (what the index requires) survives the
    # global interleave.
    events = sorted(log.events(), key=lambda event: event.timestamp)
    chunk = args.chunk if args.chunk else max(len(events), 1)
    written = 0
    with FeedWriter(args.feed) as writer:
        for start in range(0, len(events), chunk):
            written += writer.append(
                events[start : start + chunk], stamp=not args.no_stamp
            )
            if args.interval and start + chunk < len(events):
                time.sleep(args.interval)
    print(f"appended {written} events to {args.feed}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Tail an event feed into a live index, micro-batch by micro-batch.

    Local mode (``--store``) applies batches to the store in-process while
    it stays fully queryable; remote mode (``--port``) ships them to a
    running ``repro serve`` through the ingest op and its backpressure
    seam.  Progress survives kills: the durable checkpoint replays from
    the last applied batch and the dedup filter makes the replay a no-op.
    """
    from repro.ingest import EngineSink, ServiceSink

    if (args.store is None) == (args.port is None):
        raise SystemExit(
            "ingest needs exactly one of --store (local) or --port (remote)"
        )
    if args.store is not None:
        with _open_index(args) as index:
            return _run_ingester(args, EngineSink(index, partition=args.partition))
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        return _run_ingester(args, ServiceSink(client, partition=args.partition))


def _run_ingester(args: argparse.Namespace, sink: object) -> int:
    from repro.ingest import TailIngester

    checkpoint = args.checkpoint or args.feed + ".checkpoint"
    ingester = TailIngester(
        args.feed,
        sink,
        checkpoint,
        batch_events=args.batch_events,
        poll_interval_s=args.poll_ms / 1000.0,
        name=args.feed,
    )
    try:
        if args.follow or args.duration is not None:
            try:
                stats = ingester.run(args.duration)
            except KeyboardInterrupt:
                print("interrupt: checkpointing")
                stats = ingester.stop()
        else:
            stats = ingester.drain()
        print(
            f"applied {stats.events_applied} events in {stats.batches} "
            f"batches ({stats.events_deduped} deduped replays), "
            f"checkpoint at byte {stats.offset}, lag {stats.lag_bytes} bytes"
        )
        print(ingester.freshness.describe())
        if args.metrics:
            from repro.obs.registry import REGISTRY

            sys.stdout.write(REGISTRY.render())
    finally:
        ingester.close()
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Replay crash-recovery fault-injection seeds.

    ``--seed N`` replays the single seed a failing test printed;
    ``--seeds A:B`` sweeps a half-open range.  ``--ingest`` switches from
    the store crash harness to the ingest crash-replay harness (kill the
    tailing ingester mid-batch, replay from the checkpoint, require
    convergence with a clean batch build).  Exit status 0 means every seed
    upheld its contract; a violation prints the failure and returns 1.
    """
    from repro.faults import CrashRecoveryFailure, run_seed

    if args.seed is None and args.seeds is None:
        raise SystemExit("faults requires --seed N or --seeds A:B")
    if args.seeds is not None:
        try:
            start, stop = (int(part) for part in args.seeds.split(":", 1))
        except ValueError:
            raise SystemExit("--seeds expects A:B, e.g. 0:200") from None
        seeds = range(start, stop)
    else:
        seeds = [args.seed]
    import os

    if args.ingest:
        return _ingest_faults(args, seeds)
    failures = 0
    for seed in seeds:
        workdir = os.path.join(args.path, f"seed-{seed}") if args.path else None
        try:
            summary = run_seed(seed, ops=args.ops, path=workdir)
        except CrashRecoveryFailure as exc:
            failures += 1
            print(f"FAIL {exc}")
        else:
            outcome = (
                "crashed"
                if summary["crashed"]
                else ("detected" if summary["detected"] else "survived")
            )
            print(
                f"seed {seed}: ok ({summary['fault']}, {outcome}, "
                f"acked={summary['acked']}, checked={summary['checked']})"
            )
    if failures:
        print(f"{failures} of {len(seeds)} seeds FAILED")
        return 1
    return 0


def _ingest_faults(args: argparse.Namespace, seeds) -> int:
    """Sweep the ingest crash-replay harness over ``seeds``."""
    import os

    from repro.faults import IngestReplayFailure, run_ingest_replay

    failures = 0
    for seed in seeds:
        workdir = (
            os.path.join(args.path, f"ingest-seed-{seed}") if args.path else None
        )
        try:
            summary = run_ingest_replay(seed, path=workdir)
        except IngestReplayFailure as exc:
            failures += 1
            print(f"FAIL {exc}")
        else:
            print(
                f"seed {seed}: ok (killed {summary['kill']} batch "
                f"{summary['crash_batch']}, replayed {summary['replayed']} "
                f"events, {summary['deduped']} deduped, converged)"
            )
    if failures:
        print(f"{failures} of {len(seeds)} seeds FAILED")
        return 1
    return 0


def cmd_diffcheck(args: argparse.Namespace) -> int:
    """Differential check: indexed pattern queries vs the SASE oracle.

    ``--seed N`` replays the single seed a failing test printed (with the
    shrunk counterexample); ``--seeds A:B`` sweeps a half-open range.
    Exit status 0 means both engines agreed on every case.
    """
    from repro.difftest import run_case

    if args.seed is not None:
        seeds: list[int] | range = [args.seed]
    else:
        spec = args.seeds or "0:200"
        try:
            start, stop = (int(part) for part in spec.split(":", 1))
        except ValueError:
            raise SystemExit("--seeds expects A:B, e.g. 0:500") from None
        seeds = range(start, stop)
    total = 0
    failures = 0
    for seed in seeds:
        result = run_case(seed)
        total += 1
        if result.ok:
            if args.seed is not None or args.verbose:
                print(result.report())
        else:
            failures += 1
            print(result.report())
    print(f"{total} seeds, {failures} divergences")
    return 1 if failures else 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.log is None and args.store is None:
        raise SystemExit("profile requires --log and/or --store")
    if args.log is not None:
        log = _read_log(args.log)
        profile = profile_log(log, name=args.log)
        print(format_profile_table([profile]))
        print(format_distributions([profile]))
    if args.store is not None:
        _profile_store(args.store)
    return 0


def _profile_store(path: str) -> None:
    """Report on-disk shape, integrity and serving counters of a store."""
    with LSMStore(path) as store:
        print(f"store {path}")
        print(f"  tables: {', '.join(store.list_tables()) or '(none)'}")
        print(f"  sstables: {store.sstable_count}")
        try:
            store.verify()
            print("  integrity: ok (all data CRCs verified)")
        except Exception as exc:
            print(f"  integrity: FAILED ({exc})")
        for name in store.list_tables():
            try:
                count = sum(1 for _ in store.scan(name))
            except Exception:  # corrupt data: already reported above
                print(f"    {name}: unreadable")
                continue
            print(f"    {name}: {count} keys")
        metrics = store.metrics.snapshot()
        interesting = {k: v for k, v in metrics.items() if v}
        if interesting:
            print("  session counters: " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())
            ))


def cmd_upgrade(args: argparse.Namespace) -> int:
    from repro.upgrade import upgrade

    for report in upgrade(args.store):
        print(report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Sequence detection in event log files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a registry dataset")
    gen.add_argument("--dataset", choices=DATASETS, required=True)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--out", required=True, help=".csv or .xes output path")
    gen.set_defaults(fn=cmd_generate)

    def add_store_args(p, with_build=False, required=True):
        p.add_argument("--store", required=required, help="index store directory")
        p.add_argument("--policy", choices=sorted(_POLICIES), default="stnm")
        if with_build:
            p.add_argument(
                "--shards",
                type=int,
                default=None,
                help="create a sharded store with N LSM shards (existing "
                "stores keep their manifest's count; resharding is not "
                "supported)",
            )
            p.add_argument("--partition", default="", help="index partition name")

    idx = sub.add_parser("index", help="index a log file into a store")
    idx.add_argument("--log", required=True, help=".csv or .xes log file")
    add_store_args(idx, with_build=True)
    idx.set_defaults(fn=cmd_index)

    det = sub.add_parser("detect", help="detect a pattern")
    det.add_argument(
        "pattern",
        nargs="?",
        default=None,
        help="comma-separated activities, e.g. A,B,C",
    )
    det.add_argument(
        "--pattern",
        dest="expr",
        default=None,
        help="composite pattern expression, e.g. 'SEQ(A, !B, (C|D)+) WITHIN 10'",
    )
    add_store_args(det)
    det.add_argument("--partition", default="", help="partition ('' = default)")
    det.add_argument("--stam", action="store_true", help="skip-till-any-match")
    det.add_argument("--within", type=float, default=None)
    det.add_argument("--limit", type=int, default=None)
    det.add_argument("--show", type=int, default=20)
    det.add_argument(
        "--explain",
        action="store_true",
        help="print the chosen join order and pair cardinalities",
    )
    det.add_argument(
        "--profile",
        action="store_true",
        help="run under the tracer and print the per-stage time breakdown "
        "(implies --explain)",
    )
    det.set_defaults(fn=cmd_detect)

    sta = sub.add_parser(
        "stats",
        help="pairwise statistics of a pattern, or (without a pattern) "
        "per-table record counts and storage/compression accounting",
    )
    sta.add_argument("pattern", nargs="?", default=None)
    add_store_args(sta)
    sta.set_defaults(fn=cmd_stats)

    con = sub.add_parser("continue", help="rank likely next events")
    con.add_argument("pattern")
    add_store_args(con)
    con.add_argument("--mode", choices=("accurate", "fast", "hybrid"), default="hybrid")
    con.add_argument("--top-k", type=int, default=5)
    con.add_argument("--within", type=float, default=None)
    con.add_argument("--show", type=int, default=10)
    con.set_defaults(fn=cmd_continue)

    pro = sub.add_parser("profile", help="dataset shape of a log and/or a store")
    pro.add_argument("--log", default=None, help=".csv or .xes log file")
    pro.add_argument(
        "--store", default=None, help="index store directory to inspect/verify"
    )
    pro.set_defaults(fn=cmd_profile)

    met = sub.add_parser(
        "metrics", help="Prometheus-style metrics snapshot of a store"
    )
    add_store_args(met)
    met.add_argument(
        "--pattern",
        default=None,
        help="optionally run this detection first so serving counters move",
    )
    met.add_argument("--partition", default="", help="partition ('' = default)")
    met.set_defaults(fn=cmd_metrics)

    srv = sub.add_parser(
        "serve", help="serve a store to network clients (single or sharded)"
    )
    add_store_args(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=0, help="listen port (0 = ephemeral)"
    )
    srv.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="admission control: concurrent queries before 'overloaded'",
    )
    srv.add_argument(
        "--max-ingest-inflight",
        type=int,
        default=2,
        help="concurrent ingest batches before backpressure kicks in",
    )
    srv.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (clients may override)",
    )
    srv.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then drain (default: until Ctrl-C)",
    )
    srv.set_defaults(fn=cmd_serve)

    lod = sub.add_parser(
        "loadgen", help="closed-loop load generator against a running server"
    )
    lod.add_argument("--host", default="127.0.0.1")
    lod.add_argument("--port", type=int, required=True)
    lod.add_argument(
        "--pattern",
        action="append",
        required=True,
        help="read pattern (repeatable): A,B,C or a composite 'SEQ(...)'",
    )
    lod.add_argument("--clients", type=int, default=4)
    lod.add_argument("--duration", type=float, default=5.0)
    lod.add_argument(
        "--write-fraction",
        type=float,
        default=0.2,
        help="probability each request is an ingest batch",
    )
    lod.add_argument("--write-batch", type=int, default=8)
    lod.add_argument("--deadline-ms", type=float, default=None)
    lod.add_argument("--seed", type=int, default=0)
    lod.set_defaults(fn=cmd_loadgen)

    fed = sub.add_parser(
        "feed", help="append a batch log into an append-only event feed"
    )
    fed.add_argument("--log", required=True, help=".csv or .xes log file")
    fed.add_argument(
        "--feed", required=True, help="feed file to append to (JSONL)"
    )
    fed.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="events per append call (default: one append for the whole log)",
    )
    fed.add_argument(
        "--interval",
        type=float,
        default=0.0,
        help="seconds to sleep between chunks (paces the stream for demos)",
    )
    fed.add_argument(
        "--no-stamp",
        action="store_true",
        help="omit append stamps (disables freshness accounting downstream)",
    )
    fed.set_defaults(fn=cmd_feed)

    ing = sub.add_parser(
        "ingest",
        help="tail an event feed into a live index (local store or server)",
    )
    ing.add_argument("--feed", required=True, help="feed file to tail (JSONL)")
    ing.add_argument(
        "--checkpoint",
        default=None,
        help="durable offset checkpoint (default: <feed>.checkpoint)",
    )
    add_store_args(ing, required=False)
    ing.add_argument("--partition", default="", help="index partition name")
    ing.add_argument("--host", default="127.0.0.1")
    ing.add_argument(
        "--port",
        type=int,
        default=None,
        help="ship batches to a running 'repro serve' instead of --store",
    )
    ing.add_argument(
        "--batch-events",
        type=int,
        default=256,
        help="micro-batch size (one checkpoint write per batch)",
    )
    ing.add_argument(
        "--poll-ms",
        type=float,
        default=50.0,
        help="idle poll interval while following",
    )
    ing.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing for new appends (Ctrl-C drains and checkpoints)",
    )
    ing.add_argument(
        "--duration",
        type=float,
        default=None,
        help="follow for this many seconds, then drain and exit",
    )
    ing.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics exposition (freshness histogram, lag) at exit",
    )
    ing.set_defaults(fn=cmd_ingest)

    flt = sub.add_parser(
        "faults", help="replay crash-recovery fault-injection seeds"
    )
    flt.add_argument(
        "--ingest",
        action="store_true",
        help="run the ingest crash-replay harness instead of the store one",
    )
    flt.add_argument("--seed", type=int, default=None, help="one seed to replay")
    flt.add_argument(
        "--seeds", default=None, help="half-open seed range to sweep, e.g. 0:200"
    )
    flt.add_argument(
        "--ops", type=int, default=160, help="workload length per seed"
    )
    flt.add_argument(
        "--path",
        default=None,
        help="run in this directory and keep it (default: temp dir, removed)",
    )
    flt.set_defaults(fn=cmd_faults)

    dif = sub.add_parser(
        "diffcheck",
        help="differentially test indexed pattern queries vs the SASE oracle",
    )
    dif.add_argument("--seed", type=int, default=None, help="one seed to replay")
    dif.add_argument(
        "--seeds", default=None, help="half-open seed range to sweep, e.g. 0:500"
    )
    dif.add_argument(
        "--verbose", action="store_true", help="print passing seeds too"
    )
    dif.set_defaults(fn=cmd_diffcheck)

    upg = sub.add_parser(
        "upgrade",
        help="rewrite a store written by older code into the current on-disk "
        "format, once (a sharded root shard by shard)",
    )
    upg.add_argument("--store", required=True, help="index store directory")
    upg.set_defaults(fn=cmd_upgrade)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StoreFormatError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
