"""What every workload shares: the dataset, the fixture build, samplers, stats."""

from __future__ import annotations

import bisect
import os
import platform
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.engine import SequenceIndex
from repro.core.model import EventLog, Trace
from repro.core.pattern import Pattern
from repro.kvstore import LSMStore
from repro.logs.datasets import load_dataset

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

DATASET = "max_10000"
#: 1 000 traces, ~34 k events, 160 activities; a store of ~29 MB, which is
#: 3.6x the 8 MiB block cache, built in 7 flushes.  The issue's 0.2 does not
#: fit the driver's cap on total run time (see README).
DEFAULT_SCALE = 0.1
UPDATE_CALLS = 10
#: Patterns are drawn once per dataset, not per seed: runs with different seeds
#: then time the same queries, and a metric's spread across seeds is timing
#: noise, not sampling noise.  The seed drives the order in which traces
#: arrive, the order in which queries and requests are issued, and the write
#: streams.
PATTERN_SEED = 2021
BLOCK_CACHE_BYTES = 8 * 1024 * 1024  # the LSMStore default, stated in output


class HostSpeed:
    """How fast the host runs while a run measures, from calibration units
    that the measuring thread runs between its steps.

    The CPU of the shared 2-core VM this was written on changes speed by up to
    28 % in phases that last from seconds to minutes; process time tracks wall
    time, so it is the processor and not the scheduler.  A phase can outlast a
    run, so no repetition inside a run averages it away, and three runs of ten
    in a slow phase are enough to put a metric's spread beyond any bound the
    driver allows.  ``sample()`` runs a fixed unit of interpreter work (about
    2 ms) and keeps when it ran and how long it took; a workload calls it
    between the steps it times.  ``cost(start, end)`` is the mean unit time
    between two ``perf_counter`` readings over ``REFERENCE_UNIT_S``, above 1
    on a slow host: a duration measured over that interval, divided by it, is
    the duration at the reference speed.

    The units run on the thread that does the work, not on one beside it: at
    times the host leaves the VM less than two whole processors, and a
    calibration thread then reads slow while single-threaded work runs at full
    speed (ten rounds with a thread overcorrected ``query_cold`` by 10 to
    25 % in such a phase).
    """

    REFERENCE_UNIT_S = 0.002  # the unit at this host's usual speed

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._unit_s: list[float] = []

    def sample(self, units: int = 1) -> None:
        for _ in range(units):
            start = time.perf_counter()
            total, table = 0, {}
            for i in range(20_000):
                total += i * i % 7
                table[i & 255] = (total, i)
            self._unit_s.append(time.perf_counter() - start)
            self._starts.append(start)  # appended last: a reader sees whole samples

    def _between(self, start: float, end: float, margin: int) -> list[float]:
        starts = self._starts[:]
        low = max(0, bisect.bisect_left(starts, start) - margin)
        high = min(len(starts), bisect.bisect_right(starts, end) + margin)
        return self._unit_s[low:high]

    def cost(self, start: float, end: float) -> float:
        """Mean unit time in ``[start, end]`` over the reference; the five
        nearest units on either side count too, so an interval between two
        samples has some.  A unit that took twice the median was descheduled,
        not slowed: left out."""
        units = self._between(start, end, 5)
        if not units:
            return 1.0
        limit = 2.0 * statistics.median(units)
        return statistics.fmean(u for u in units if u <= limit) / self.REFERENCE_UNIT_S

    def spent(self, start: float, end: float) -> float:
        """Seconds that sampling itself took inside ``[start, end]``."""
        return sum(self._between(start, end, 0))


@dataclass
class RunConfig:
    seed: int
    seconds: float
    trace: bool
    scale: float
    work_dir: Path
    speed: HostSpeed
    recorder: SpanRecorder | None = None


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    end_to_end: dict[str, float]
    attempted: int
    failed: int
    extras: dict[str, float] = field(default_factory=dict)  # ungated, printed
    per_layer: dict[str, float] = field(default_factory=dict)  # traced runs
    obs: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def environment(cfg: RunConfig) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "commit": commit,
        "seed": cfg.seed,
        "scale": cfg.scale,
        "seconds": cfg.seconds,
        "dataset": DATASET,
    }


# -- timing and statistics ------------------------------------------------------


def timed(cfg: RunConfig, name: str, fn: Callable[..., Any], *args: Any) -> tuple[float, Any]:
    """``(seconds, result)`` of ``fn(*args)``; a span too when tracing."""
    start = time.perf_counter()
    if cfg.recorder is None:
        result = fn(*args)
    else:
        result = cfg.recorder.call(name, fn, *args)
    return time.perf_counter() - start, result


def at_reference(cfg: RunConfig, start: float, end: float) -> float:
    """The seconds of work between two ``perf_counter`` readings, at the
    host's reference speed (see :class:`HostSpeed`)."""
    return (end - start - cfg.speed.spent(start, end)) / cfg.speed.cost(start, end)


def repeats(seconds: float, nominal_s: float) -> int:
    """How often a unit of work (a build, a pass) is repeated in a run.

    Fixed by ``--seconds`` and the unit's nominal cost at the baseline commit
    alone, never by how fast the code under test happens to run: both sides of
    a comparison then take the same number of draws, and an estimate does not
    depend on how many units happened to fit.  At least two, so that every
    unit has a fastest of two.
    """
    return max(2, round(seconds / nominal_s))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 on an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hit_ratio(stats: dict[str, int]) -> float:
    """Hits over lookups of a cache's ``stats()`` (0.0 for a disabled cache)."""
    hits = stats.get("hits", 0)
    return ratio(hits, hits + stats.get("misses", 0))


def dir_bytes(path: str | Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- dataset and fixture ----------------------------------------------------------


def load_log(cfg: RunConfig) -> tuple[float, EventLog]:
    """Generate the registry dataset; the time is ``logs.generate_s``."""
    return timed(cfg, "logs.generate", load_dataset, DATASET, cfg.scale)


def update_batches(log: EventLog, seed: int) -> list[EventLog]:
    """The log as ``UPDATE_CALLS`` batches of whole traces, seed-shuffled."""
    traces = list(log)
    random.Random(seed).shuffle(traces)
    n = len(traces)
    return [
        EventLog(traces[i * n // UPDATE_CALLS:(i + 1) * n // UPDATE_CALLS])
        for i in range(UPDATE_CALLS)
    ]


def open_store(path: str | Path) -> LSMStore:
    """The store an operator gets from ``repro index`` / ``repro serve``:
    every constructor default (sync_wal off, 4 MiB memtable, 8 MiB block
    cache, size-tiered foreground compaction, no compression)."""
    return LSMStore(str(path))


def build_store(path: str | Path, batches: list[EventLog], speed: HostSpeed) -> None:
    """The fixture build shared by the read workloads: what index_bulk times."""
    index = SequenceIndex(open_store(path))
    for batch in batches:
        speed.sample(5)
        index.update(batch)
    speed.sample(5)
    index.close()
    speed.sample(5)


# -- pattern samplers (seeded; every pattern occurs in some trace) ----------------


def sample_sequences(rng: random.Random, traces: list[Trace], length: int,
                     count: int, taken: set) -> list[tuple[str, ...]]:
    """``count`` distinct gapped subsequences of real traces, not in ``taken``."""
    eligible = [trace for trace in traces if len(trace) >= length]
    out: list[tuple[str, ...]] = []
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        trace = rng.choice(eligible)
        positions = sorted(rng.sample(range(len(trace)), length))
        pattern = tuple(trace.activities[i] for i in positions)
        if pattern not in taken:
            taken.add(pattern)
            out.append(pattern)
    return out


COMPOSITE_KINDS = ("windowed", "alternation", "kleene", "negation")


def sample_composites(rng: random.Random, traces: list[Trace], alphabet: list[str],
                      count: int, taken: set) -> list[Pattern]:
    """Length-4 skeletons from real traces, one operator each, in rotation."""
    length = 4
    eligible = [trace for trace in traces if len(trace) >= length]
    out: list[Pattern] = []
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        trace = rng.choice(eligible)
        positions = sorted(rng.sample(range(len(trace)), length))
        elements = [trace.activities[p] for p in positions]
        kind = COMPOSITE_KINDS[len(out) % len(COMPOSITE_KINDS)]
        mid = rng.randrange(1, length - 1)
        within = None
        if kind == "windowed":
            span = trace.timestamps[positions[-1]] - trace.timestamps[positions[0]]
            within = max(span, 1.0) * 1.5
        elif kind == "alternation":
            other = rng.choice([a for a in alphabet if a != elements[mid]])
            elements[mid] = f"({elements[mid]}|{other})"
        elif kind == "kleene":
            elements[mid] = f"{elements[mid]}+"
        else:
            elements.insert(mid, f"!{rng.choice(alphabet)}")
        pattern = Pattern.of(*elements, within=within)
        if pattern not in taken:
            taken.add(pattern)
            out.append(pattern)
    return out


def match_set(matches: Any) -> set[tuple[str, tuple[float, ...]]]:
    return {(m.trace_id, tuple(m.timestamps)) for m in matches}


def _greedy_pairs(activities: list[str], timestamps: list, a: str, b: str) -> list[tuple]:
    """STNM pairs of one type pair, straight from the definition: the next
    ``a``, the first ``b`` strictly after it, emit, resume after that ``b``."""
    pairs = []
    i, n = 0, len(activities)
    while i < n:
        while i < n and activities[i] != a:
            i += 1
        j = i + 1
        while j < n and activities[j] != b:
            j += 1
        if j >= n:
            break
        pairs.append((timestamps[i], timestamps[j]))
        i = j + 1
    return pairs


def chain_oracle(log: EventLog, pattern: Sequence[str]) -> set[tuple[str, tuple]]:
    """Reference for a plain-sequence ``detect`` (the paper's Algorithm 2):
    chain each trace's greedy pairs on shared timestamps.

    This, not ``SaseEngine``, is the oracle for plain sequences: the pair
    chain finds a subset of the automaton's skip-till-next-match runs once
    a pattern has three or more elements.  Composite patterns go through
    the verifying path and are checked against ``SaseEngine``.
    """
    needed = set(pattern)
    out = set()
    for trace in log:
        if not needed <= set(trace.activities):
            continue
        acts, stamps = trace.activities, trace.timestamps
        chains = [list(p) for p in _greedy_pairs(acts, stamps, pattern[0], pattern[1])]
        for k in range(1, len(pattern) - 1):
            step = dict(_greedy_pairs(acts, stamps, pattern[k], pattern[k + 1]))
            chains = [c + [step[c[-1]]] for c in chains if c[-1] in step]
        out.update((trace.trace_id, tuple(chain)) for chain in chains)
    return out


def reference_matches(log: EventLog, sase: Any, pattern: Any) -> set[tuple[str, tuple]]:
    """The expected match set of a plain sequence or a composite pattern."""
    if isinstance(pattern, Pattern):
        return match_set(sase.query(pattern))
    return chain_oracle(log, pattern)
