"""Shared workload preparation for benchmarks and the experiment runner."""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from repro.core.engine import SequenceIndex
from repro.core.model import EventLog
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.kvstore import InMemoryStore
from repro.logs.datasets import load_dataset

_DATASET_CACHE: dict[tuple[str, float], EventLog] = {}
_INDEX_CACHE: dict[tuple[str, float, Policy], SequenceIndex] = {}


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``fn`` once; return (elapsed seconds, return value)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def prepared_dataset(name: str, scale: float) -> EventLog:
    """Load a registry dataset with process-wide caching."""
    key = (name, scale)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, scale=scale)
    return _DATASET_CACHE[key]


def build_index(log: EventLog, policy: Policy = Policy.STNM) -> SequenceIndex:
    """Build a fresh in-memory index over ``log`` (the timed operation)."""
    index = SequenceIndex(InMemoryStore(), policy=policy)
    index.update(log)
    return index


def prepared_index(name: str, scale: float, policy: Policy) -> SequenceIndex:
    """Cached index over a registry dataset (for query benchmarks)."""
    key = (name, scale, policy)
    if key not in _INDEX_CACHE:
        _INDEX_CACHE[key] = build_index(prepared_dataset(name, scale), policy)
    return _INDEX_CACHE[key]


def stnm_patterns(
    log: EventLog, length: int, count: int, seed: int = 0
) -> list[list[str]]:
    """Patterns sampled as gapped subsequences of real traces (STNM workload)."""
    rng = random.Random(seed)
    traces = [trace for trace in log if len(trace) >= length]
    if not traces:
        alphabet = sorted(log.activities())
        return [
            [rng.choice(alphabet) for _ in range(length)] for _ in range(count)
        ]
    patterns = []
    for _ in range(count):
        trace = rng.choice(traces)
        positions = sorted(rng.sample(range(len(trace)), length))
        patterns.append([trace.activities[i] for i in positions])
    return patterns


def rare_pair_patterns(
    log: EventLog,
    index: SequenceIndex,
    length: int,
    count: int,
    seed: int = 0,
    pool: int | None = None,
) -> list[list[str]]:
    """STNM patterns of ``length`` containing at least one *rare* pair.

    Samples a pool of gapped-subsequence patterns (so every pattern has
    matches) and keeps the ``count`` whose cheapest consecutive pair has
    the lowest ``Count`` cardinality, preferring patterns whose rare pair
    is *not* the first -- the workload where selectivity-driven join
    reordering pays off most, since naive left-to-right evaluation drags
    a large intermediate chain set up to the rare pair.
    """
    candidates = stnm_patterns(log, length, pool or max(count * 10, 50), seed)

    def rank(pattern: list[str]) -> tuple[int, bool]:
        pairs = list(zip(pattern, pattern[1:]))
        cards = index.tables.get_pair_counts(pairs)
        by_pair = [cards[pair][1] for pair in pairs]
        rarest = min(range(len(by_pair)), key=lambda i: by_pair[i])
        return (by_pair[rarest], rarest == 0)

    candidates.sort(key=rank)
    return candidates[:count]


#: operator kinds cycled by :func:`composite_patterns`
COMPOSITE_KINDS = ("windowed", "alternation", "kleene", "negation")


def composite_patterns(
    log: EventLog,
    count: int,
    seed: int = 0,
    length: int = 4,
    index: SequenceIndex | None = None,
    pool: int | None = None,
) -> list[tuple[str, Pattern]]:
    """Composite-pattern workload: ``(kind, Pattern)`` pairs over real traces.

    Cycles through :data:`COMPOSITE_KINDS`.  Every pattern starts from a
    gapped subsequence of a real trace -- so the positive skeleton is known
    to occur -- then applies one operator per kind:

    * ``windowed`` -- the plain sequence under a ``WITHIN`` clause sized to
      1.5x the sampled occurrence's span (tight enough to cut matches,
      loose enough to keep the sampled one);
    * ``alternation`` -- one middle element widened with a second real
      activity;
    * ``kleene`` -- one middle element suffixed with ``+``;
    * ``negation`` -- a ``!X`` element (random real activity) inserted
      between two positives.

    With an ``index``, skeletons are sampled from a larger ``pool`` and the
    ``count`` whose cheapest consecutive pair has the lowest ``Count`` are
    kept -- the selective workload where prune-then-verify pays off (the
    composite analogue of :func:`rare_pair_patterns`).
    """
    rng = random.Random(seed)
    alphabet = sorted(log.activities())
    traces = [trace for trace in log if len(trace) >= length]
    if traces:
        pool_size = (pool or max(count * 10, 50)) if index is not None else count
        skeletons = []
        for _ in range(pool_size):
            trace = rng.choice(traces)
            positions = sorted(rng.sample(range(len(trace)), length))
            base = [trace.activities[p] for p in positions]
            span = trace.timestamps[positions[-1]] - trace.timestamps[positions[0]]
            skeletons.append((base, span))
        if index is not None:

            def rank(item: tuple[list[str], float]) -> int:
                pairs = list(zip(item[0], item[0][1:]))
                cards = index.tables.get_pair_counts(pairs)
                return min(cards[pair][1] for pair in pairs)

            skeletons.sort(key=rank)
        skeletons = skeletons[:count]
    else:
        skeletons = [
            ([rng.choice(alphabet) for _ in range(length)], float(length))
            for _ in range(count)
        ]
    workload: list[tuple[str, Pattern]] = []
    for i, (base, span) in enumerate(skeletons):
        kind = COMPOSITE_KINDS[i % len(COMPOSITE_KINDS)]
        mid = rng.randrange(1, length - 1) if length > 2 else length - 1
        elements = list(base)
        within = None
        if kind == "windowed":
            within = max(span, 1.0) * 1.5
        elif kind == "alternation":
            others = [a for a in alphabet if a != elements[mid]]
            elements[mid] = f"({elements[mid]}|{rng.choice(others or alphabet)})"
        elif kind == "kleene":
            elements[mid] = f"{elements[mid]}+"
        else:  # negation
            elements.insert(mid, f"!{rng.choice(alphabet)}")
        workload.append((kind, Pattern.of(*elements, within=within)))
    return workload


def contiguous_patterns(
    log: EventLog, length: int, count: int, seed: int = 0
) -> list[list[str]]:
    """Patterns sampled as contiguous windows of real traces (SC workload)."""
    rng = random.Random(seed)
    traces = [trace for trace in log if len(trace) >= length]
    if not traces:
        return stnm_patterns(log, length, count, seed)
    patterns = []
    for _ in range(count):
        trace = rng.choice(traces)
        start = rng.randint(0, len(trace) - length)
        patterns.append(trace.activities[start : start + length])
    return patterns
