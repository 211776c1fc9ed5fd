"""Shared workload preparation for benchmarks and the experiment runner."""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.core.builder import UpdateStats
from repro.core.engine import SequenceIndex
from repro.core.model import EventLog
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.logs.datasets import load_dataset
from repro.obs.trace import NULL_TRACER, activate

#: timed rounds per experiment cell; the cell is the fastest of them
ROUNDS = 5

_DATASET_CACHE: dict[tuple[str, float], EventLog] = {}
_INDEX_CACHE: dict[tuple[str, float, Policy], SequenceIndex] = {}


def best_of_rounds(
    columns: Sequence[Callable[[], Any]],
) -> tuple[list[float], list[Any]]:
    """The one timing rule of the experiments: each column's fastest of
    :data:`ROUNDS` interleaved rounds.

    Every column is called once first, under the ambient tracer, so a
    traced run keeps the stage spans of its profile and the timed calls
    find warm caches.  Then each round calls every column in order under
    :data:`~repro.obs.trace.NULL_TRACER`.  A timed call's result is dropped
    before the clock stops, so no timed result is alive for a later call's
    garbage collection to walk; a column should return ``None`` or a small
    total.  Returns each column's minimum seconds and the warm-up calls'
    return values.
    """
    warm = [column() for column in columns]
    best = [float("inf")] * len(columns)
    with activate(NULL_TRACER):
        for _ in range(ROUNDS):
            for i, column in enumerate(columns):
                start = perf_counter()
                column()
                best[i] = min(best[i], perf_counter() - start)
    return best, warm


def prepared_dataset(name: str, scale: float) -> EventLog:
    """Load a registry dataset with process-wide caching."""
    key = (name, scale)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, scale=scale)
    return _DATASET_CACHE[key]


def build_index(log: EventLog, policy: Policy = Policy.STNM) -> UpdateStats:
    """The timed index build: ``log`` into a fresh engine on its own
    temporary :class:`~repro.kvstore.lsm.LSMStore`, closed before it
    returns, so the flush at close is part of the build."""
    with SequenceIndex(policy=policy) as index:
        return index.update(log)


def prepared_index(name: str, scale: float, policy: Policy) -> SequenceIndex:
    """Cached index over a registry dataset (for query benchmarks), flushed
    so that its queries read SSTables; :func:`close_indexes` closes it."""
    key = (name, scale, policy)
    if key not in _INDEX_CACHE:
        index = SequenceIndex(policy=policy)
        index.update(prepared_dataset(name, scale))
        index.flush()
        _INDEX_CACHE[key] = index
    return _INDEX_CACHE[key]


def close_indexes() -> None:
    """Close every cached index, which removes its store's directory."""
    while _INDEX_CACHE:
        _INDEX_CACHE.popitem()[1].close()


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
