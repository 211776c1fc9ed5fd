"""Compaction strategies for the LSM store.

Two strategies live behind the same seam (``LSMStore(compaction=...)``).
A strategy only *plans*: it hands the store a :class:`CompactionPick`, and
the store's one executor (``LSMStore._run_compaction``) writes, verifies
and swaps the merge the same way for both.

**Size-tiered** picks a *contiguous* run of SSTables (contiguity in
manifest order is what keeps merge-delta history well-ordered) whose sizes
are within a band of each other, merged into a single L0 replacement.
Tombstones and baseless merge deltas can only be finalised when the run
includes the oldest table -- otherwise an older file might still hold the
base value the deltas apply to.

**Leveled** organises tables into levels: L0 holds raw flush output
(tables may overlap; recency = manifest order), every deeper level is a
single sorted run of key-disjoint tables with a byte budget growing by
``fanout`` per level.  When L0 accumulates ``l0_compact_tables`` tables
they are merged with the overlapping slice of L1; when a deeper level
exceeds its budget one victim table is promoted into the overlapping
slice of the next level (cascading on overflow).  A promotion whose
victim overlaps nothing below it is a *trivial move* -- a manifest-only
level reassignment that rewrites zero bytes.  ``plan_leveled`` is a pure
function over table metadata so the planner is directly property-testable
(see ``tests/kvstore/test_leveled_planner.py``).

Recency ordering is shared by both strategies: the store keeps one flat
list, oldest shadow first, i.e. deepest level first and L0 last
(oldest -> newest within L0), so merge ties resolve newest-first whichever
strategy planned the merge.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.kvstore.merge import MergeOperator, collapse_records


@dataclass(slots=True)
class CompactionPick:
    """One unit of compaction work, as either strategy hands it to the store.

    ``inputs`` are the tables to merge, oldest shadow first; the output
    belongs to ``target_level``.  ``finalize`` says no older table can hold
    a base for these keys, so tombstones drop and baseless deltas become
    puts.  ``split_bytes`` of ``None`` means one output whose bloom filter
    is sized for the sum of the inputs' records; otherwise outputs are cut
    at that many raw bytes, and additionally once they have crossed more
    than ``grandparent_limit`` bytes of ``grandparents`` (the run one level
    below the target).  ``trivial_move`` marks a promotion that rewrites
    nothing: the single input just changes its level in the manifest.
    """

    inputs: list
    target_level: int = 0
    finalize: bool = False
    split_bytes: int | None = None
    grandparents: Sequence = ()
    grandparent_limit: int = 0
    trivial_move: bool = False


def plan_size_tiered(
    tables: list, min_tables: int = 4, size_ratio: float = 2.0
) -> CompactionPick | None:
    """Choose a compaction run over ``tables`` listed oldest -> newest.

    Picks the first (oldest) contiguous window of at least ``min_tables``
    tables whose ``data_bytes`` all lie within ``size_ratio`` of the window
    minimum, or ``None`` when nothing qualifies.  The pick finalizes only
    when the window starts at the oldest table.
    """
    sizes = [table.data_bytes for table in tables]
    count = len(sizes)
    start = 0
    while start <= count - min_tables:
        window_min = sizes[start]
        window_max = sizes[start]
        stop = start
        while stop < count:
            candidate_min = min(window_min, sizes[stop])
            candidate_max = max(window_max, sizes[stop])
            if candidate_max > max(candidate_min, 1) * size_ratio:
                break
            window_min, window_max = candidate_min, candidate_max
            stop += 1
        if stop - start >= min_tables:
            return CompactionPick(list(tables[start:stop]), finalize=start == 0)
        start += 1
    return None


class LeveledConfig:
    """Tuning knobs for the leveled strategy.

    ``l0_compact_tables`` is the hard L0 trigger (the store reuses its
    ``compaction_min_tables`` knob for it by default); ``base_level_bytes``
    is L1's byte budget and each deeper level multiplies it by ``fanout``.
    ``max_output_bytes`` bounds a single merged output table (promotions
    split their output at this size so one merge never produces a table
    that must immediately be re-split).  ``soft_ratio`` scales both
    triggers down for the background compactor's early rounds, smoothing
    work ahead of the hard thresholds instead of bursting at them.

    ``grandparent_limit_factor`` caps how much *next-deeper* level data a
    single merge output may span: while writing outputs into level ``n``
    the store cuts the current output once it has crossed more than
    ``factor * max_output_bytes`` of level ``n + 1``.  Without the cut, a
    workload with cold gaps in its keyspace (e.g. period-partitioned
    index regions) produces "bridge" tables whose key range straddles a
    gap; every later promotion through that range drags the bridge into a
    rewrite.  Cutting at grandparent boundaries keeps outputs aligned
    with the cold runs below them, so they can later sink as
    manifest-only trivial moves.
    """

    __slots__ = (
        "l0_compact_tables",
        "base_level_bytes",
        "fanout",
        "max_output_bytes",
        "soft_ratio",
        "grandparent_limit_factor",
    )

    def __init__(
        self,
        l0_compact_tables: int = 4,
        base_level_bytes: int = 8 * 1024 * 1024,
        fanout: int = 8,
        max_output_bytes: int | None = None,
        soft_ratio: float = 0.75,
        grandparent_limit_factor: int = 8,
    ) -> None:
        if l0_compact_tables < 2:
            raise ValueError("l0_compact_tables must be at least 2")
        if base_level_bytes <= 0:
            raise ValueError("base_level_bytes must be positive")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if not 0.0 < soft_ratio <= 1.0:
            raise ValueError("soft_ratio must be in (0, 1]")
        if grandparent_limit_factor < 1:
            raise ValueError("grandparent_limit_factor must be at least 1")
        self.l0_compact_tables = l0_compact_tables
        self.base_level_bytes = base_level_bytes
        self.fanout = fanout
        self.max_output_bytes = max_output_bytes or base_level_bytes
        self.soft_ratio = soft_ratio
        self.grandparent_limit_factor = grandparent_limit_factor

    def level_target_bytes(self, level: int) -> int:
        """Byte budget for ``level`` (>= 1): base * fanout^(level-1)."""
        return self.base_level_bytes * self.fanout ** (level - 1)


class LeveledPlan:
    """One promotion: ``sources`` at ``level`` merge into overlapping
    ``targets`` at ``level + 1``."""

    __slots__ = ("level", "sources", "targets", "reason")

    def __init__(self, level: int, sources: list, targets: list, reason: str) -> None:
        self.level = level
        self.sources = sources
        self.targets = targets
        self.reason = reason

    @property
    def target_level(self) -> int:
        return self.level + 1

    @property
    def is_trivial_move(self) -> bool:
        """A single disjoint victim can change level without a rewrite.

        Only for L1+ sources: L0 promotions always take every L0 table and
        those may overlap *each other*, so they must go through the merge.
        """
        return self.level >= 1 and len(self.sources) == 1 and not self.targets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeveledPlan(L{self.level}->L{self.target_level}, "
            f"{len(self.sources)} sources, {len(self.targets)} targets, "
            f"{self.reason})"
        )


def _ranges_overlap(
    lo_a: bytes | None, hi_a: bytes | None, lo_b: bytes | None, hi_b: bytes | None
) -> bool:
    """Closed-interval overlap; an unknown bound means "may span anything"."""
    if lo_a is None or hi_a is None or lo_b is None or hi_b is None:
        return True
    return lo_a <= hi_b and lo_b <= hi_a


def _overlapping(tables: list, lo: bytes | None, hi: bytes | None) -> list:
    return [
        t for t in tables if _ranges_overlap(t.min_key, t.max_key, lo, hi)
    ]


def plan_leveled(
    levels: list[list], config: LeveledConfig, soft: bool = False
) -> LeveledPlan | None:
    """Choose the next promotion, or ``None`` when every level is in shape.

    ``levels[0]`` is L0 in recency order (oldest -> newest); each deeper
    ``levels[n]`` is a key-disjoint run.  Tables expose ``data_bytes``,
    ``min_key`` and ``max_key`` (``None`` bounds are treated as "may
    overlap anything", which is the safe reading for legacy tables whose
    manifest predates key-range tracking).

    Checked shallowest-first so an overflow cascades naturally: promoting
    into L(n+1) may overflow it, and the next round then picks L(n+1).
    ``soft`` scales the triggers by ``soft_ratio`` -- the background
    compactor runs with it to start promotions *before* the hard
    thresholds would force them onto the foreground path.

    The victim for an L1+ promotion is the table whose key range overlaps
    the fewest bytes in the next level (ties to the smallest ``min_key``):
    deterministic, and it steers promotions toward the cheap end of the
    keyspace -- append-mostly workloads promote their cold tail as trivial
    moves instead of rewriting the hot head.
    """
    if not levels:
        return None
    l0 = levels[0]
    l0_trigger = config.l0_compact_tables
    if soft:
        l0_trigger = max(2, int(l0_trigger * config.soft_ratio))
    if len(l0) >= l0_trigger:
        lo: bytes | None = None
        hi: bytes | None = None
        known = all(t.min_key is not None and t.max_key is not None for t in l0)
        if known:
            lo = min(t.min_key for t in l0)
            hi = max(t.max_key for t in l0)
        targets = _overlapping(levels[1], lo, hi) if len(levels) > 1 else []
        return LeveledPlan(0, list(l0), targets, "soft-l0" if soft else "l0")
    for n in range(1, len(levels)):
        tables = levels[n]
        if not tables:
            continue
        threshold = config.level_target_bytes(n)
        if soft:
            threshold = int(threshold * config.soft_ratio)
        if sum(t.data_bytes for t in tables) <= threshold:
            continue
        below = levels[n + 1] if n + 1 < len(levels) else []

        def overlap_cost(table) -> tuple[int, bytes]:
            cost = sum(
                t.data_bytes
                for t in _overlapping(below, table.min_key, table.max_key)
            )
            return cost, table.min_key or b""

        victim = min(tables, key=overlap_cost)
        targets = _overlapping(below, victim.min_key, victim.max_key)
        return LeveledPlan(n, [victim], targets, "soft-overflow" if soft else "overflow")
    return None


class SizeTieredStrategy:
    """``compaction="size_tiered"``: every output is one L0 table."""

    name = "size_tiered"
    #: foreground rule after a flush: one round only -- a second inline
    #: round would move SSTable boundaries (the store's bytes on disk)
    cascade_inline = False

    def __init__(self, min_tables: int) -> None:
        self.min_tables = min_tables

    def plan(self, tables: Any, soft: bool = False) -> CompactionPick | None:
        """Next round over the table set (``soft`` has no size-tiered meaning)."""
        return plan_size_tiered(tables.readers, min_tables=self.min_tables)

    def plan_full(self, tables: Any) -> CompactionPick | None:
        """Major compaction: everything into a single table."""
        readers = list(tables.readers)
        return CompactionPick(readers, finalize=True) if len(readers) > 1 else None


class LeveledStrategy:
    """``compaction="leveled"``: a :class:`LeveledPlan` becomes the pick."""

    name = "leveled"
    #: a promotion can overflow the next level: the foreground drains the
    #: cascade so the hard invariants hold when the flush returns
    cascade_inline = True

    def __init__(self, config: LeveledConfig) -> None:
        self.config = config

    def _pick(
        self, inputs: list, target_level: int, finalize: bool, grandparents: list
    ) -> CompactionPick:
        split = self.config.max_output_bytes
        return CompactionPick(
            inputs,
            target_level,
            finalize,
            split_bytes=split,
            grandparents=grandparents,
            grandparent_limit=split * self.config.grandparent_limit_factor,
        )

    def plan(self, tables: Any, soft: bool = False) -> CompactionPick | None:
        levels = tables.levels()
        plan = plan_leveled(levels, self.config, soft=soft)
        if plan is None:
            return None
        target = plan.target_level
        if plan.is_trivial_move:
            return CompactionPick(plan.sources, target, trivial_move=True)
        deeper = levels[target + 1 :]
        return self._pick(
            list(plan.targets) + list(plan.sources),
            target,
            finalize=not any(deeper),
            grandparents=deeper[0] if deeper else [],
        )

    def plan_full(self, tables: Any) -> CompactionPick | None:
        """Major compaction: one key-disjoint run at the deepest populated
        level (split at the configured output size) -- the same
        full-finalize merge a size-tiered ``compact_all`` performs."""
        readers = list(tables.readers)
        depth = max((r.level for r in readers), default=0)
        if len(readers) < 2 and (not readers or depth > 0):
            return None
        return self._pick(readers, max(1, depth), True, [])


def resolve_strategy(
    name: str, compaction_min_tables: int, leveled: LeveledConfig | None
) -> SizeTieredStrategy | LeveledStrategy:
    """The strategy behind ``LSMStore(compaction=name, leveled=...)``.

    The name only affects how future compactions are *planned*; both
    strategies read the same flat, shadow-ordered table list, so a store
    written under one reopens (and keeps compacting) under the other with
    no migration step.  Without an explicit ``leveled`` config the L0
    trigger reuses ``compaction_min_tables``.
    """
    if name == "size_tiered":
        return SizeTieredStrategy(compaction_min_tables)
    if name == "leveled":
        return LeveledStrategy(
            leveled or LeveledConfig(l0_compact_tables=max(2, compaction_min_tables))
        )
    raise ValueError(f"unknown compaction strategy {name!r}")


def group_records(
    sources_oldest_first: Iterable[Iterable[tuple[bytes, int, bytes]]],
    stop: bytes | None = None,
) -> Iterator[tuple[bytes, list[tuple[int, bytes]]]]:
    """K-way merge sorted sources into ``(key, records newest first)``.

    A source is an SSTable reader or any iterable of ``(key, kind, value)``
    in key order; one that holds several records for a key lists them
    newest first.  The merge ends before the first key ``>= stop``.
    """
    # rank 0 = newest source, so tuples (key, rank) sort ties newest-first.
    heap: list[tuple[bytes, int, int, bytes, Iterator[tuple[bytes, int, bytes]]]] = []
    for rank, source in enumerate(reversed(list(sources_oldest_first))):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            key, kind, value = first
            heap.append((key, rank, kind, value, iterator))
    heapq.heapify(heap)
    while heap:
        key = heap[0][0]
        if stop is not None and key >= stop:
            return
        records: list[tuple[int, bytes]] = []
        while heap and heap[0][0] == key:
            _, rank, kind, value, iterator = heap[0]
            records.append((kind, value))
            nxt = next(iterator, None)
            if nxt is not None:
                nkey, nkind, nvalue = nxt
                heapq.heapreplace(heap, (nkey, rank, nkind, nvalue, iterator))
            else:
                heapq.heappop(heap)
        yield key, records


def merge_records(
    readers_oldest_first: Iterable[Iterable[tuple[bytes, int, bytes]]],
    operator_for_key: Callable[[bytes], MergeOperator | None],
    finalize: bool,
) -> Iterator[tuple[int, bytes, bytes]]:
    """K-way merge readers, yielding collapsed ``(kind, key, value)`` records.

    ``finalize`` indicates the run includes the oldest table, allowing
    tombstone dropping and baseless-delta finalisation.
    """
    for key, records in group_records(readers_oldest_first):
        resolved = collapse_records(records, operator_for_key(key), finalize)
        if resolved is not None:
            kind, value = resolved
            yield kind, key, value


class BackgroundCompactor:
    """Daemon thread driving a store's compaction rounds off the write path.

    The store signals :meth:`trigger` after every flush; the worker then
    drains qualifying compaction runs (``store._compaction_round()`` until
    it reports no plan).  Rounds run with ``soft=True``: the leveled
    planner then compacts down to ``soft_ratio`` of each trigger, starting
    promotions early and off the write path so the hard thresholds --
    which the inline (foreground) path enforces -- are rarely hit in a
    burst.  All coordination with foreground reads/writes
    happens inside the store's own locking: the worker merges tables with
    no lock held and swaps the SSTable set atomically under the store's
    write lock, so a crash (or :meth:`stop`) between output and swap leaves
    the pre-compaction tables authoritative.

    Unexpected exceptions are recorded on :attr:`last_error` and counted in
    the store's ``compaction_aborts`` metric instead of killing the thread.
    """

    def __init__(self, store: Any, idle_wait: float = 1.0) -> None:
        self._store = store
        self._idle_wait = idle_wait
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self.last_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="lsm-compactor", daemon=True
        )
        self._thread.start()

    def trigger(self) -> None:
        """Wake the worker (called by the store after a flush)."""
        self._wake.set()

    def stop(self) -> None:
        """Ask the worker to exit and join it (idempotent)."""
        self._stopped.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        from repro.faults.schedule import SimulatedCrash

        while not self._stopped.is_set():
            self._wake.wait(timeout=self._idle_wait)
            self._wake.clear()
            if self._stopped.is_set():
                return
            try:
                while self._store._compaction_round(soft=True):
                    if self._stopped.is_set():
                        return
            except SimulatedCrash as exc:
                # An injected crash means "the process died here": record it
                # and stop compacting -- retrying would mask the crash.
                self.last_error = exc
                return
            except Exception as exc:  # noqa: BLE001 - worker must survive
                self.last_error = exc
                self._store.metrics.bump("compaction_aborts")
