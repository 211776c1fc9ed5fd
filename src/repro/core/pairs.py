"""Event-pair creation (§4 of the paper).

Given one trace, produce -- for every ordered pair of event types ``(a, b)``
present -- the timestamps at which the two-event pattern ``a .. b`` completes
under the chosen policy:

* **Strict contiguity (SC)**: consecutive events only.  ``(a, b)`` pairs are
  exactly ``zip(trace, trace[1:])``.
* **Skip-till-next-match (STNM)**: for each type pair independently, a
  greedy left-to-right non-overlapping matching: take the earliest pending
  occurrence of ``a``, the first ``b`` strictly after it, emit, and resume
  searching for ``a`` after the emitted ``b`` (Table 3 of the paper).

The three STNM flavors (Algorithms 6-8) are distinct computation strategies
for the *same* output; the test suite enforces that they agree with each
other and with :func:`reference_stnm_pairs` on arbitrary traces.  The index
builds with Indexing (the paper's recommended flavor); Parsing and State are
what the Table 5 and Figure 3 experiments time beside it.

Every flavor takes plain parallel lists ``activities`` / ``timestamps`` (what
:class:`repro.core.model.Trace` exposes) and returns :data:`PairColumns`: per
pair two parallel time-ordered lists ``(ts_a, ts_b)``, the form the Index
table stores (:mod:`repro.core.postings`).

The builder runs :data:`PAIR_FOLDS`, one routine per index policy: a fold
appends a trace's completions after its indexed tail straight into the
update's :data:`UpdatePairs`.  :func:`strict_pairs` and
:func:`indexing_pairs` are one-trace views over the folds;
:func:`create_pairs` is the public row view.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from repro.core.policies import Policy

Pair = tuple[str, str]
#: one trace's pairs: per pair its parallel columns ``(ts_a, ts_b)``
PairColumns = dict[Pair, tuple[list[float], list[float]]]
#: an update's pairs, in first-appearance order: per pair one flat list of
#: ``position, ts_a, ts_b`` triples in trace order (columns: ``[0::3]`` ...)
UpdatePairs = dict[Pair, list[float]]


def create_pairs(
    activities: Sequence[str],
    timestamps: Sequence[float],
    policy: Policy = Policy.STNM,
) -> dict[Pair, list[tuple[float, float]]]:
    """Create the event pairs of one trace as the ``policy`` index stores them:
    the public row view over :data:`PAIR_FOLDS`, ``{pair: [(ts_a, ts_b), ...]}``
    in the order the index writes the pairs."""
    if len(activities) != len(timestamps):
        raise ValueError("activities and timestamps must have equal length")
    fold = PAIR_FOLDS.get(policy)
    if fold is None:
        raise ValueError(f"policy {policy} has no pair index")
    rows: UpdatePairs = {}
    fold(activities, timestamps, None, 0, rows)
    return {
        # most pairs of a trace complete once: skip the zip object for those
        pair: [(row[1], row[2])] if len(row) == 3 else list(zip(row[1::3], row[2::3]))
        for pair, row in rows.items()
    }


def _one_trace(fold: Callable, activities: Sequence[str], timestamps: Sequence[float]) -> dict:
    """One trace's :data:`PairColumns`, as ``fold`` makes them."""
    rows: UpdatePairs = {}
    fold(activities, timestamps, None, 0, rows)
    return {pair: (row[1::3], row[2::3]) for pair, row in rows.items()}


def _emit(pairs: PairColumns, pair: Pair, ts_a: float, ts_b: float) -> None:
    """Append one completion to ``pair``'s columns."""
    if pair in pairs:
        column_a, column_b = pairs[pair]
        column_a.append(ts_a)
        column_b.append(ts_b)
    else:
        pairs[pair] = ([ts_a], [ts_b])


def _append(
    into: UpdatePairs, pair: Pair, position: int, ts_a: list[float], ts_b: list[float]
) -> int:
    """Append a trace's completions of ``pair`` to the update's rows."""
    triples = [position] * (3 * len(ts_a))
    triples[1::3] = ts_a
    triples[2::3] = ts_b
    rows = into.get(pair)
    if rows is None:
        into[pair] = triples
    else:
        rows += triples
    return len(ts_a)


# --- §4.1 strict contiguity --------------------------------------------------


def fold_strict_pairs(
    activities: Sequence[str],
    timestamps: Sequence[float],
    tail: float | None,
    position: int,
    into: UpdatePairs,
) -> int:
    """SC pairs, one per adjacent event couple, O(n): the couples ending
    after ``tail`` (``None`` for a new trace), appended to ``into`` as trace
    ``position``'s; returns how many."""
    start = 1 if tail is None else max(bisect_right(timestamps, tail), 1)
    for i in range(start, len(activities)):
        pair = (activities[i - 1], activities[i])
        rows = into.get(pair)
        if rows is None:
            into[pair] = [position, timestamps[i - 1], timestamps[i]]
        else:
            rows += position, timestamps[i - 1], timestamps[i]
    return max(len(activities) - start, 0)


def strict_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairColumns:
    """SC pairs of one trace: the one-trace view of :func:`fold_strict_pairs`."""
    return _one_trace(fold_strict_pairs, activities, timestamps)


# --- §4.2 STNM: Indexing method ----------------------------------------------


def greedy_pair_match(
    occ_a: list[float], occ_b: list[float], same_type: bool
) -> tuple[list[float], list[float]]:
    """Greedy non-overlapping matching of two sorted occurrence lists.

    This is the two-pointer merge at the core of the Indexing method --
    O(len(occ_a) + len(occ_b)) since both cursors only advance.  The
    result's lists are fresh.
    """
    if same_type:
        # Consecutive disjoint couples: (o0,o1), (o2,o3), ...; an odd
        # trailing occurrence stays open.
        return occ_a[:-1:2], occ_a[1::2]
    ts_a: list[float] = []
    ts_b: list[float] = []
    i = j = 0
    len_a, len_b = len(occ_a), len(occ_b)
    while i < len_a:
        first = occ_a[i]
        while j < len_b and occ_b[j] <= first:
            j += 1
        if j >= len_b:
            break
        second = occ_b[j]
        ts_a.append(first)
        ts_b.append(second)
        j += 1
        i += 1
        while i < len_a and occ_a[i] <= second:
            i += 1
    return ts_a, ts_b


def fold_indexing_pairs(
    activities: Sequence[str],
    timestamps: Sequence[float],
    tail: float | None,
    position: int,
    into: UpdatePairs,
) -> int:
    """STNM pairs via per-type occurrence lists (the paper's recommended
    flavor), O(n + l^2 + n*l): the completions after ``tail`` (``None`` for
    a new trace), appended to ``into`` as trace ``position``'s; returns how
    many.  Greedy matching is prefix-stable, so a known trace's matches
    after its tail are exactly what a full rebuild adds.  A type ``a`` that
    occurs once needs no merge: stamps strictly increase, so every type
    listed after ``a`` completes ``(a, b)`` at its first occurrence (new iff
    first seen after the tail), and of those before ``a`` only a repeated
    one can.  Pairs come in the order the index was always written in: by
    first, then second type, a new trace's repeated ``(a, a)`` first.
    """
    occurrences: dict[str, list[float]] = {}  # per type, its sorted stamps
    for activity, ts in zip(activities, timestamps):
        occurrences.setdefault(activity, []).append(ts)
    types = list(occurrences.items())
    new = tail is None
    tail = float("-inf") if new else tail
    fresh = sum(occ[0] <= tail for _, occ in types)  # the first type seen after the tail
    seconds = [(b, occ) for b, occ in types if occ[-1] > tail]
    made = 0
    get = into.get
    # the repeated types listed so far that occur after the tail
    repeated: list[tuple[str, list[float]]] = []
    for k, (a, occ_a) in enumerate(types):
        first = occ_a[0]
        if len(occ_a) == 1:
            for b, occ_b in repeated + types[max(k + 1, fresh) :]:
                second = occ_b[0]
                if second < first:  # listed before a: its first occurrence after a
                    if occ_b[-1] < first:
                        continue
                    second = occ_b[bisect_right(occ_b, first)]
                    if second <= tail:
                        continue
                pair = (a, b)
                rows = get(pair)
                if rows is None:
                    into[pair] = [position, first, second]
                else:
                    rows += position, first, second
                made += 1
            continue
        if occ_a[-1] > tail:
            repeated.append((a, occ_a))
        if new:  # a new trace lists (a, a) first
            ts_a, ts_b = greedy_pair_match(occ_a, occ_a, same_type=True)
            made += _append(into, (a, a), position, ts_a, ts_b)
        for b, occ_b in seconds:
            if b == a:
                if new:
                    continue
                ts_a, ts_b = greedy_pair_match(occ_a, occ_a, same_type=True)
            elif occ_b[-1] > first:  # else no b follows the first a
                ts_a, ts_b = greedy_pair_match(occ_a, occ_b, same_type=False)
            else:
                continue
            if not new:
                keep = bisect_right(ts_b, tail)  # completions are time-ordered
                ts_a, ts_b = ts_a[keep:], ts_b[keep:]
            if ts_b:
                made += _append(into, (a, b), position, ts_a, ts_b)
    return made


def indexing_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairColumns:
    """STNM pairs of one trace: the one-trace view of :func:`fold_indexing_pairs`."""
    return _one_trace(fold_indexing_pairs, activities, timestamps)


# --- §4.2 STNM: Parsing method -----------------------------------------------


def parsing_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairColumns:
    """STNM pairs computed while parsing the trace (Algorithm 6).

    Faithful to the paper's pseudocode structure *and cost profile*: for
    every distinct start type ``x`` (skipped once handled via the
    ``checkedList``), the trace suffix is scanned once, tracking the
    in-between event types in plain lists with linear membership tests --
    the representation Algorithm 6 uses.  Every event of the scan pays an
    O(l) membership check, giving the paper's O(n l^2) worst case (and its
    super-linear growth in the number of distinct activities, visible in
    Figure 3's third plot).
    """
    n = len(activities)
    pairs: PairColumns = {}
    checked: list[str] = []
    for start in range(n):
        x = activities[start]
        if x in checked:  # O(l) membership, as in the pseudocode's checkedList
            continue
        checked.append(x)
        first_x = timestamps[start]
        xx_anchor: float | None = None
        # Types with an open (x, y) pair waiting for y, parallel to anchors.
        anchored: list[str] = []
        anchors: list[float] = []
        # Types whose (x, y) pair closed and now wait for a fresh x anchor.
        blocked: list[str] = []
        blocked_ts: list[float] = []
        for j in range(start, n):
            y = activities[j]
            ts = timestamps[j]
            if y == x:
                if xx_anchor is None:
                    xx_anchor = ts
                else:
                    _emit(pairs, (x, x), xx_anchor, ts)
                    xx_anchor = None
                # A fresh x re-anchors every pair closed before it.
                for k in range(len(blocked) - 1, -1, -1):
                    if blocked_ts[k] < ts:
                        anchored.append(blocked[k])
                        anchors.append(ts)
                        del blocked[k]
                        del blocked_ts[k]
                continue
            if y in anchored:  # O(l) list membership, as in inter_events
                k = anchored.index(y)
                _emit(pairs, (x, y), anchors[k], ts)
                del anchored[k]
                del anchors[k]
                blocked.append(y)
                blocked_ts.append(ts)
            elif y in blocked:  # O(l): pair closed, no fresh x yet -> skip
                continue
            else:
                # First y of the scan: the earliest x (scan start) anchors it,
                # and (x, y) -- written by this scan alone -- gets its columns.
                pairs[x, y] = ([first_x], [ts])
                blocked.append(y)
                blocked_ts.append(ts)
    return pairs


# --- §4.2 STNM: State method ---------------------------------------------------


def state_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairColumns:
    """STNM pairs via a per-pair open/closed state hash map (Algorithm 8).

    A first pass collects the alphabet; a second pass feeds each event into
    the state: an event of type ``t`` always appends to the ``(t, t)`` list
    (alternately opening and closing it), opens every ``(t, y)`` list of even
    length and closes every ``(y, t)`` list of odd length.  Odd-length lists
    are trimmed at the end, and a list's even positions are then the pair's
    ``ts_a`` column, its odd ones ``ts_b``.  O(n l) updates, O(l^2) space.
    """
    alphabet = list(dict.fromkeys(activities))  # first-appearance order
    state: dict[Pair, list[float]] = {}
    for t, ts in zip(activities, timestamps):
        state.setdefault((t, t), []).append(ts)
        for y in alphabet:
            if y == t:
                continue
            opening = state.setdefault((t, y), [])
            if len(opening) % 2 == 0:
                opening.append(ts)
            closing = state.setdefault((y, t), [])
            if len(closing) % 2 == 1:
                closing.append(ts)
    return {
        key: (stamps[:-1:2], stamps[1::2])  # [:-1] drops an unclosed opening
        for key, stamps in state.items()
        if len(stamps) >= 2
    }


#: the one pair routine of each indexable policy, ``(activities, timestamps,
#: tail, position, into) -> completions appended``
PAIR_FOLDS = {
    Policy.SC: fold_strict_pairs,
    Policy.STNM: fold_indexing_pairs,
}


# --- reference implementation (tests + documentation) ---------------------------


def reference_stnm_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> dict[Pair, list[tuple[float, float]]]:
    """Direct-from-definition STNM pairs; O(n) per type pair, used as oracle.

    For each ordered type pair, walk the raw trace: find the next ``a``,
    then the next ``b`` strictly after it, emit, continue after the ``b``.
    Deliberately shares no code with the three production flavors -- not
    even their output form: it keeps one ``(ts_a, ts_b)`` row per completion.
    """
    types = sorted(set(activities))
    n = len(activities)
    pairs: dict[Pair, list[tuple[float, float]]] = {}
    for a in types:
        for b in types:
            matched = []
            i = 0
            while i < n:
                while i < n and activities[i] != a:
                    i += 1
                if i >= n:
                    break
                j = i + 1
                while j < n and activities[j] != b:
                    j += 1
                if j >= n:
                    break
                matched.append((timestamps[i], timestamps[j]))
                i = j + 1
            if matched:
                pairs[(a, b)] = matched
    return pairs
