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
builds with one creator per policy, :data:`PAIR_CREATORS` -- strict for SC,
Indexing (the paper's recommended flavor) for STNM; Parsing and State are
what the Table 5 and Figure 3 experiments time beside it.

Every flavor takes plain parallel lists ``activities`` / ``timestamps`` (what
:class:`repro.core.model.Trace` exposes) and returns :data:`PairColumns`: per
pair two parallel time-ordered lists ``(ts_a, ts_b)``, the form the Index
table stores (:mod:`repro.core.postings`), so no tuple per completion is built
between here and the chunk.  **A column list may be shared** -- between pairs
of one result, and with the occurrence lists it was read from: a type that
occurs once in a trace *is* the ``ts_a`` column of every pair it starts.
Consumers therefore copy out of a column (``append`` / ``extend``) and never
adopt or mutate one; :func:`create_pairs`, the public row view, builds fresh
lists.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.core.policies import Policy

Pair = tuple[str, str]
PairColumns = dict[Pair, tuple[list[float], list[float]]]


def create_pairs(
    activities: Sequence[str],
    timestamps: Sequence[float],
    policy: Policy = Policy.STNM,
) -> dict[Pair, list[tuple[float, float]]]:
    """Create the event pairs of one trace as the ``policy`` index stores them.

    The public row view over :data:`PAIR_CREATORS` (whose functions the
    builder calls directly): ``{pair: [(ts_a, ts_b), ...]}``, every list its
    own.
    """
    if len(activities) != len(timestamps):
        raise ValueError("activities and timestamps must have equal length")
    creator = PAIR_CREATORS.get(policy)
    if creator is None:
        raise ValueError(f"policy {policy} has no pair index")
    columns = creator(activities, timestamps)
    return {
        # most pairs of a trace complete once: skip the zip object for those
        pair: [(ts_a[0], ts_b[0])] if len(ts_a) == 1 else list(zip(ts_a, ts_b))
        for pair, (ts_a, ts_b) in columns.items()
    }


def _emit(pairs: PairColumns, pair: Pair, ts_a: float, ts_b: float) -> None:
    """Append one completion to ``pair``'s columns."""
    if pair in pairs:
        column_a, column_b = pairs[pair]
        column_a.append(ts_a)
        column_b.append(ts_b)
    else:
        pairs[pair] = ([ts_a], [ts_b])


# --- §4.1 strict contiguity --------------------------------------------------


def strict_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairColumns:
    """SC pairs: one pair per adjacent event couple; O(n)."""
    pairs: PairColumns = {}
    for i in range(len(activities) - 1):
        _emit(pairs, (activities[i], activities[i + 1]), timestamps[i], timestamps[i + 1])
    return pairs


# --- §4.2 STNM: Indexing method ----------------------------------------------


def occurrence_lists(
    activities: Sequence[str], timestamps: Sequence[float]
) -> dict[str, list[float]]:
    """Per-type sorted timestamp lists (the Indexing method's first pass)."""
    occurrences: dict[str, list[float]] = {}
    for activity, ts in zip(activities, timestamps):
        occurrences.setdefault(activity, []).append(ts)
    return occurrences


def greedy_pair_match(
    occ_a: list[float], occ_b: list[float], same_type: bool
) -> tuple[list[float], list[float]]:
    """Greedy non-overlapping matching of two sorted occurrence lists.

    This is the two-pointer merge at the core of the Indexing method --
    O(len(occ_a) + len(occ_b)) since both cursors only advance -- also
    reused for incremental updates (:func:`pairs_completed_after`).
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


def indexing_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairColumns:
    """STNM pairs via per-type occurrence lists (the paper's recommended flavor).

    One O(n) pass builds the occurrence lists; every ordered type
    combination is matched with the two-pointer greedy merge.  Enumerating
    combinations is O(l^2) but each occurrence participates in at most l
    merges, giving O(n + l^2 + n*l) per trace -- the lowest constants of
    the three flavors, which is why the paper recommends it for periodic
    batch indexing.

    A type that occurs once needs no merge: with a single ``a``, ``(a, b)``
    completes iff some ``b`` comes later -- once, at the first such ``b`` --
    and its columns are the occurrence lists themselves (the sharing rule of
    the module docstring).  Most pairs of a process-like trace, which repeats
    few activities, therefore cost a comparison and no allocation.
    """
    occurrences = occurrence_lists(activities, timestamps)
    pairs: PairColumns = {}
    for a, occ_a in occurrences.items():
        first = occ_a[0]
        if len(occ_a) == 1:
            # b == a fails the test below by itself: its last stamp is `first`.
            for b, occ_b in occurrences.items():
                if occ_b[-1] > first:
                    if len(occ_b) > 1:
                        occ_b = [occ_b[bisect_right(occ_b, first)]]
                    pairs[a, b] = (occ_a, occ_b)
            continue
        pairs[a, a] = greedy_pair_match(occ_a, occ_a, same_type=True)
        for b, occ_b in occurrences.items():
            if occ_b[-1] > first and b != a:  # else no b follows the first a
                pairs[a, b] = greedy_pair_match(occ_a, occ_b, same_type=False)
    return pairs


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


#: the one pair creator of each indexable policy,
#: ``(activities, timestamps) -> PairColumns``
PAIR_CREATORS = {
    Policy.SC: strict_pairs,
    Policy.STNM: indexing_pairs,
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


def pairs_completed_after(
    occurrences: dict[str, list[float]], tail: float
) -> PairColumns:
    """STNM pairs of one trace that complete strictly after ``tail``.

    The incremental-update primitive of Algorithm 1, given the occurrence
    lists of ``old + new`` events and the old sequence's last timestamp.
    Greedy non-overlapping matching is prefix-stable -- what it emits up to
    a point of the trace never depends on later events -- so the matches
    completing at or before ``tail`` are exactly the ones already indexed
    and the rest are exactly what a full rebuild would add.  Only a pair
    whose *second* type occurs after ``tail`` can complete there.

    A first type that occurs once takes :func:`indexing_pairs`' shortcut:
    ``(a, b)`` completes at most once, at the first ``b`` after it, so one
    ``bisect`` replaces the merge, and ``occ_a`` is the ``ts_a`` column.
    """
    second_types = [b for b, occ in occurrences.items() if occ[-1] > tail]
    pairs: PairColumns = {}
    for a, occ_a in occurrences.items():
        if len(occ_a) == 1:
            # b == a never completes: its one stamp is not after itself.
            first = occ_a[0]
            for b in second_types:
                occ_b = occurrences[b]
                j = bisect_right(occ_b, first)
                if j < len(occ_b) and occ_b[j] > tail:
                    pairs[a, b] = (occ_a, [occ_b[j]])
            continue
        for b in second_types:
            ts_a, ts_b = greedy_pair_match(occ_a, occurrences[b], same_type=(a == b))
            keep = bisect_right(ts_b, tail)  # completions are time-ordered
            if keep < len(ts_b):
                pairs[a, b] = (ts_a[keep:], ts_b[keep:])
    return pairs
