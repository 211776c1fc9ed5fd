"""Event-pair creation (§4 of the paper).

Given one trace, produce -- for every ordered pair of event types ``(a, b)``
present -- the list of timestamp pairs at which the two-event pattern
``a .. b`` completes under the chosen policy:

* **Strict contiguity (SC)**: consecutive events only.  ``(a, b)`` pairs are
  exactly ``zip(trace, trace[1:])``.
* **Skip-till-next-match (STNM)**: for each type pair independently, a
  greedy left-to-right non-overlapping matching: take the earliest pending
  occurrence of ``a``, the first ``b`` strictly after it, emit, and resume
  searching for ``a`` after the emitted ``b`` (Table 3 of the paper).

The three STNM flavors (Algorithms 6-8) are distinct computation strategies
for the *same* output; the test suite enforces that they agree with each
other and with :func:`reference_stnm_pairs` on arbitrary traces.

All functions accept plain parallel lists ``activities`` / ``timestamps``
(what :class:`repro.core.model.Trace` exposes) so they can run inside
process-pool workers without dragging heavier objects along.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.policies import PairMethod

Pair = tuple[str, str]
TsPair = tuple[float, float]
PairDict = dict[Pair, list[TsPair]]


def create_pairs(
    activities: Sequence[str],
    timestamps: Sequence[float],
    method: PairMethod = PairMethod.INDEXING,
) -> PairDict:
    """Create the event pairs of one trace using the selected flavor."""
    if len(activities) != len(timestamps):
        raise ValueError("activities and timestamps must have equal length")
    if method is PairMethod.STRICT:
        return strict_pairs(activities, timestamps)
    if method is PairMethod.PARSING:
        return parsing_pairs(activities, timestamps)
    if method is PairMethod.INDEXING:
        return indexing_pairs(activities, timestamps)
    if method is PairMethod.STATE:
        return state_pairs(activities, timestamps)
    raise ValueError(f"unknown pair method {method!r}")


# --- §4.1 strict contiguity --------------------------------------------------


def strict_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairDict:
    """SC pairs: one pair per adjacent event couple; O(n)."""
    pairs: PairDict = {}
    for i in range(len(activities) - 1):
        key = (activities[i], activities[i + 1])
        pairs.setdefault(key, []).append((timestamps[i], timestamps[i + 1]))
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
    occ_a: Sequence[float], occ_b: Sequence[float], same_type: bool
) -> list[TsPair]:
    """Greedy non-overlapping matching of two sorted occurrence lists.

    This is the two-pointer merge at the core of the Indexing method --
    O(len(occ_a) + len(occ_b)) since both cursors only advance -- also
    reused for incremental updates (:func:`pairs_completed_after`).
    """
    if same_type:
        # Consecutive disjoint couples: (o0,o1), (o2,o3), ...
        return [
            (occ_a[i], occ_a[i + 1]) for i in range(0, len(occ_a) - 1, 2)
        ]
    result: list[TsPair] = []
    i = j = 0
    len_a, len_b = len(occ_a), len(occ_b)
    while i < len_a:
        first = occ_a[i]
        while j < len_b and occ_b[j] <= first:
            j += 1
        if j >= len_b:
            break
        second = occ_b[j]
        result.append((first, second))
        j += 1
        i += 1
        while i < len_a and occ_a[i] <= second:
            i += 1
    return result


def indexing_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairDict:
    """STNM pairs via per-type occurrence lists (the paper's recommended flavor).

    One O(n) pass builds the occurrence lists; every ordered type
    combination is matched with the two-pointer greedy merge.  Enumerating
    combinations is O(l^2) but each occurrence participates in at most l
    merges, giving O(n + l^2 + n*l) per trace -- the lowest constants of
    the three flavors, which is why the paper recommends it for periodic
    batch indexing.
    """
    occurrences = occurrence_lists(activities, timestamps)
    types = list(occurrences)
    pairs: PairDict = {}
    for a in types:
        occ_a = occurrences[a]
        if len(occ_a) >= 2:
            pairs[(a, a)] = greedy_pair_match(occ_a, occ_a, same_type=True)
        for b in types:
            if b == a:
                continue
            matched = greedy_pair_match(occ_a, occurrences[b], same_type=False)
            if matched:
                pairs[(a, b)] = matched
    return pairs


# --- §4.2 STNM: Parsing method -----------------------------------------------


def parsing_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairDict:
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
    pairs: PairDict = {}
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
                    pairs.setdefault((x, x), []).append((xx_anchor, ts))
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
                pairs.setdefault((x, y), []).append((anchors[k], ts))
                del anchored[k]
                del anchors[k]
                blocked.append(y)
                blocked_ts.append(ts)
            elif y in blocked:  # O(l): pair closed, no fresh x yet -> skip
                continue
            else:
                # First y of the scan: the earliest x (scan start) anchors it.
                pairs.setdefault((x, y), []).append((first_x, ts))
                blocked.append(y)
                blocked_ts.append(ts)
    return pairs


# --- §4.2 STNM: State method ---------------------------------------------------


def state_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairDict:
    """STNM pairs via a per-pair open/closed state hash map (Algorithm 8).

    A first pass collects the alphabet; a second pass feeds each event into
    the state: an event of type ``t`` always appends to the ``(t, t)`` list
    (alternately opening and closing it), opens every ``(t, y)`` list of even
    length and closes every ``(y, t)`` list of odd length.  Odd-length lists
    are trimmed at the end.  O(n l) updates, O(l^2) space.
    """
    alphabet: list[str] = []
    seen: set[str] = set()
    for activity in activities:
        if activity not in seen:
            seen.add(activity)
            alphabet.append(activity)
    state: dict[Pair, list[float]] = {}
    for t, ts in zip(activities, timestamps):
        self_list = state.setdefault((t, t), [])
        self_list.append(ts)
        for y in alphabet:
            if y == t:
                continue
            opening = state.setdefault((t, y), [])
            if len(opening) % 2 == 0:
                opening.append(ts)
            closing = state.setdefault((y, t), [])
            if len(closing) % 2 == 1:
                closing.append(ts)
    pairs: PairDict = {}
    for key, stamps in state.items():
        usable = len(stamps) - (len(stamps) % 2)
        if usable:
            pairs[key] = [
                (stamps[i], stamps[i + 1]) for i in range(0, usable, 2)
            ]
    return pairs


# --- reference implementation (tests + documentation) ---------------------------


def reference_stnm_pairs(
    activities: Sequence[str], timestamps: Sequence[float]
) -> PairDict:
    """Direct-from-definition STNM pairs; O(n) per type pair, used as oracle.

    For each ordered type pair, walk the raw trace: find the next ``a``,
    then the next ``b`` strictly after it, emit, continue after the ``b``.
    Deliberately shares no code with the three production flavors.
    """
    types = sorted(set(activities))
    n = len(activities)
    pairs: PairDict = {}
    for a in types:
        for b in types:
            matched: list[TsPair] = []
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
) -> PairDict:
    """STNM pairs of one trace that complete strictly after ``tail``.

    The incremental-update primitive of Algorithm 1, given the occurrence
    lists of ``old + new`` events and the old sequence's last timestamp.
    Greedy non-overlapping matching is prefix-stable -- what it emits up to
    a point of the trace never depends on later events -- so the matches
    completing at or before ``tail`` are exactly the ones already indexed
    and the rest are exactly what a full rebuild would add.  Only a pair
    whose *second* type occurs after ``tail`` can complete there.
    """
    second_types = [b for b, occ in occurrences.items() if occ[-1] > tail]
    pairs: PairDict = {}
    for a, occ_a in occurrences.items():
        for b in second_types:
            matched = greedy_pair_match(occ_a, occurrences[b], same_type=(a == b))
            keep = len(matched)
            while keep and matched[keep - 1][1] > tail:
                keep -= 1
            if keep < len(matched):
                pairs[(a, b)] = matched[keep:]
    return pairs
