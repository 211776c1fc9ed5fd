"""The folds: one pass per trace straight into an update's per-pair rows.

A multi-trace update -- new traces and known ones at any tail, repeated
activities, under SC and STNM -- folded into one ``rows`` dict must hold,
pair by pair, the concatenation in trace order of each trace's
definition-level completions after its tail: ``reference_stnm_pairs`` for
STNM, adjacent couples for SC.  Pairs come in first-appearance order, each
trace's in the order the index has always been written in.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import PAIR_FOLDS, reference_stnm_pairs
from repro.core.policies import Policy


def _completions(policy: Policy, acts, stamps, tail) -> dict:
    """``{pair: [(ts_a, ts_b), ...]}`` of one trace completing after
    ``tail`` (``None``: all), straight from the policy's definition."""
    if policy is Policy.SC:
        pairs: dict = {}
        for i in range(1, len(acts)):
            if tail is None or stamps[i] > tail:
                pairs.setdefault((acts[i - 1], acts[i]), []).append((stamps[i - 1], stamps[i]))
        return pairs
    pairs = reference_stnm_pairs(acts, stamps)
    if tail is None:
        return pairs
    kept = {pair: [row for row in rows if row[1] > tail] for pair, rows in pairs.items()}
    return {pair: rows for pair, rows in kept.items() if rows}


def _write_order(policy: Policy, acts, stamps, tail) -> list:
    """The order one trace's pairs are written in: per first type by first
    occurrence, its second types by first occurrence, a new STNM trace
    listing a repeated type's ``(a, a)`` first."""
    first_seen = {activity: k for k, activity in enumerate(dict.fromkeys(acts))}
    completed = _completions(policy, acts, stamps, tail)
    if policy is Policy.SC:
        return list(completed)  # by the first couple after the tail

    def key(pair):
        a, b = pair
        self_first = tail is None and a == b
        return first_seen[a], not self_first, first_seen[b]

    return sorted(completed, key=key)


_trace = st.lists(st.sampled_from("ABCD"), min_size=0, max_size=12)
#: a trace, its stamps' step, and where its tail falls: None (a new
#: trace), or a fraction of the way through its stamps -- between events,
#: on one, before the first or after the last
_known = st.tuples(_trace, st.sampled_from([1, 0.5, 3]), st.none() | st.floats(-0.2, 1.2))
_updates = st.lists(_known, min_size=1, max_size=6)


@given(_updates, st.sampled_from([Policy.SC, Policy.STNM]))
@settings(max_examples=300, deadline=None)
def test_a_folded_update_equals_each_traces_completions_after_its_tail(update, policy):
    fold = PAIR_FOLDS[policy]
    rows: dict = {}
    expected: dict = {}
    order: list = []
    for position, (acts, step, where) in enumerate(update):
        stamps = [step * (k + 1) for k in range(len(acts))]
        tail = None if where is None else where * step * (len(acts) + 1)
        made = fold(acts, stamps, tail, position, rows)
        completed = _completions(policy, acts, stamps, tail)
        assert made == sum(map(len, completed.values()))
        for pair in _write_order(policy, acts, stamps, tail):
            if pair not in expected:
                order.append(pair)
            expected.setdefault(pair, []).extend(
                (position, ts_a, ts_b) for ts_a, ts_b in completed[pair]
            )
    assert list(rows) == order
    for pair, row in rows.items():
        assert list(zip(row[0::3], row[1::3], row[2::3])) == expected[pair]


def test_a_known_trace_gains_only_what_completes_after_its_tail():
    rows: dict = {}
    # new: AB completes (A, B) at (1, 2); known up to 2: only the pairs
    # completing at 3 or 4 are new
    PAIR_FOLDS[Policy.STNM](list("AB"), [1, 2], None, 0, rows)
    PAIR_FOLDS[Policy.STNM](list("ABAB"), [1, 2, 3, 4], 2, 1, rows)
    assert rows == {
        ("A", "B"): [0, 1, 2, 1, 3, 4],
        ("B", "A"): [1, 2, 3],
        ("A", "A"): [1, 1, 3],
        ("B", "B"): [1, 2, 4],
    }
