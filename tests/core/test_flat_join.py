"""The flat hash join and the alphabet-only verifier, held to their references.

The join keys its step tables ``(trace_id, ts)`` -- one dict for all traces,
filled straight from the posting columns.  That is only sound while a
completion's endpoints are unique inside a trace, so the logs here are built
to break a flat key if anything could: every trace shares the same small
timestamps, the alphabet is small enough that ``(A, A)`` pairs and repeated
activities are the norm, stamps come as ints, integral floats and fractional
floats (and as a mix, which lands in RAW chunks), rows mix NUMBERED and RAW
chunks -- some written in a retired format and then rewritten by the
upgrade -- and batches land in two partitions that a query unions.  Every join
order a plan could pick is run and held equal to the left-to-right reference
(``detect_with_prefixes``) and to a brute-force chain oracle computed from
the log alone.

``find_matches`` builds occurrence lists for the pattern's alphabet only;
its half of the battery names activities the trace never holds (a negated
one, an alternation branch) and compares against the SASE automaton.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sase.nfa import PatternNfa
from repro.core import query as query_module
from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.pairs import reference_stnm_pairs
from repro.core.pattern import Pattern, PatternElement, find_matches
from repro.core.postings import raw_chunk
from repro.core.tables import _index_table
from repro.upgrade import UpgradeReport, rewrite_rows

from .legacy_codec import encode_varint_postings

ALPHABET = "ABC"

_traces = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=12), min_size=1, max_size=5
)
_patterns = st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=5)
#: how a trace's position ``i`` becomes its timestamp
_STAMPS = {
    "int": lambda i: i,
    "intfloat": lambda i: float(i),
    "float": lambda i: i + 0.5,
}


def _orders(pairs: int) -> list[tuple[int, ...]]:
    """Every join order a plan may hold: the covered window stays contiguous."""
    found = []

    def grow(order: tuple[int, ...], low: int, high: int) -> None:
        if len(order) == pairs:
            found.append(order)
            return
        if low > 0:
            grow(order + (low - 1,), low - 1, high)
        if high < pairs - 1:
            grow(order + (high + 1,), low, high + 1)

    for start in range(pairs):
        grow((start,), start, start)
    return found


@contextmanager
def _join_order(order: tuple[int, ...]):
    """Every plan built inside the block joins in ``order``."""
    with mock.patch.object(query_module, "_rarest_first_order", lambda _: order):
        yield


def _chain_oracle(log: dict[str, list[tuple[str, float]]], pattern) -> list[tuple]:
    """Algorithm 2 per trace, from the reference pair builder alone."""
    out = []
    for trace_id in sorted(log):
        activities = [activity for activity, _ in log[trace_id]]
        stamps = [ts for _, ts in log[trace_id]]
        pairs = reference_stnm_pairs(activities, stamps)
        chains = [tuple(p) for p in pairs.get((pattern[0], pattern[1]), [])]
        for a, b in zip(pattern[1:], pattern[2:]):
            step = dict(pairs.get((a, b), []))
            chains = [c + (step[c[-1]],) for c in chains if c[-1] in step]
        out.extend((trace_id, chain) for chain in sorted(chains))
    return out


def _write_as(index: SequenceIndex, fmt: str) -> None:
    """Make ``index`` write its Index rows in a retired format."""
    store = index.store

    def append_index(pair, columns, partition=""):
        numbers, ts_a, ts_b = columns
        entries = list(zip(index.tables.trace_names(numbers), ts_a, ts_b))
        kinds = {type(ts) for entry in entries for ts in entry[1:]}
        if fmt == "varint" and len(kinds) == 1:  # a varint chunk holds one kind
            delta = [encode_varint_postings(entries)]
        else:
            delta = entries
        store.merge(_index_table(partition), pair, delta)

    index.tables.append_index = append_index


def _build(traces, kinds, cuts, formats, partitions):
    """The log as two batches (trace ``i`` cut at ``cuts[i]``), each written
    in its own format into its own partition, then upgraded; returns
    ``(index, log)``."""
    log = {
        f"t{i}": [(activity, _STAMPS[kind](pos)) for pos, activity in enumerate(trace)]
        for i, (trace, kind) in enumerate(zip(traces, kinds))
    }
    index = SequenceIndex(cache_bytes=0)
    index.tables.ensure_partition("p1")
    real_append = index.tables.append_index
    for phase, (fmt, partition) in enumerate(zip(formats, partitions)):
        batch = [
            Event(trace_id, activity, ts)
            for (trace_id, events), cut in zip(log.items(), cuts)
            for activity, ts in (events[:cut], events[cut:])[phase]
        ]
        if fmt == "columnar":
            index.tables.append_index = real_append
        else:
            _write_as(index, fmt)
        if batch:
            index.update(batch, partition=partition)
    rewrite_rows(index.store, UpgradeReport("log"))
    return SequenceIndex(index.store, cache_bytes=0), log


def _spans(matches) -> list[tuple]:
    return [(m.trace_id, m.timestamps) for m in matches]


@given(
    traces=_traces,
    kinds=st.lists(st.sampled_from(sorted(_STAMPS)), min_size=5, max_size=5),
    cuts=st.lists(st.integers(0, 12), min_size=5, max_size=5),
    formats=st.lists(
        st.sampled_from(["columnar", "tuples", "varint"]), min_size=2, max_size=2
    ),
    partitions=st.lists(st.sampled_from(["", "p1"]), min_size=2, max_size=2),
    pattern=_patterns,
    within=st.integers(0, 8),
    limit=st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_every_join_order_equals_the_reference_and_the_oracle(
    traces, kinds, cuts, formats, partitions, pattern, within, limit
):
    index, log = _build(traces, kinds, cuts, formats, partitions)
    query = index.query
    n = len(pattern)
    expected = _chain_oracle(log, pattern)
    in_window = [(t, c) for t, c in expected if c[-1] - c[0] <= within]

    prefixes = query.detect_with_prefixes(pattern, partition=None)
    assert _spans(prefixes[n]) == expected
    for length, matches in prefixes.items():  # each snapshot is a detection
        assert _spans(matches) == _chain_oracle(log, pattern[:length])

    _, plan = query.execute("explain", pattern, None)
    if plan.proves_empty:
        assert expected == []
    for order in _orders(n - 1):
        with _join_order(order):
            assert query.execute("explain", pattern, None)[1].order == order
            run = {"partition": None}
            assert _spans(query.detect(pattern, **run)) == expected
            assert query.count(pattern, **run) == len(expected)
            assert query.contains(pattern, **run) == sorted({t for t, _ in expected})
            assert _spans(query.detect(pattern, max_matches=limit, **run)) == expected[:limit]
            assert _spans(query.detect(pattern, within=within, **run)) == in_window
            assert query.count(pattern, within=within, **run) == len(in_window)
            # a single partition holds a subset of the pairs: no oracle from
            # the log, but the order must still equal left-to-right
            for partition in ("", "p1"):
                reference = query.detect_with_prefixes(pattern, partition)[n]
                assert query.detect(pattern, partition) == reference


def _replay_index_rows(index: SequenceIndex) -> None:
    """Append every stored completion once more, as one RAW chunk -- what a
    crashed-and-replayed batch left behind before appends were fenced."""
    for partition, pair, postings in list(index.tables.iter_index()):
        index.store.merge(_index_table(partition), pair, [raw_chunk(postings.rows())])


@given(traces=_traces, pattern=_patterns)
@settings(max_examples=60, deadline=None)
def test_a_replayed_completion_counts_once_in_every_order(traces, pattern):
    """The tie rule: a step table holds one completion per ``(trace, ts)``, the
    start pair's included, so an exact duplicate changes no answer."""
    index, log = _build(traces, ["int"] * 5, [12] * 5, ["columnar"] * 2, ["", ""])
    _replay_index_rows(index)
    query = index.query
    expected = _chain_oracle(log, pattern)
    n = len(pattern)
    assert _spans(query.detect_with_prefixes(pattern)[n]) == expected
    for order in _orders(n - 1):
        with _join_order(order):
            assert _spans(query.detect(pattern)) == expected
            assert query.count(pattern) == len(expected)


def test_of_two_completions_with_one_start_the_last_column_row_wins():
    """No builder writes two completions of one pair starting at one event;
    if a row holds them anyway, the one later in ``Postings.columns`` order
    (NUMBERED chunks as stored, then the RAW chunks' rows) is the pair's
    completion."""
    index = SequenceIndex()
    index.update([Event("t", "A", 1), Event("t", "B", 2), Event("t", "B", 5)])
    assert _spans(index.detect(["A", "B"])) == [("t", (1, 2))]
    index.store.merge(_index_table(""), ("A", "B"), [raw_chunk([("t", 1, 5)])])
    # written behind the engine's back: read it through a fresh engine
    reopened = SequenceIndex(index.store)
    assert _spans(reopened.detect(["A", "B"])) == [("t", (1, 5))]
    assert reopened.count(["A", "B"]) == 1


# -- find_matches: occurrence lists for the pattern's alphabet only -----------------

_elements = st.lists(
    st.tuples(
        st.lists(st.sampled_from("ABCXY"), min_size=1, max_size=3, unique=True),
        st.booleans(),  # kleene
        st.booleans(),  # negated
    ),
    min_size=1,
    max_size=4,
)


@given(
    activities=st.lists(st.sampled_from(ALPHABET), max_size=14),
    raw=_elements,
    within=st.one_of(st.none(), st.integers(1, 10).map(float)),
    limit=st.one_of(st.none(), st.integers(1, 3)),
)
@settings(max_examples=300, deadline=None)
def test_find_matches_with_activities_the_trace_never_holds(
    activities, raw, within, limit
):
    """``X`` and ``Y`` never occur: as a negated element they forbid nothing,
    as an alternation branch they match nothing, alone they end the search."""
    pattern = Pattern(
        tuple(
            PatternElement(
                tuple(types),
                kleene=kleene and not (negated and i > 0),
                negated=negated and i > 0,
            )
            for i, (types, kleene, negated) in enumerate(raw)
        ),
        within,
    )
    assert pattern.alphabet == {name for types, _, _ in raw for name in types}
    stamps = list(range(0, 2 * len(activities), 2))
    oracle = PatternNfa(pattern).evaluate(activities, stamps, limit)
    assert find_matches(activities, stamps, pattern, limit) == oracle
