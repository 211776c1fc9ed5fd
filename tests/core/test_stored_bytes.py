"""Stored bytes are a contract: the build's output, pinned by digest.

A change to pair creation, the aggregator or the chunk encoder that is meant
to be a pure speed-up must leave every stored value -- and every WAL frame --
exactly as it was.  Three small fixed logs are built into an ``LSMStore``;
per table, the sha256 over ``repr((key, value))`` of ``store.scan(table)``
and the byte count of the WAL before ``close()`` are compared with digests
**taken at the commit before the columnar write path** (PR 24's parent).  A
digest may only be replaced by a PR whose stated purpose is a stored-format
change.  The WAL counts are those of one frame per ``update()`` with packed
Count / ReverseCount rows; the table digests did not move with them.

Stored values do not depend on ``PYTHONHASHSEED`` (every dict on the write
path is insertion-ordered by trace and pair first appearance; checked under
0, 7 and random), so no subprocess is needed.  The float log's stamps are
multiples of 0.25: fractional (the chunk is the raw-double layout) but exact
in binary, so a Count duration sum does not depend on how the additions are
grouped (per trace, then per batch -- or per batch in one pass).
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.policies import PairMethod
from repro.kvstore import LSMStore

TABLES = ("seq", "index", "count", "reverse_count", "last_checked")


def _events(traces: dict[str, str], stamp) -> list[Event]:
    """One event per letter; the k-th event of trace number t is stamped
    ``stamp(t, k)``, the list ordered by stamp (ties in trace order)."""
    events = [
        Event(trace_id, activity, stamp(t, k))
        for t, (trace_id, activities) in enumerate(traces.items())
        for k, activity in enumerate(activities)
    ]
    events.sort(key=lambda event: event.timestamp)
    return events


#: repeated activities, (A, A) pairs, a type seen once at the end of a trace
INT_LOG = _events(
    {"t1": "ABABCA", "t2": "AABBCCD", "t3": "CBA", "t4": "ABCDABCDZ", "t5": "B", "t6": "DDDD"},
    lambda t, k: 100 * t + 3 * k + 1,
)
FLOAT_LOG = _events(
    {"t1": "ABCABC", "t2": "ACBBA", "t3": "BBAAC", "t4": "CAB"},
    lambda t, k: 10.0 * t + 1.25 * k + 0.5,
)
#: four traces advancing together, so a 7-event batch appends to several
#: known traces at once and replays nothing or a few events of the last one
STREAM = _events(
    {"s1": "ABCABDAB", "s2": "BADCABAA", "s3": "AAABBBCC", "s4": "DCBADCBA"},
    lambda t, k: 4 * k + t,
)


def _whole(index: SequenceIndex, events: list[Event]) -> None:
    index.update(events)


def _stream(index: SequenceIndex, events: list[Event]) -> None:
    """7-event ``dedup`` batches, each replaying the two events before it."""
    for start in range(0, len(events), 7):
        index.update(events[max(0, start - 2) : start + 7], dedup=True)


BUILDS = {
    "int": (INT_LOG, _whole),
    "float": (FLOAT_LOG, _whole),
    "stream": (STREAM, _stream),
}


def _build(tmp_path, name: str, method: PairMethod):
    """``({table: digest}, {table: {key: value}}, wal bytes)`` of one build."""
    events, apply = BUILDS[name]
    path = str(tmp_path / f"{name}-{method.value}")
    store = LSMStore(path)
    with SequenceIndex(store, policy=method.policy, method=method) as index:
        apply(index, events)
        digests, maps = {}, {}
        for table in TABLES:
            rows = list(store.scan(table))
            maps[table] = dict(rows)
            sha = hashlib.sha256()
            for row in rows:
                sha.update(repr(row).encode("utf-8"))
            digests[table] = sha.hexdigest()
        # nothing this small reaches a flush: the active WAL is every frame
        wal_bytes = os.path.getsize(os.path.join(path, "wal.log"))
    return digests, maps, wal_bytes


#: (log, method) -> ({table: sha256}, WAL bytes)
EXPECTED = {
    ("float", "indexing"): (
        {
            "count": "428dd7d2af2c24632f9ba8611fd43eebf1f50f17b7f9b1db638e3ede58e93b14",
            "index": "d97938fd319aa1a0686c3ad94f868df3fc86a545424302497c9d53183f472136",
            "last_checked": "64234907881dabc113765eb13c63748cd2a8c961999175acaaaa6e3ca7a21df6",
            "reverse_count": "aa85f74c49c5ed72a21f9739030f44806712f578662dbd90fb98018c3d434f3b",
            "seq": "06fc1bc52d4a213731015f766d180135b08e76de029c57a993e492bd2a103a16",
        },
        2035,
    ),
    ("float", "strict"): (
        {
            "count": "222ed531e8cb341c751e8d2b9ad13ebabe831ce44edb7c330edaad8fe7efec91",
            "index": "656a954f988654b3bf017a5c0769bdf96039a0033ad9b31ccc3645d69312c25f",
            "last_checked": "f8863cfa17adc0de284595e5553f5d91dda5aced4ce23a0500ca89fc147dcd0d",
            "reverse_count": "86f5a8523c0af42867fdb56fe1631806a3324c30afa7313555fb4edea33645fa",
            "seq": "06fc1bc52d4a213731015f766d180135b08e76de029c57a993e492bd2a103a16",
        },
        1713,
    ),
    ("int", "indexing"): (
        {
            "count": "22f5e41fc60fdb0bf43724371da439a5b8ad6976ca67034c0bee7babbdab4929",
            "index": "572560065cb796f22e57f6ad52a8be2581c483e74b1788fcb2a2174dd1758d00",
            "last_checked": "ab4fecfea233de507ea8abdda9ec8cdde7cb08f51d1a004c1d78b6ce2707a582",
            "reverse_count": "b12233ca2997a956190a346d1fe9dc53faafff63323466fcf483bc2e518ba8b1",
            "seq": "3dbb5ab609ad60df17677aeec0e98bfed64257c959346ad7ad76d64b299a6d34",
        },
        2886,
    ),
    ("int", "strict"): (
        {
            "count": "ee8d08e2b6aa5173bf78fbf4eceff134587d814866e359cf557827ca682dd5a2",
            "index": "bd1621e943bba7d4bae0c284c207f7ed4c146fe8385271d2de2663880bcc4caa",
            "last_checked": "f536710809afe28b45e76677025034a4dbd251f9f45883f7209bf49dbb96371b",
            "reverse_count": "0bc6425970578df0b8e844f771605db8192f7d3822a57a2eb0dd8f3b372cfb18",
            "seq": "3dbb5ab609ad60df17677aeec0e98bfed64257c959346ad7ad76d64b299a6d34",
        },
        2033,
    ),
    ("stream", "indexing"): (
        {
            "count": "ccc20b6ee9b3e2d3506429306d35e16085329a0533798e0e6b302c130b1a903f",
            "index": "97c54eb4142e27a5986ea569ebfab40f5eea33b57d6580b38332a6eaf9216a06",
            "last_checked": "34f39d6899edaacf33405c57f6d9fe19fa6c50de73eb294f7e151bed07d90503",
            "reverse_count": "c477c3c5cd07c3351b7793f0a82fe63711514933c38db5228affce53ebb9810d",
            "seq": "a159c00bb160c4deba49a95a24c385e6afb372606f6a2dc4429b8ce41c0a06df",
        },
        6458,
    ),
    ("stream", "strict"): (
        {
            "count": "9e77fa40dd8a954777e97c94dffb0850042b005ac6c5fea802694bdf4724393a",
            "index": "ca3ab4b97652e428713be49f395046fb37bfa49d3b5d9b651f68ab4ea1317aed",
            "last_checked": "9f348a5dc984ea26df1f8cd31d28d8ef2a83e86e4405e3b777e484b151c694db",
            "reverse_count": "5147a90c9b134530c3b285f39c02e023fab7453a1452492db942375b91948ad9",
            "seq": "a159c00bb160c4deba49a95a24c385e6afb372606f6a2dc4429b8ce41c0a06df",
        },
        4869,
    ),
}


@pytest.mark.parametrize("method", (PairMethod.INDEXING, PairMethod.STRICT), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_stored_values_and_wal_match_the_committed_digests(tmp_path, name, method):
    digests, _, wal_bytes = _build(tmp_path, name, method)
    assert (digests, wal_bytes) == EXPECTED[name, method.value]


@pytest.mark.parametrize("method", (PairMethod.PARSING, PairMethod.STATE), ids=lambda m: m.value)
def test_other_stnm_flavours_store_the_same_maps(tmp_path, method):
    """Pair-emission order -- hence the key order inside a Count document and
    the row order of nothing -- is each flavour's own; the content is not."""
    _, expected, _ = _build(tmp_path, "int", PairMethod.INDEXING)
    _, maps, _ = _build(tmp_path, "int", method)
    assert maps == expected
