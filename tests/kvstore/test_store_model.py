"""Property-based equivalence: LSM store == dict model == InMemoryStore.

A stateful hypothesis test drives random operation sequences (puts, merges,
deletes, flushes, compactions, compactions *killed* between writing their
output and the manifest swap, reopen-from-disk) against the durable store
and a plain dictionary model, checking full agreement after every step.
The killed-compaction rule interleaving with reopen property-tests
recovery-during-compaction: a half-written SSTable the manifest never
references must be ignored and the pre-compaction tables stay authoritative.
"""

from __future__ import annotations

import tempfile

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.faults import TRUNCATE_CRASH, Fault, FaultSchedule, FaultyIO, SimulatedCrash
from repro.kvstore import InMemoryStore, LSMStore
from repro.kvstore.merge import ListAppendMerge

KEYS = st.sampled_from(["a", "b", "c", ("pair", 1), ("pair", 2), 42])
VALUES = st.one_of(
    st.integers(-100, 100),
    st.text(max_size=8),
    st.lists(st.integers(0, 9), max_size=4),
)
DELTAS = st.lists(st.integers(0, 9), min_size=1, max_size=4)

_OP = ListAppendMerge()


class StoreModelMachine(RuleBasedStateMachine):
    """Random ops against LSMStore + InMemoryStore + a dict model."""

    def _open(self) -> LSMStore:
        return LSMStore(
            self.dir,
            memtable_flush_bytes=256,
            compaction_min_tables=2,
            io=self.io,
        )

    @initialize()
    def setup(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="lsm-model-")
        # Tiny flush threshold and aggressive compaction exercise the full
        # write path constantly, not just the memtable.
        # No fault is scheduled until the killed-compaction rule arms one.
        self.io = FaultyIO(FaultSchedule())
        self.lsm = self._open()
        self.mem = InMemoryStore()
        for store in (self.lsm, self.mem):
            store.create_table("plain")
            store.create_table("idx", merge_operator="list_append")
        self.model_plain: dict = {}
        self.model_idx: dict = {}

    def teardown(self) -> None:
        self.lsm.close()
        self.mem.close()

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.lsm.put("plain", key, value)
        self.mem.put("plain", key, value)
        self.model_plain[_norm(key)] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.lsm.delete("plain", key)
        self.mem.delete("plain", key)
        self.model_plain.pop(_norm(key), None)

    @rule(key=KEYS, delta=DELTAS)
    def merge(self, key, delta):
        self.lsm.merge("idx", key, delta)
        self.mem.merge("idx", key, delta)
        base = self.model_idx.get(_norm(key))
        self.model_idx[_norm(key)] = _OP.full_merge(base, [list(delta)])

    @rule(key=KEYS)
    def delete_merged(self, key):
        self.lsm.delete("idx", key)
        self.mem.delete("idx", key)
        self.model_idx.pop(_norm(key), None)

    @rule()
    def flush(self):
        self.lsm.flush()

    @rule()
    def compact(self):
        self.lsm.compact()

    @rule()
    def killed_compaction(self):
        """Kill a major compaction after its output file, before the swap.

        The truncated orphan SSTable is exactly what a crash in the
        background worker's vulnerable window leaves behind; every later
        rule (reads, scans, reopen) must be oblivious to it.
        """
        self.lsm.flush()
        # TRUNCATE_CRASH halves the merged SSTable and raises SimulatedCrash.
        self.io.schedule = FaultSchedule(
            [Fault(TRUNCATE_CRASH, "point:compaction.pre_swap")]
        )
        try:
            self.lsm.compact_all()
        except SimulatedCrash:
            pass
        finally:
            self.io.schedule = FaultSchedule()

    @rule()
    def verify_integrity(self):
        # Live tables must always pass a scrub, orphans notwithstanding.
        self.lsm.verify()

    @rule()
    def reopen(self):
        self.lsm.close()
        self.lsm = self._open()

    @rule(key=KEYS)
    def check_point_reads(self, key):
        expect_plain = self.model_plain.get(_norm(key))
        expect_idx = self.model_idx.get(_norm(key))
        for store in (self.lsm, self.mem):
            assert store.get("plain", key) == expect_plain
            assert store.get("idx", key) == expect_idx

    @rule(keys=st.lists(KEYS, min_size=1, max_size=8))
    def check_multi_get(self, keys):
        # multi_get must be indistinguishable from a loop of gets, for any
        # batch -- duplicates included -- at every point of the lifecycle
        # (across memtables, SSTables, post-flush, post-compaction, reopen).
        for table in ("plain", "idx"):
            for store in (self.lsm, self.mem):
                expected = [store.get(table, key, "absent") for key in keys]
                assert store.multi_get(table, keys, "absent") == expected

    @rule(low=KEYS, high=KEYS)
    def check_range_scans(self, low, high):
        from repro.kvstore.encoding import encode_key

        low_enc = encode_key(_norm(low))
        expected = {
            key: value
            for key, value in self.model_plain.items()
            if encode_key(key) >= low_enc and encode_key(key) < encode_key(_norm(high))
        }
        for store in (self.lsm, self.mem):
            got = {k: v for k, v in store.scan_range("plain", low, high)}
            assert got == expected

    @invariant()
    def scans_agree_with_model(self):
        model_plain = dict(self.model_plain)
        model_idx = dict(self.model_idx)
        for store in (self.lsm, self.mem):
            assert {k: v for k, v in store.scan("plain")} == model_plain
            assert {k: v for k, v in store.scan("idx")} == model_idx


def _norm(key):
    return key if isinstance(key, tuple) else (key,)


_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None)
TestStoreModel = StoreModelMachine.TestCase
TestStoreModel.settings = _SETTINGS
