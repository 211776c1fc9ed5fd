"""Ingest crash-replay: fixed tier-1 seeds plus the wide opt-in sweep.

Each seed kills the tailing ingester at a seeded point -- before a batch's
apply, inside it (a torn WAL frame, or partway through the memtable apply
once the frame is written), or between apply and checkpoint -- replays from
the durable checkpoint, and requires the recovered index to be logically
identical to a clean one-shot batch build (``repro.ingest.convergence``).
"""

from __future__ import annotations

import pytest

from repro.faults import LOST_RENAME, Fault, run_ingest_replay
from repro.faults.ingest import generate_feed_events

# Fixed seeds exercised on every tier-1 run; chosen to cover every kill
# point, single and sharded stores, and a named partition (the coverage
# test below pins that mapping so the harness can't drift quiet).
TIER1_SEEDS = (0, 1, 2, 3, 5, 6, 12)


class TestFeedGeneration:
    def test_deterministic(self):
        a = [repr(e) for e in generate_feed_events(7)]
        b = [repr(e) for e in generate_feed_events(7)]
        assert a == b

    def test_per_trace_timestamps_strictly_increase(self):
        last: dict[str, float] = {}
        for event in generate_feed_events(3):
            if event.trace_id in last:
                assert event.timestamp > last[event.trace_id]
            last[event.trace_id] = event.timestamp

    def test_timestamps_are_integral(self):
        # Integer timestamps keep Count-table duration sums exact across
        # batch groupings, which the snapshot comparison relies on.
        assert all(
            e.timestamp == int(e.timestamp) for e in generate_feed_events(11)
        )


class TestFixedSeeds:
    @pytest.mark.parametrize("seed", TIER1_SEEDS)
    def test_replay_converges(self, seed, tmp_path):
        summary = run_ingest_replay(seed, path=str(tmp_path))
        # A pre-checkpoint kill, or one after the batch's WAL frame is
        # written, leaves the whole batch in the store uncheckpointed, so the
        # replay must dedup it.  A pre-apply kill leaves none of it on any
        # shard; a torn frame leaves none on its own shard, but on a sharded
        # store the other shard's frame may have landed.
        if summary["kill"] in ("pre_checkpoint", "mid_apply/memtable_apply"):
            assert summary["deduped"] > 0
        elif summary["kill"] == "pre_apply" or summary["shards"] == 1:
            assert summary["deduped"] == 0
        assert summary["replayed"] > 0

    def test_fixed_seeds_cover_the_config_space(self, tmp_path):
        summaries = [
            run_ingest_replay(seed, path=str(tmp_path / str(seed)))
            for seed in TIER1_SEEDS
        ]
        assert {s["kill"] for s in summaries} == {
            "pre_apply",
            "mid_apply/torn_frame",
            "mid_apply/memtable_apply",
            "pre_checkpoint",
        }
        assert {s["shards"] for s in summaries} == {1, 2}
        assert "" in {s["partition"] for s in summaries}
        assert "audit" in {s["partition"] for s in summaries}


def test_mid_apply_kill_converges(tmp_path):
    """A kill inside ``update()`` converges on every tier-1 seed: the update
    is one WAL frame, so recovery holds all of the batch or none of it and
    the replay filter, which trusts ``Seq``, never skips a lost pair."""
    kills = {
        run_ingest_replay(seed, path=str(tmp_path / str(seed)), phase="mid_apply")["kill"]
        for seed in TIER1_SEEDS
    }
    assert kills == {"mid_apply/torn_frame", "mid_apply/memtable_apply"}


@pytest.mark.parametrize("seed", (0, 1), ids=("1-shard", "2-shards"))
def test_a_lost_rename_anywhere_converges(seed, tmp_path):
    """A power cut at each rename the run makes -- MANIFEST commits and
    checkpoints, on ``sync_wal=True`` stores -- still replays to the clean
    build."""
    never = Fault(LOST_RENAME, "rename", nth=10**9)
    counted = run_ingest_replay(seed, path=str(tmp_path / "count"), phase=never)
    assert counted["kill"] is None and counted["shards"] == seed + 1
    for nth in range(1, counted["renames"] + 1):
        fault = Fault(LOST_RENAME, "rename", nth=nth)
        summary = run_ingest_replay(seed, path=str(tmp_path / str(nth)), phase=fault)
        assert summary["kill"] == f"lost_rename at rename#{nth}"


def test_unknown_phase_is_rejected():
    with pytest.raises(ValueError):
        run_ingest_replay(0, phase="post_apply")


@pytest.mark.faults
class TestSweep:
    @pytest.mark.parametrize("seed", range(60))
    def test_seed_converges(self, seed, tmp_path):
        run_ingest_replay(seed, path=str(tmp_path))
