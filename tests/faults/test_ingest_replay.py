"""Ingest crash-replay: fixed tier-1 seeds plus the wide opt-in sweep.

Each seed kills the tailing ingester at a seeded batch boundary
(``pre_apply`` or ``pre_checkpoint``), replays from the durable
checkpoint, and requires the recovered index to be logically identical to
a clean one-shot batch build (``repro.ingest.convergence``).  A kill
*inside* ``update()`` (``phase="mid_apply"``) is the stated hole of
docs/INGEST.md and is pinned here as a strict expected failure.
"""

from __future__ import annotations

import pytest

from repro.faults import run_ingest_replay
from repro.faults.ingest import IngestReplayFailure, generate_feed_events

# Fixed seeds exercised on every tier-1 run; chosen to cover both kill
# phases, single and sharded stores, and a named partition (the coverage
# test below pins that mapping so the harness can't drift quiet).
TIER1_SEEDS = (0, 1, 2, 3, 5, 12)


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
        # A pre-checkpoint kill leaves one applied-but-uncheckpointed
        # batch, so the replay must dedup it; a pre-apply kill replays
        # nothing already indexed.
        if summary["phase"] == "pre_checkpoint":
            assert summary["deduped"] > 0
        else:
            assert summary["deduped"] == 0
        assert summary["replayed"] > 0

    def test_fixed_seeds_cover_the_config_space(self, tmp_path):
        summaries = [
            run_ingest_replay(seed, path=str(tmp_path / str(seed)))
            for seed in TIER1_SEEDS
        ]
        assert {s["phase"] for s in summaries} == {
            "pre_apply",
            "pre_checkpoint",
        }
        assert {s["shards"] for s in summaries} == {1, 2}
        assert "" in {s["partition"] for s in summaries}
        assert "audit" in {s["partition"] for s in summaries}


@pytest.mark.xfail(
    strict=True,
    raises=IngestReplayFailure,
    reason="an update() is many separate WAL records, Seq first: a kill between "
    "them leaves Seq ahead of the Index and the replay filter drops the events "
    "whose pairs were never written (docs/INGEST.md); needs one WAL frame per update",
)
def test_mid_apply_kill_converges(tmp_path):
    for seed in TIER1_SEEDS:
        run_ingest_replay(seed, path=str(tmp_path / str(seed)), phase="mid_apply")


def test_unknown_phase_is_rejected():
    with pytest.raises(ValueError):
        run_ingest_replay(0, phase="post_apply")


@pytest.mark.faults
class TestSweep:
    @pytest.mark.parametrize("seed", range(60))
    def test_seed_converges(self, seed, tmp_path):
        run_ingest_replay(seed, path=str(tmp_path))
