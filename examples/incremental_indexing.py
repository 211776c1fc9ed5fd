"""Incremental, durable indexing: the paper's periodic-batch architecture.

New log events arrive continuously; the index is updated in batches
(Algorithm 1) against a durable LSM store, survives a process restart, and
completed traces are pruned from the bookkeeping tables (§3.1.3).  Index
partitions per period keep any one Index table bounded.

Run with::

    python examples/incremental_indexing.py
"""

import tempfile

from repro import Event, Policy, SequenceIndex
from repro.kvstore import LSMStore
from repro.logs.process_generator import generate_process_log


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-index-")
    print(f"store directory: {workdir}")

    # Day 0: bulk-load the historical log.
    history = generate_process_log(num_traces=500, num_activities=20, seed=5)
    with SequenceIndex(LSMStore(workdir), policy=Policy.STNM) as index:
        stats = index.update(history, partition="2026-06")
        print(
            f"bulk load: {stats.events_indexed} events, "
            f"{stats.pairs_created} pairs in partition 2026-06"
        )

        # Days 1..3: periodic batches -- some new traces, some traces that
        # continue.  Only pairs completing after a trace's stored tail are
        # added, so no pair is indexed twice.
        continuing = history.trace_ids[:50]
        for day in range(1, 4):
            batch = []
            for trace_id in continuing:
                tail = history.trace(trace_id).timestamps[-1]
                batch.append(Event(trace_id, "followup", tail + day * 10))
                batch.append(Event(trace_id, "close", tail + day * 10 + 1))
            stats = index.update(batch, partition="2026-07")
            print(
                f"day {day}: +{stats.events_indexed} events, "
                f"+{stats.pairs_created} pairs (incremental)"
            )

        pattern = ["followup", "close"]
        both = index.detect(pattern, partition=None)  # union of partitions
        print(f"{pattern} completions across partitions: {len(both)}")

        # A completed trace no longer needs its Seq row; no answer changes.
        index.prune_trace(continuing[0])
        print(f"pruned trace {continuing[0]} from Seq")

    # Restart: everything is recovered from the manifest + WAL.
    with SequenceIndex(LSMStore(workdir), policy=Policy.STNM) as reopened:
        matches = reopened.detect(["followup", "close"], partition=None)
        print(f"after restart: {len(matches)} completions still indexed")


if __name__ == "__main__":
    main()
