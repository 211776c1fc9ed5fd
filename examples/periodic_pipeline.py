"""The full Figure-1 architecture: event feed -> periodic indexing tick.

Events stream into an append-only feed; a tick (the paper's periodic
update, e.g. a weekly cron) drains everything not yet indexed into a
durable sequence index, routing each event to its month's index partition
(§3.1.3).  Queries run against the union of partitions at any time.

This is the path every served deployment runs on (docs/INGEST.md):
``FeedWriter`` appends, one ``TailIngester`` with a checkpoint file drains.
The per-month routing is a sink -- anything with
``apply(events) -> (applied, dropped)``.

Run with::

    python examples/periodic_pipeline.py
"""

import random
import tempfile

from repro import Event, Policy, SequenceIndex
from repro.ingest import FeedEvent, FeedWriter, TailIngester
from repro.kvstore import LSMStore

ACTIVITIES = ("create", "review", "approve", "reject", "archive")

DAY = 86_400.0


def _simulate_day(day: int, rng: random.Random) -> list[Event]:
    """A day's worth of workflow events, some new cases, some continuing."""
    events = []
    base = day * DAY
    for case in range(day * 5, day * 5 + 8):  # cases overlap days
        ts = base + rng.uniform(0, DAY / 2)
        for activity in rng.sample(ACTIVITIES, rng.randint(2, len(ACTIVITIES))):
            events.append(Event(f"case_{case}", activity, round(ts, 3)))
            ts += rng.uniform(60, DAY / 4)
    return events


def month_of(event: FeedEvent) -> str:
    return f"month-{int(event.timestamp // (30 * DAY)):02d}"


class MonthlySink:
    """Routes a batch to per-month Index partitions, then flushes the store.

    Partition names must sort in time order (zero-padded months do) so a
    trace straddling months is appended oldest-first.  The flush keeps the
    checkpoint -- written after ``apply`` returns -- from ever running ahead
    of a flushed store, which a weekly tick can afford.
    """

    def __init__(self, index: SequenceIndex) -> None:
        self.index = index

    def apply(self, events: list[FeedEvent]) -> tuple[int, int]:
        by_month: dict[str, list[Event]] = {}
        for event in events:
            by_month.setdefault(month_of(event), []).append(event.to_event())
        stats = [
            self.index.update(batch, partition=name, dedup=True)
            for name, batch in sorted(by_month.items())
        ]
        self.index.flush()
        return (
            sum(s.events_indexed for s in stats),
            sum(s.events_deduped for s in stats),
        )


def main() -> None:
    rng = random.Random(7)
    workdir = tempfile.mkdtemp(prefix="repro-pipeline-")
    feed = FeedWriter(f"{workdir}/feed.jsonl")
    index = SequenceIndex(LSMStore(f"{workdir}/index"), policy=Policy.STNM)
    ingester = TailIngester(
        feed.path, MonthlySink(index), f"{workdir}/feed.checkpoint"
    )

    indexed = 0
    for day in range(40):
        feed.append(_simulate_day(day, rng))
        if day % 7 == 6:  # weekly indexing tick
            stats = ingester.drain()
            print(
                f"day {day:>2}: indexed {stats.events_applied - indexed} events, "
                f"checkpoint at byte {stats.offset}"
            )
            indexed = stats.events_applied
    stats = ingester.drain()  # final drain
    print(f"final drain: {stats.events_applied - indexed} events")
    ingester.close()
    feed.close()

    pattern = ["create", "approve", "archive"]
    matches = index.detect(pattern, partition=None)
    print(f"\n{pattern}: {len(matches)} completions across all partitions")
    proposals = index.continuations(
        ["create", "review"], mode="hybrid", top_k=3, partition=None
    )
    print("after create -> review, most likely next:")
    for proposal in proposals[:3]:
        print(f"  {proposal.event} (score {proposal.score:.2e})")
    index.close()


if __name__ == "__main__":
    main()
