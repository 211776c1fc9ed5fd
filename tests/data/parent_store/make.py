"""Regenerate ``tests/data/parent_store/store`` -- run with the PARENT commit.

    PYTHONPATH=<checkout of 9909e69>/src python tests/data/parent_store/make.py

The committed store was written by commit 9909e69, the last one before the
MANIFEST recorded an on-disk ``format``: every row is in a current layout
(NUMBERED and RAW Index chunks, SEQUENCE chunks and plain Seq items,
first-keyed LastChecked rows) and every SSTable is zlib v2, but the
MANIFEST has no ``format`` field, so the store does not open until
``repro upgrade`` has run.  Batch 0 is flushed into an SSTable; batch 1 is
left in the WAL, unflushed (the store is dropped like a killed process), so
the upgrade has to replay it.  Batch 1 mixes int and float stamps in one
trace, which the engine writes as RAW Index chunks.  ``events.json`` holds
the batches.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.faults.harness import simulate_crash
from repro.kvstore import LSMStore

HERE = os.path.dirname(os.path.abspath(__file__))
ALPHABET = "ABCDE"


def make_batches() -> list[list[list]]:
    rng = random.Random(29)
    batches: list[list[list]] = [[], []]
    for t in range(12):
        clock = rng.randrange(5)
        for batch in (0, 1):
            for _ in range(rng.randrange(1, 6)):
                clock += rng.randrange(1, 30)
                # trace 11's second batch mixes int and float stamps: RAW chunks
                ts = float(clock) if t == 11 and batch == 1 and clock % 2 else clock
                batches[batch].append([f"trace-{t:02d}", rng.choice(ALPHABET), ts])
    return batches


def main() -> None:
    batches = make_batches()
    with open(os.path.join(HERE, "events.json"), "w", encoding="utf-8") as fh:
        rows = ",\n  ".join(json.dumps(batch) for batch in batches)
        fh.write(f'{{"batches": [\n  {rows}\n ]}}\n')
    path = os.path.join(HERE, "store")
    shutil.rmtree(path, ignore_errors=True)
    index = SequenceIndex(LSMStore(path))
    index.update([Event(*row) for row in batches[0]])
    index.flush()
    index.update([Event(*row) for row in batches[1]])
    simulate_crash(index.store)  # batch 1 stays in the WAL
    print(sorted(os.listdir(path)))


if __name__ == "__main__":
    main()
