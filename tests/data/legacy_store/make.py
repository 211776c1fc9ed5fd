"""Regenerate ``tests/data/legacy_store/store`` -- run with the PARENT commit.

    PYTHONPATH=<checkout of 0f13b18>/src python tests/data/legacy_store/make.py

The committed store was written by commit 0f13b18 (the last one with the
varint postings *encoder* and the ``postings_codec`` switch): batch 0 with
``postings_codec=False`` (legacy tuple Index entries), batches 1 and 2 with
the varint codec, every Seq row as a generic ``[activity, ts]`` list.  Each
batch is flushed into its own SSTable and nothing is compacted, so a read has
to merge formats across tables.  ``events.json`` holds the batches (the
fourth one is appended by the test with current code).
"""

from __future__ import annotations

import json
import os
import random
import shutil

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.kvstore import LSMStore

HERE = os.path.dirname(os.path.abspath(__file__))
ALPHABET = "ABCDE"
BATCHES = 4
PARTITIONS = ["", "", "p1", ""]


def make_batches() -> list[list[list]]:
    rng = random.Random(13)
    batches: list[list[list]] = [[] for _ in range(BATCHES)]
    for t in range(16):
        first = rng.choice((0, 0, 1, 2))  # some traces start late
        clock = rng.randrange(5)
        as_float = t % 5 == 4  # integral-float timestamps: the INTFLOAT tag
        for batch in range(first, BATCHES):
            for _ in range(rng.randrange(0, 7)):
                clock += rng.randrange(1, 40)
                ts = float(clock) if as_float else clock
                batches[batch].append([f"trace-{t:02d}", rng.choice(ALPHABET), ts])
    return batches


def main() -> None:
    batches = make_batches()
    with open(os.path.join(HERE, "events.json"), "w", encoding="utf-8") as fh:
        rows = ",\n  ".join(json.dumps(batch) for batch in batches)
        fh.write(
            f'{{"partitions": {json.dumps(PARTITIONS)},\n "batches": [\n  {rows}\n ]}}\n'
        )
    path = os.path.join(HERE, "store")
    shutil.rmtree(path, ignore_errors=True)
    for i, codec in enumerate((False, True, True)):
        index = SequenceIndex(
            LSMStore(path, auto_compact=False), postings_codec=codec
        )
        index.update([Event(*row) for row in batches[i]], partition=PARTITIONS[i])
        index.close()
    print(sorted(os.listdir(path)))


if __name__ == "__main__":
    main()
