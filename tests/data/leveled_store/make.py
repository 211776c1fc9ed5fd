"""Regenerate ``tests/data/leveled_store/store`` -- run with the PARENT commit.

    PYTHONPATH=<checkout of 8d4d4af>/src python tests/data/leveled_store/make.py

The committed store was written by commit 8d4d4af, the last one with the
leveled compaction strategy: ``LSMStore(compaction="leveled")`` with tiny
level budgets, fed day after day of rows whose keys grow with the day, so
its MANIFEST holds L1+ tables (with ``level``, ``min_key`` / ``max_key`` and
``compaction`` fields) and at least one table that reached its level by a
trivial move (a manifest-only promotion).  The last day stays in the WAL.
``events.json`` holds what a scan of each table returns, checked here
against a dict model of the writes.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from repro.kvstore import LeveledConfig, LSMStore

HERE = os.path.dirname(os.path.abspath(__file__))
DAYS = 6
CONFIG = LeveledConfig(
    l0_compact_tables=2, base_level_bytes=600, fanout=2, max_output_bytes=300
)


def main() -> None:
    path = os.path.join(HERE, "store")
    shutil.rmtree(path, ignore_errors=True)
    rng = random.Random(41)
    kv: dict = {}
    log: dict = {}
    store = LSMStore(
        path, memtable_flush_bytes=1 << 20, compaction="leveled", leveled=CONFIG
    )
    store.create_table("kv")
    store.create_table("log", merge_operator="list_append")
    for day in range(DAYS):
        for i in range(8):
            key = (f"d{day}", i)
            value = f"{day}:{i}:" + "x" * rng.randrange(4, 12)
            store.put("kv", key, value)
            kv[key] = value
            pair = (f"d{day}", i % 4)
            store.merge("log", pair, [day * 100 + i])
            log.setdefault(pair, []).append(day * 100 + i)
        if day:  # a delete that must shadow an older level
            gone = (f"d{day - 1}", rng.randrange(8))
            store.delete("kv", gone)
            kv.pop(gone, None)
        if day < DAYS - 1:
            store.flush()  # the inline rule drains every promotion
    moves = store.metrics.compaction_moves
    levels = store.level_stats()
    for table, model in (("kv", kv), ("log", log)):
        assert dict(store.scan(table)) == model, table
    store._wal._file.flush()
    store._wal._file.close()  # a crash: the last day stays in the WAL
    for reader in store._tableset.readers:
        reader.close()
    assert moves >= 1 and len(levels) >= 3, (moves, levels)
    with open(os.path.join(HERE, "events.json"), "w", encoding="utf-8") as fh:
        tables = []
        for table, model in (("kv", kv), ("log", log)):
            rows = ",\n  ".join(
                json.dumps([list(key), value]) for key, value in sorted(model.items())
            )
            tables.append(f'"{table}": [\n  {rows}\n ]')
        fh.write("{" + ",\n ".join(tables) + "}\n")
    print(moves, levels, sorted(os.listdir(path)))


if __name__ == "__main__":
    main()
