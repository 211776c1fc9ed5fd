"""Ablation: design choices of the storage layer.

DESIGN.md calls out two decisions the paper's architecture rests on:

* **blind merge-writes vs read-modify-write** for the append-heavy Index
  table -- merge operators are what make batch updates O(batch), not
  O(index);
* **durable LSM store vs in-memory dict** -- the price of durability for
  the same workload.
"""

from __future__ import annotations

from conftest import SCALE
from repro.bench.workloads import build_index, prepared_dataset
from repro.core.policies import Policy
from repro.kvstore import InMemoryStore, LSMStore

DATASET = "max_1000"


def _index_workload(store):
    store.create_table("idx", merge_operator="list_append")
    for i in range(2000):
        store.merge("idx", ("A", f"B{i % 20}"), [(f"t{i}", i, i + 1)])
    return store


def _rmw_workload(store):
    store.create_table("idx")
    for i in range(2000):
        key = ("A", f"B{i % 20}")
        entries = store.get("idx", key, [])
        entries.append((f"t{i}", i, i + 1))
        store.put("idx", key, entries)
    return store


def test_merge_writes(benchmark):
    benchmark.pedantic(
        lambda: _index_workload(InMemoryStore()), rounds=3, iterations=1
    )


def test_read_modify_write(benchmark):
    benchmark.pedantic(lambda: _rmw_workload(InMemoryStore()), rounds=3, iterations=1)


def test_index_build_memory_store(benchmark):
    log = prepared_dataset(DATASET, SCALE)
    benchmark.pedantic(lambda: build_index(log, Policy.STNM), rounds=3, iterations=1)


def test_index_build_lsm_store(benchmark, tmp_path):
    log = prepared_dataset(DATASET, SCALE)
    counter = iter(range(1_000_000))

    def run():
        from repro.core.engine import SequenceIndex

        store = LSMStore(str(tmp_path / f"ix{next(counter)}"))
        index = SequenceIndex(store, policy=Policy.STNM)
        index.update(log)
        index.flush()
        store.close()

    benchmark.pedantic(run, rounds=3, iterations=1)
