"""Ablation: blind merge-writes vs read-modify-write on the store.

DESIGN.md calls out the decision the paper's architecture rests on for the
append-heavy Index table: merge operators are what make batch updates
O(batch), not O(index).  Both workloads run on the one store,
:class:`~repro.kvstore.lsm.LSMStore`, and the index build beside them times
the same store under the whole pipeline.
"""

from __future__ import annotations

from conftest import SCALE
from repro.bench.workloads import build_index, prepared_dataset
from repro.core.policies import Policy
from repro.kvstore import LSMStore

DATASET = "max_1000"


def _index_workload(store):
    store.create_table("idx", merge_operator="list_append")
    for i in range(2000):
        store.merge("idx", ("A", f"B{i % 20}"), [(f"t{i}", i, i + 1)])
    store.close()


def _rmw_workload(store):
    store.create_table("idx")
    for i in range(2000):
        key = ("A", f"B{i % 20}")
        entries = store.get("idx", key, [])
        entries.append((f"t{i}", i, i + 1))
        store.put("idx", key, entries)
    store.close()


def _fresh(tmp_path):
    counter = iter(range(1_000_000))
    return lambda: LSMStore(str(tmp_path / f"db{next(counter)}"))


def test_merge_writes(benchmark, tmp_path):
    fresh = _fresh(tmp_path)
    benchmark.pedantic(lambda: _index_workload(fresh()), rounds=3, iterations=1)


def test_read_modify_write(benchmark, tmp_path):
    fresh = _fresh(tmp_path)
    benchmark.pedantic(lambda: _rmw_workload(fresh()), rounds=3, iterations=1)


def test_index_build_lsm_store(benchmark):
    log = prepared_dataset(DATASET, SCALE)
    benchmark.pedantic(lambda: build_index(log, Policy.STNM), rounds=3, iterations=1)
