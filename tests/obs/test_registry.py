"""Metrics registry: registration lifecycle and exposition format."""

from __future__ import annotations

import gc

from repro.kvstore import LSMStore
from repro.obs.registry import METRIC_CATALOG, REGISTRY, MetricsRegistry, store_samples


class TestExpositionFormat:
    def test_golden_exposition(self):
        """Pin the exact text format: HELP/TYPE headers, sorted labels."""
        registry = MetricsRegistry()
        registry.register(
            {"store": "/data/ix", "backend": "lsm"},
            lambda: {"repro_store_gets_total": 42, "repro_store_sstables": 3},
        )
        assert registry.render() == (
            "# HELP repro_store_gets_total Point reads served "
            "(each multi_get key counts once).\n"
            "# TYPE repro_store_gets_total counter\n"
            'repro_store_gets_total{backend="lsm",store="/data/ix"} 42\n'
            "# HELP repro_store_sstables Live SSTables on disk.\n"
            "# TYPE repro_store_sstables gauge\n"
            'repro_store_sstables{backend="lsm",store="/data/ix"} 3\n'
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.register(
            {"store": 'a"b\\c\nd'}, lambda: {"repro_store_gets_total": 1}
        )
        assert '{store="a\\"b\\\\c\\nd"}' in registry.render()

    def test_multiple_sources_sorted_by_labels(self):
        registry = MetricsRegistry()
        registry.register({"store": "b"}, lambda: {"repro_store_gets_total": 2})
        registry.register({"store": "a"}, lambda: {"repro_store_gets_total": 1})
        body = registry.render()
        assert body.index('store="a"') < body.index('store="b"')

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_float_values_render_compactly(self):
        registry = MetricsRegistry()
        registry.register({}, lambda: {"repro_store_gets_total": 2.0})
        assert "repro_store_gets_total 2\n" in registry.render()


class TestLifecycle:
    def test_unregister_removes_source(self):
        registry = MetricsRegistry()
        handle = registry.register({}, lambda: {"repro_store_gets_total": 1})
        registry.unregister(handle)
        assert registry.render() == ""

    def test_dead_bound_method_pruned(self):
        class Source:
            def collect(self):
                return {"repro_store_gets_total": 1}

        registry = MetricsRegistry()
        source = Source()
        registry.register({}, source.collect)
        assert "repro_store_gets_total" in registry.render()
        del source
        gc.collect()
        assert registry.render() == ""

    def test_raising_collector_dropped(self):
        registry = MetricsRegistry()

        def bad():
            raise RuntimeError("closed")

        registry.register({}, bad)
        registry.register({}, lambda: {"repro_store_gets_total": 1})
        assert "repro_store_gets_total 1" in registry.render()
        assert len(registry.collect()["repro_store_gets_total"]) == 1


class TestStoreIntegration:
    def test_lsm_store_registers_and_unregisters(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore(path) as store:
            store.create_table("t")
            store.put("t", "a", 1)
            store.get("t", "a")
            body = REGISTRY.render()
            assert f'store="{path}"' in body
            assert "repro_store_gets_total" in body
        assert f'store="{path}"' not in REGISTRY.render()

    def test_store_samples_covers_all_counters(self):
        from repro.kvstore.lsm import StoreMetrics

        snapshot = StoreMetrics().snapshot()
        samples = store_samples(
            snapshot,
            sstables=1,
            tables=2,
            cache_stats={"entries": 1, "weight": 10, "evictions": 0},
            bytes_on_disk=100,
        )
        for name in samples:
            assert name in METRIC_CATALOG, f"{name} missing from METRIC_CATALOG"

    def test_engine_samples_catalogued(self):
        from repro.core.engine import SequenceIndex

        index = SequenceIndex(slow_query_threshold=10.0)
        try:
            for name in index._collect_obs_metrics():
                assert name in METRIC_CATALOG, f"{name} missing from METRIC_CATALOG"
        finally:
            index.close()
