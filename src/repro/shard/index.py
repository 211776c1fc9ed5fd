"""`ShardedSequenceIndex`: N independent engine shards behind one engine.

Every shard is a full single-store :class:`~repro.core.engine.SequenceIndex`
over its own store; :func:`~repro.shard.hashing.shard_for_trace` places
traces, so one trace's Seq row, postings and counts live on one shard and
per-trace pruning never crosses a shard boundary.

The engine surface -- queries, merges, the write split, introspection -- is
:class:`~repro.core.engine.QueryEngine`'s, written once over the shards.
This module adds what is really sharded: the placement rule, the manifest
(``SHARDS.json``) and :meth:`ShardedSequenceIndex.open`, the per-shard shape
of ``storage_stats()``, and the ``shard.fanout`` span and counters around a
read's fan-out.  Reads and writes alike run shard after shard in the
caller's thread: the shards of one process share one GIL, so a thread pool
would only add hand-offs.  A read checks its deadline between shards.

Cross-shard consistency is per-shard read-committed: a query racing an
``update()`` may see the new batch on some shards and not yet on others;
each trace's result is always consistent because a trace lives on exactly
one shard.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.engine import QueryEngine, SequenceIndex, check_cache_bytes
from repro.core.errors import DeadlineExceeded
from repro.executor import ParallelExecutor
from repro.obs.registry import REGISTRY
from repro.obs.trace import current_tracer
from repro.shard.hashing import HASH_NAME, shard_for_trace

MANIFEST_NAME = "SHARDS.json"
_MANIFEST_VERSION = 1


def write_manifest(root: str | Path, num_shards: int) -> None:
    """Persist the shard layout of a sharded store directory."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": _MANIFEST_VERSION,
        "num_shards": int(num_shards),
        "hash": HASH_NAME,
    }
    path = root / MANIFEST_NAME
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)


def read_manifest(root: str | Path) -> dict[str, Any]:
    """Load and validate a shard manifest; raises on unknown layouts."""
    path = Path(root) / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(f"unsupported shard manifest version: {manifest!r}")
    if manifest.get("hash") != HASH_NAME:
        raise ValueError(
            f"unsupported shard hash {manifest.get('hash')!r}; this build "
            f"only understands {HASH_NAME!r}"
        )
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or num_shards <= 0:
        raise ValueError(f"invalid num_shards in shard manifest: {manifest!r}")
    return manifest


def is_sharded_store(root: str | Path) -> bool:
    """True when ``root`` holds a shard manifest."""
    return (Path(root) / MANIFEST_NAME).is_file()


def shard_paths(root: str | Path, num_shards: int) -> list[Path]:
    """Per-shard store directories under a sharded store root."""
    return [Path(root) / f"shard-{i:02d}" for i in range(num_shards)]


class _ShardMetrics:
    """Coordinator-level counters, registry-collected."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._lock = threading.Lock()
        self.fanouts = 0
        self.deadline_exceeded = 0

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def collect(self) -> dict[str, float]:
        with self._lock:
            return {
                "repro_shard_count": self.num_shards,
                "repro_shard_fanout_total": self.fanouts,
                "repro_shard_fanout_deadline_total": self.deadline_exceeded,
            }


class ShardedSequenceIndex(QueryEngine):
    """Scatter-gather engine over N single-store engine shards.

    Same read/write surface as :class:`~repro.core.engine.SequenceIndex`
    (the single-store engine is the 1-shard case of it), answering every
    query byte-identically on the same data.

    On ``deadline`` expiry the fan-out stops before the next shard and
    :class:`~repro.core.errors.DeadlineExceeded` propagates -- the serving
    layer maps it to a ``deadline`` error response.
    """

    def __init__(
        self, shards: Sequence[SequenceIndex], name: str = "sharded"
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        super().__init__()
        self.shards = list(shards)
        self.metrics = _ShardMetrics(len(self.shards))
        self._obs_handle = REGISTRY.register({"index": name}, self.metrics.collect)

    # -- construction over on-disk stores ----------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        store_factory: Callable[[str], Any],
        num_shards: int | None = None,
        executor: ParallelExecutor | None = None,
        query_cache_size: int = 0,
        **engine_kwargs: Any,
    ) -> "ShardedSequenceIndex":
        """Open (or create) a sharded store rooted at ``root``.

        ``store_factory(path)`` builds one shard's
        :class:`~repro.kvstore.api.KeyValueStore`.  An existing manifest
        wins over ``num_shards`` (reopening with a different count would
        strand traces on the wrong shard); creating a new store requires
        ``num_shards``.

        ``query_cache_size`` has one valid value, 0: there is no query-result
        cache.  ``executor`` has one valid value besides ``None``, an
        instance of the :class:`~repro.executor.ParallelExecutor` stub, and
        changes nothing: every fan-out runs in the calling thread.  Both are
        kept for ``benchmarks/pipeline/workloads/serve_mixed.py``, which
        passes them; ROADMAP item 1(a)'s harness edit removes them.

        If a shard fails to open, every shard and store opened before it is
        closed and the error propagates.
        """
        root = Path(root)
        # a bad argument must not leave a manifest behind
        if query_cache_size != 0:
            raise ValueError("query_cache_size must be 0: there is no query cache")
        if executor is not None and not isinstance(executor, ParallelExecutor):
            raise TypeError(
                "executor must be None or ParallelExecutor.serial(): every "
                "shard fan-out runs in the calling thread"
            )
        check_cache_bytes(engine_kwargs.get("cache_bytes", 0))
        if is_sharded_store(root):
            manifest = read_manifest(root)
            if num_shards is not None and num_shards != manifest["num_shards"]:
                raise ValueError(
                    f"store at {root} has {manifest['num_shards']} shards; "
                    f"cannot reopen with {num_shards} (resharding is not "
                    "supported)"
                )
            num_shards = manifest["num_shards"]
        else:
            if num_shards is None:
                raise ValueError("num_shards is required to create a new store")
            write_manifest(root, num_shards)
        shards: list[SequenceIndex] = []
        try:
            for path in shard_paths(root, num_shards):
                store = store_factory(str(path))
                try:
                    shards.append(SequenceIndex(store, **engine_kwargs))
                except BaseException:
                    store.close()
                    raise
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        return cls(shards, name=str(root))

    def shard_of(self, trace_id: str) -> int:
        """The shard index owning ``trace_id``."""
        return shard_for_trace(trace_id, len(self.shards))

    def _gather(
        self, task: Callable[[SequenceIndex], Any], deadline: float | None
    ) -> list[Any]:
        """:meth:`QueryEngine._gather` inside the ``shard.fanout`` span, counted."""
        self.metrics.bump("fanouts")
        span = current_tracer().span("shard.fanout")
        with span:
            if span.enabled:
                span.add("shards", len(self.shards))
            try:
                return super()._gather(task, deadline)
            except DeadlineExceeded:
                self.metrics.bump("deadline_exceeded")
                raise

    def storage_stats(self) -> dict[str, Any]:
        """Aggregated storage accounting: per-shard breakdown plus totals."""
        self._check_open()
        per_shard = [
            {"shard": i, **shard.store.storage_stats()}
            for i, shard in enumerate(self.shards)
        ]
        totals = {"sstables": sum(len(s.get("sstables", ())) for s in per_shard)}
        for name in ("records", "data_bytes", "raw_data_bytes", "file_bytes"):
            totals[name] = sum(s.get(name, 0) for s in per_shard)
        disk = totals["data_bytes"]
        totals["compression_ratio"] = totals["raw_data_bytes"] / disk if disk else 1.0
        return {"num_shards": len(self.shards), "shards": per_shard, "totals": totals}
