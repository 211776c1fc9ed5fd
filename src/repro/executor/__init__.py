"""The shard coordinator's deadline-aware fan-out pool.

The paper's per-trace parallel pre-processing is shard placement here: each
shard's builder indexes its own traces into its own store (:mod:`repro.shard`).
"""

from repro.executor.parallel import ParallelExecutor

__all__ = ["ParallelExecutor"]
