"""A stub kept for ``benchmarks/pipeline/workloads/serve_mixed.py``, which
passes ``ParallelExecutor.serial()`` to
:meth:`~repro.shard.index.ShardedSequenceIndex.open`; every shard fan-out runs
in the calling thread, so the argument changes nothing.  ROADMAP item 1(a)'s
harness edit drops it, and this package and ``open``'s ``executor`` go too.
"""

__all__ = ["ParallelExecutor"]


class ParallelExecutor:
    """Stands for a serial fan-out, the only kind there is."""

    @classmethod
    def serial(cls) -> "ParallelExecutor":
        """An instance ``ShardedSequenceIndex.open`` accepts as ``executor``."""
        return cls()
