"""Partitioned parallel execution, standing in for the paper's Spark jobs.

The pre-processing component of the paper parallelises *per trace*: every
trace's event pairs can be computed independently.  This package provides
exactly that computation model -- partition a collection, map a function over
partitions on a chosen backend, concatenate results -- with ``serial``,
``thread`` and ``process`` backends.  ``max_workers=1`` on the serial backend
reproduces the paper's "1 thread / single Spark executor" configurations.
"""

from repro.executor.parallel import ParallelExecutor
from repro.executor.partition import partition_items

__all__ = ["ParallelExecutor", "partition_items"]
