"""The query service: a multi-client socket front-end over an index.

``repro.service`` serves any engine -- a single-store
:class:`~repro.core.engine.SequenceIndex` or a
:class:`~repro.shard.index.ShardedSequenceIndex` -- over a small
length-prefixed JSON protocol (:mod:`repro.service.protocol`).  The server
(:mod:`repro.service.server`) is a socket + threadpool design with
admission control (bounded in-flight queries), per-request deadlines
checked between query stages and between shards, bounded backpressure on
the ingest path, and a
graceful drain on shutdown.  :mod:`repro.service.client` is the matching
blocking client and :mod:`repro.service.loadgen` the closed-loop load
generator behind ``repro loadgen`` and ``benchmarks/bench_sharded_service.py``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.server import SequenceService

__all__ = [
    "MAX_FRAME_BYTES",
    "LoadgenReport",
    "ProtocolError",
    "SequenceService",
    "ServiceClient",
    "ServiceError",
    "recv_frame",
    "run_loadgen",
    "send_frame",
]
