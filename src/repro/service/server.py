"""The multi-client query server.

``SequenceService`` accepts TCP connections and serves the protocol of
:mod:`repro.service.protocol` over an index engine -- the single-store
:class:`~repro.core.engine.SequenceIndex` or the sharded
:class:`~repro.shard.index.ShardedSequenceIndex`, which share one query
surface (:class:`~repro.core.engine.QueryEngine`), so the benchmark can run
the exact same traffic against either.

Control planes:

* **admission control** -- at most ``max_inflight`` requests execute at
  once; a request that cannot acquire a slot immediately is rejected with
  ``overloaded`` (the client decides whether to retry), so a burst can
  never queue unboundedly behind slow queries.
* **per-request deadlines** -- ``deadline_ms`` (or the server default) is
  converted to an absolute instant when the request is admitted.  Expired
  deadlines short-circuit before execution; the engine receives the
  instant and checks it between query stages and between shards
  (:class:`~repro.core.errors.DeadlineExceeded` maps to the ``deadline``
  error code).
* **ingest backpressure** -- writes take a separate, smaller token pool
  (``max_ingest_inflight``) with a bounded wait (``ingest_wait_s``): a
  write burst slows producers down instead of starving reads, and waits
  longer than the bound are rejected with ``overloaded``.
* **graceful drain** -- :meth:`shutdown` stops accepting, answers every
  request already admitted, rejects new ones with ``shutdown``, then joins
  every connection thread and closes every socket; no thread or fd leaks
  (the tier-1 smoke test counts both).

The server holds no writer lock: "one writer per store" is the engine's
rule (:class:`~repro.core.engine.SequenceIndex` serializes ``update()``
itself; a sharded engine therefore serializes per shard, and concurrent
writers overlap on different shards).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable

from repro.core.errors import (
    DeadlineExceeded,
    EmptyPatternError,
    PatternSyntaxError,
    PolicyMismatchError,
    TraceOrderError,
)
from repro.core.model import Event
from repro.obs.registry import REGISTRY
from repro.service.protocol import ProtocolError, recv_frame, send_frame

_BAD_REQUEST_ERRORS = (
    EmptyPatternError,
    PatternSyntaxError,
    PolicyMismatchError,
    TraceOrderError,
    ValueError,
    TypeError,
    KeyError,
)


class _ServiceMetrics:
    """Registry-collected service counters (single lock; low rate)."""

    _NAMES = (
        "requests",
        "rejected",
        "ingest_rejected",
        "deadline_exceeded",
        "errors",
        "connections",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._NAMES:
            setattr(self, name, 0)
        self.active_requests = 0

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def collect(self) -> dict[str, float]:
        with self._lock:
            samples = {
                f"repro_service_{name}_total": getattr(self, name)
                for name in self._NAMES
            }
            samples["repro_service_active_requests"] = self.active_requests
            return samples


class SequenceService:
    """Socket front-end over an index engine; one thread per connection.

    ``port=0`` binds an ephemeral port (see :attr:`address` after
    :meth:`start`).  The server never owns the engine: callers close the
    engine after :meth:`shutdown` returns.
    """

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        max_ingest_inflight: int = 2,
        default_deadline_ms: float | None = None,
        ingest_wait_s: float = 0.5,
        obs_name: str = "service",
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if max_ingest_inflight <= 0:
            raise ValueError("max_ingest_inflight must be positive")
        self.engine = engine
        self._host = host
        self._port = port
        self._query_slots = threading.BoundedSemaphore(max_inflight)
        self._ingest_slots = threading.BoundedSemaphore(max_ingest_inflight)
        self._ingest_wait_s = ingest_wait_s
        self._default_deadline_ms = default_deadline_ms
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: dict[int, tuple[socket.socket, threading.Thread]] = {}
        self._next_conn_id = 1
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self.metrics = _ServiceMetrics()
        self._obs_handle: int | None = None
        self._obs_name = obs_name

    # -- lifecycle ----------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "SequenceService":
        """Bind, listen and start the accept loop (non-blocking)."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        # A blocked accept() is not reliably woken by close(); poll with a
        # short timeout so shutdown() can always join the accept loop.
        listener.settimeout(0.2)
        self._listener = listener
        self._obs_handle = REGISTRY.register(
            {"service": self._obs_name}, self.metrics.collect
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful drain: finish admitted work, then close everything."""
        if self._stopped.is_set():
            return
        self._draining.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        deadline = time.monotonic() + timeout
        with self._conn_lock:
            connections = list(self._connections.values())
        for sock, thread in connections:
            thread.join(max(deadline - time.monotonic(), 0.0))
            if thread.is_alive():
                # Drain budget exhausted: cut the socket so the handler's
                # blocking recv fails and the thread exits.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                thread.join(1.0)
        if self._obs_handle is not None:
            REGISTRY.unregister(self._obs_handle)
            self._obs_handle = None
        self._stopped.set()

    def __enter__(self) -> "SequenceService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- accept / connection handling ---------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # listener closed by shutdown()
            conn.settimeout(None)
            if self._draining.is_set():
                conn.close()
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.metrics.bump("connections")
            with self._conn_lock:
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn_id, conn),
                    name=f"repro-service-conn-{conn_id}",
                    daemon=True,
                )
                self._connections[conn_id] = (conn, thread)
            thread.start()

    def _serve_connection(self, conn_id: int, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except (ProtocolError, OSError):
                    break
                if request is None:
                    break
                response = self._handle_request(request)
                try:
                    send_frame(conn, response)
                except (ProtocolError, OSError):
                    break
                if self._draining.is_set():
                    # One in-drain answer (likely a shutdown rejection) is
                    # enough; close instead of serving the connection forever.
                    break
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            with self._conn_lock:
                self._connections.pop(conn_id, None)

    # -- request handling ----------------------------------------------------------

    def _handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        self.metrics.bump("requests")
        if self._draining.is_set():
            return _error(request_id, "shutdown", "server is draining")
        if op == "ping":
            return {"id": request_id, "ok": True, "result": "pong"}
        if op == "ingest":
            return self._handle_ingest(request_id, request)
        if op in ("detect", "count", "contains", "stats"):
            return self._handle_query(request_id, op, request)
        self.metrics.bump("errors")
        return _error(request_id, "bad_request", f"unknown op: {op!r}")

    def _deadline_from(self, request: dict[str, Any]) -> float | None:
        deadline_ms = request.get("deadline_ms", self._default_deadline_ms)
        if deadline_ms is None:
            return None
        return time.monotonic() + float(deadline_ms) / 1e3

    def _handle_query(
        self, request_id: Any, op: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        if not self._query_slots.acquire(blocking=False):
            self.metrics.bump("rejected")
            return _error(
                request_id, "overloaded", "too many in-flight queries"
            )
        self.metrics.bump("active_requests")
        try:
            deadline = self._deadline_from(request)
            if deadline is not None and time.monotonic() >= deadline:
                self.metrics.bump("deadline_exceeded")
                return _error(
                    request_id, "deadline", "deadline expired before execution"
                )
            try:
                result = self._execute(op, request, deadline)
            except DeadlineExceeded as exc:
                self.metrics.bump("deadline_exceeded")
                return _error(request_id, "deadline", str(exc))
            except _BAD_REQUEST_ERRORS as exc:
                self.metrics.bump("errors")
                return _error(request_id, "bad_request", str(exc))
            except Exception as exc:
                self.metrics.bump("errors")
                return _error(request_id, "internal", f"{type(exc).__name__}: {exc}")
            if deadline is not None and time.monotonic() > deadline:
                # The engine finished after the instant (deadlines are checked
                # between stages, never inside one); report the miss honestly.
                self.metrics.bump("deadline_exceeded")
                return _error(request_id, "deadline", "deadline expired")
            return {"id": request_id, "ok": True, "result": result}
        finally:
            self.metrics.bump("active_requests", -1)
            self._query_slots.release()

    def _execute(
        self, op: str, request: dict[str, Any], deadline: float | None
    ) -> Any:
        pattern = request.get("pattern")
        partition = request.get("partition", "")
        if op == "stats":
            return self.engine.storage_stats()
        if not isinstance(pattern, (str, list)):
            raise ValueError("pattern must be a list of activities or an expression")
        if op == "detect":
            matches = self.engine.detect(
                pattern,
                partition,
                max_matches=_opt_int(request.get("max_matches")),
                within=_opt_float(request.get("within")),
                deadline=deadline,
            )
            return [
                {"trace_id": m.trace_id, "timestamps": list(m.timestamps)}
                for m in matches
            ]
        if op == "count":
            return self.engine.count(
                pattern,
                partition,
                within=_opt_float(request.get("within")),
                deadline=deadline,
            )
        return self.engine.contains(pattern, partition, deadline=deadline)

    def _handle_ingest(
        self, request_id: Any, request: dict[str, Any]
    ) -> dict[str, Any]:
        if not self._ingest_slots.acquire(timeout=self._ingest_wait_s):
            self.metrics.bump("ingest_rejected")
            return _error(
                request_id, "overloaded", "ingest backpressure: retry later"
            )
        self.metrics.bump("active_requests")
        try:
            events = request.get("events")
            if not isinstance(events, list) or not events:
                raise ValueError("ingest needs a non-empty events list")
            batch = [
                Event(str(trace_id), str(activity), float(timestamp))
                for trace_id, activity, timestamp in events
            ]
            partition = request.get("partition", "")
            # ``dedup`` is the streaming ingester's replay filter: events
            # at or before their trace's indexed tail are dropped instead
            # of tripping the builder's trace-order check, making crash
            # replay (and at-least-once producers) idempotent.
            dedup = bool(request.get("dedup"))
            stats = self.engine.update(batch, partition, dedup)
            return {
                "id": request_id,
                "ok": True,
                "result": {
                    "traces_seen": stats.traces_seen,
                    "new_traces": stats.new_traces,
                    "events_indexed": stats.events_indexed,
                    "events_deduped": stats.events_deduped,
                    "pairs_created": stats.pairs_created,
                },
            }
        except _BAD_REQUEST_ERRORS as exc:
            self.metrics.bump("errors")
            return _error(request_id, "bad_request", str(exc))
        except Exception as exc:
            self.metrics.bump("errors")
            return _error(request_id, "internal", f"{type(exc).__name__}: {exc}")
        finally:
            self.metrics.bump("active_requests", -1)
            self._ingest_slots.release()


def _error(request_id: Any, code: str, message: str) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "code": code, "error": message}


def _opt_int(value: Any) -> int | None:
    return None if value is None else int(value)


def _opt_float(value: Any) -> float | None:
    return None if value is None else float(value)
