"""The HTTP application: :class:`ExamServer` over ``http.server``.

A dependency-free threaded REST service wrapping one
:class:`~repro.lms.lms.Lms` (which is itself concurrency-safe — every
public method takes its coarse lock).  The app layer adds what the
in-process API doesn't have:

* **routing + JSON** via :mod:`repro.server.router` /
  :mod:`repro.server.serialize`, with library errors mapped to 4xx JSON
  bodies (:mod:`repro.server.errors`) — a stack trace never reaches the
  wire;
* **backpressure** — a bounded in-flight budget; when ``max_in_flight``
  requests are already being served, new ones are rejected immediately
  with ``503`` + ``Retry-After`` instead of queueing without bound;
* **observability** — per-route request / error / rejected counters
  and an in-flight gauge in the server's :mod:`repro.obs` registry,
  rendered by ``/metrics``;
* **graceful shutdown** — :meth:`ExamServer.shutdown` stops accepting,
  then drains requests already in flight before returning;
* **durability** — with ``wal_dir`` set, every LMS mutation is appended
  to a :class:`~repro.store.journal.Journal` before its response is
  acknowledged; boot recovers the pre-crash state from the newest
  checkpoint plus the WAL suffix (:func:`repro.store.recover`), a
  background :class:`~repro.store.checkpoint.Checkpointer` (and
  ``POST /admin/checkpoint``) compacts the log, and shutdown takes a
  final checkpoint before closing the journal.  The WAL is the only
  persistence; without ``wal_dir`` the LMS lives in memory.

Usage::

    server = ExamServer(lms)           # port=0 → ephemeral port
    server.start()                     # background accept loop
    print(server.url)                  # http://127.0.0.1:<port>
    ...
    server.shutdown()                  # drain + close
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple

from repro import obs
from repro.lms.lms import Lms
from repro.server.errors import ApiError, api_error_from_exception
from repro.server.handlers import build_router
from repro.server.serialize import parse_json_body

__all__ = ["ExamServer"]

#: requests concurrently in service before 503s start (default)
DEFAULT_MAX_IN_FLIGHT = 64
#: what a 503 tells the client to wait before retrying (seconds)
RETRY_AFTER_SECONDS = 1


class _InFlightBudget:
    """A bounded in-flight request counter with an idle-drain wait."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {limit}")
        self.limit = limit
        self._count = 0
        self._condition = threading.Condition()

    def try_acquire(self) -> bool:
        """Claim a slot; False when the budget is exhausted."""
        with self._condition:
            if self._count >= self.limit:
                return False
            self._count += 1
            return True

    def release(self) -> None:
        with self._condition:
            self._count -= 1
            self._condition.notify_all()

    def current(self) -> int:
        """Requests being served right now."""
        with self._condition:
            return self._count

    def wait_idle(self, timeout: Optional[float]) -> bool:
        """Block until nothing is in flight; False on timeout."""
        with self._condition:
            return self._condition.wait_for(
                lambda: self._count == 0, timeout=timeout
            )


class _RequestHandler(BaseHTTPRequestHandler):
    """Glue between ``http.server`` and the router/handler layer."""

    protocol_version = "HTTP/1.1"  # keep-alive: one connection, many requests
    server_version = "mine-assess"
    sys_version = ""
    # headers and body go out as separate writes; without TCP_NODELAY,
    # Nagle holds the second one for the client's delayed ACK (~40 ms
    # per request)
    disable_nagle_algorithm = True
    #: idle keep-alive connections are dropped after this many seconds,
    #: so a drained shutdown is never held hostage by a quiet client
    timeout = 10

    # the ExamServer injects itself here via the HTTPServer instance
    @property
    def app(self) -> "ExamServer":
        return self.server.app  # type: ignore[attr-defined]

    def handle_one_request(self) -> None:  # pragma: no cover - socket glue
        try:
            super().handle_one_request()
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            self.close_connection = True

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        """Per-request stderr chatter is replaced by obs counters."""

    def _read_body(self) -> bytes:
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return b""
        if length > self.app.max_body_bytes:
            # refusing to read it leaves the bytes on the socket, so
            # this connection cannot serve another request
            self.close_connection = True
            raise ApiError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.app.max_body_bytes}-byte limit",
            )
        return self.rfile.read(length)

    def _drain_body(self) -> None:
        """Consume an unread request body before an early rejection.

        A response sent while the body still sits in the socket buffer
        poisons the keep-alive connection: the stale bytes parse as the
        next request line.  Bodies too large to swallow force a close
        instead.
        """
        if getattr(self, "_body_consumed", False):
            return
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        if 0 < length <= self.app.max_body_bytes:
            self.rfile.read(length)
        elif length > self.app.max_body_bytes:
            self.close_connection = True

    def _send_json(
        self,
        status: int,
        payload: object,
        retry_after: Optional[int] = None,
    ) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        app = self.app
        registry = app.registry
        # one handler instance serves every request of a keep-alive
        # connection: the drain bookkeeping is per-request state
        self._body_consumed = False
        if not app.in_flight.try_acquire():
            # saturated: shed load *now* rather than queueing unboundedly
            registry.count("server.rejected")
            self._drain_body()
            self._send_json(
                503,
                ApiError(
                    503,
                    "overloaded",
                    f"server is at its in-flight limit "
                    f"({app.in_flight.limit}); retry shortly",
                ).body(),
                retry_after=RETRY_AFTER_SECONDS,
            )
            return
        try:
            registry.gauge("server.in_flight", app.in_flight.current())
            self._handle_routed(method, registry)
        finally:
            app.in_flight.release()

    def _handle_routed(self, method: str, registry) -> None:
        path, _, query = self.path.partition("?")
        route_name = "unrouted"
        try:
            match = self.app.router.resolve(method, path)
            route_name = match.route.name
            raw_body = self._read_body()
            body = parse_json_body(raw_body)
            cluster = self.app.cluster
            if cluster is not None:
                owner = cluster.owner_for(route_name, match.params, body)
                if owner is not None and owner != cluster.shard:
                    # this learner's state lives on another shard:
                    # proxy the request verbatim to its owner
                    status, payload, retry_after = cluster.forward(
                        owner, method, self.path, raw_body
                    )
                    registry.count("server.proxied", route=route_name)
                    registry.count("server.requests", route=route_name)
                    self._send_json(status, payload, retry_after)
                    return
            result = match.route.handler(self.app, match.params, body, query)
            status, payload = _normalize_result(result)
            registry.count("server.requests", route=route_name)
            self._send_json(status, payload)
        except Exception as exc:  # noqa: BLE001 - the service boundary
            error = api_error_from_exception(exc)
            if error.status >= 500:
                # internals stay out of the response body; surface them
                # to the operator through the registry instead
                registry.count(
                    "server.internal_errors", type=type(exc).__name__
                )
            registry.count(
                "server.errors", route=route_name, status=error.status
            )
            self._drain_body()  # errors before the body read (404/405)
            self._send_json(error.status, error.body(), error.retry_after)


def _normalize_result(result: object) -> Tuple[int, object]:
    """Handlers may return ``payload`` or ``(status, payload)``."""
    if (
        isinstance(result, tuple)
        and len(result) == 2
        and isinstance(result[0], int)
    ):
        return result[0], result[1]
    return 200, result


class _Http(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for many short keep-alive requests."""

    daemon_threads = True
    block_on_close = False  # drain is handled by the in-flight budget
    # socketserver's default backlog of 5 overflows when a burst of
    # clients connects at once (every loadgen thread's first request);
    # an overflowed SYN is silently dropped and costs the client a full
    # ~1 s retransmission timeout
    request_queue_size = 128

    def __init__(self, address, app: "ExamServer") -> None:
        self.app = app  # before the bind, which reads app.cluster
        super().__init__(address, _RequestHandler)

    def server_bind(self) -> None:
        if self.app.cluster is not None:
            # sharded tier: several worker processes share one front
            # port; the kernel load-balances accepted connections
            self.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        super().server_bind()


class ExamServer:
    """The exam-delivery and analysis service over one LMS."""

    def __init__(
        self,
        lms: Optional[Lms] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_body_bytes: int = 8 * 1024 * 1024,
        wal_dir: Optional["str | Path"] = None,
        fsync: str = "interval",
        checkpoint_interval_seconds: Optional[float] = None,
        max_batch_answers: int = 500,
        cluster: Optional[object] = None,
        readmodel: bool = False,
    ) -> None:
        # the server counts even when global profiling is off:
        # /metrics must always have data
        self.registry = obs.Registry(enabled=True)
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None
        self.journal = None
        self.checkpointer = None
        #: the boot-time :class:`~repro.store.recovery.RecoveryReport`
        #: (None when the server was handed a live LMS or has no WAL)
        self.recovery_report = None
        if self.wal_dir is not None:
            from repro.store import Checkpointer, Journal, recover

            if lms is None:
                # crashed-or-clean restart: rebuild from checkpoint + WAL
                self.recovery_report = recover(self.wal_dir)
                lms = self.recovery_report.lms
            # Journal.open also repairs the torn tail recover() tolerated
            self.journal = Journal.open(
                self.wal_dir, fsync=fsync, registry=self.registry
            )
            lms.attach_journal(self.journal)
            self.checkpointer = Checkpointer(lms, self.journal)
            if self.recovery_report is None:
                # a handed LMS: the WAL holds none of its state, only
                # what happens to it from here, so a checkpoint gives
                # those records a base that recovery can replay them onto
                self.checkpointer.checkpoint()
        #: the analytics follower behind /admin/analytics (``--readmodel``)
        self.readmodel = None
        if readmodel:
            if self.journal is None:
                raise ValueError(
                    "readmodel=True needs a WAL to tail; pass wal_dir"
                )
            from repro.readmodel import ReadModelService

            self.readmodel = ReadModelService(
                self.wal_dir, journal=self.journal
            )
        self.lms = lms if lms is not None else Lms()
        self.router = build_router()
        self.in_flight = _InFlightBudget(max_in_flight)
        self.max_body_bytes = max_body_bytes
        #: hard cap on answers per ``answers:batch`` request (413 above)
        self.max_batch_answers = max_batch_answers
        #: when the server came up (after recovery), for ``uptime_seconds``
        self.started_at = time.time()
        #: the worker's :class:`~repro.cluster.context.ClusterContext`
        #: in a sharded deployment; None for the classic single process.
        #: Fleet routes (see :func:`~repro.server.handlers.build_router`)
        #: span every shard when this is set, and every listener binds
        #: with ``SO_REUSEPORT``.
        self.cluster = cluster
        #: where ``mine-assess calibrate`` drops parameter snapshots for
        #: this store (scanned at boot and on demand, see
        #: :meth:`reload_calibration`)
        self.calibration_dir = (
            self.wal_dir / "calibration" if self.wal_dir is not None else None
        )
        if self.calibration_dir is not None:
            self.reload_calibration()
        self.checkpoint_interval_seconds = checkpoint_interval_seconds
        self._listeners = [_Http((host, port), self)]
        if cluster is not None and cluster.front_url is not None:
            # the fleet's shared front port, on this listener's host
            from repro.cluster.context import split_url

            front = (self.host, split_url(cluster.front_url)[1])
            self._listeners.append(_Http(front, self))
        self._threads: list = []
        self._checkpoint_stop = threading.Event()
        self._checkpoint_thread: Optional[threading.Thread] = None
        self._shut_down = False

    # -- addresses -----------------------------------------------------------

    @property
    def host(self) -> str:
        """The bound host (of the first listener)."""
        return self._listeners[0].server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._listeners[0].server_address[1]

    @property
    def url(self) -> str:
        """The service's base URL."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ExamServer":
        """Serve each listener in a background thread; returns self."""
        if self._threads:
            raise RuntimeError("server already started")
        for index, httpd in enumerate(self._listeners):
            thread = threading.Thread(
                target=httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name=f"mine-assess-server-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._start_checkpointing()
        if self.readmodel is not None:
            self.readmodel.start()
        return self

    def shutdown(self, drain_timeout: Optional[float] = 10.0) -> bool:
        """Stop accepting, drain in-flight requests, release the socket.

        Returns True when the drain completed within ``drain_timeout``
        (False means requests were still running when time ran out; the
        worker threads are daemons and cannot outlive the process).  A
        final checkpoint is taken when a WAL is configured.
        """
        if self._shut_down:
            return True
        self._shut_down = True
        # stop the accept loops, refusing new connections; only loops
        # that were started, since socketserver's shutdown() waits for
        # its loop to answer and an unstarted one never would
        for httpd, _ in zip(self._listeners, self._threads):
            httpd.shutdown()
        drained = self.in_flight.wait_idle(drain_timeout)
        self._checkpoint_stop.set()
        if self._checkpoint_thread is not None:
            self._checkpoint_thread.join(timeout=5.0)
        if self.checkpointer is not None:
            # a clean exit leaves a checkpoint covering the whole log,
            # so the next boot replays (almost) nothing
            self.checkpoint_now()
        if self.readmodel is not None:
            self.readmodel.close()
        if self.journal is not None:
            self.journal.close()
        for httpd in self._listeners:
            httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        return drained

    # -- durability ------------------------------------------------------------

    def checkpoint_now(self):
        """Run one checkpoint pass (snapshot + compaction) immediately."""
        if self.checkpointer is None:
            raise RuntimeError("no wal_dir configured")
        if self.readmodel is not None:
            # sync the follower past everything this checkpoint may
            # retire *before* compaction runs: retire_covered never
            # removes the active segment, so a caught-up follower can
            # never be truncated by the pass below
            self.readmodel.sync()
        result = self.checkpointer.checkpoint()
        if self.readmodel is not None:
            # persist the fold at (at least) the covered LSN, so a
            # restarted follower resumes above the retired history
            self.readmodel.checkpoint()
        self.registry.count("server.checkpoints")
        return result

    def reload_calibration(self) -> dict:
        """Pick up newer calibration snapshots from the store directory.

        Scans ``<wal_dir>/calibration`` for ``mine-assess calibrate``
        output and applies, per offered adaptive exam, the newest
        snapshot whose version is above the LMS's current one (so a
        restart — which replays journaled ``calibrate`` events — never
        re-applies a swap it already owns).  Exams with open adaptive
        sittings refuse the hot-swap (:class:`~repro.core.errors.
        SessionStateError`); they are reported as skipped and retried on
        the next call.  Also the handler behind
        ``POST /admin/calibration/reload``.
        """
        if self.calibration_dir is None:
            raise RuntimeError("no wal_dir configured")
        from repro.adaptive.online import latest_calibration_snapshot
        from repro.core.errors import SessionStateError

        applied, skipped = [], []
        for exam_id in self.lms.offered_exams():
            if self.lms.exam(exam_id).adaptive is None:
                continue
            snapshot = latest_calibration_snapshot(
                self.calibration_dir, exam_id
            )
            if snapshot is None:
                continue
            version, pool = snapshot
            if version <= self.lms.calibration_version(exam_id):
                continue
            try:
                self.lms.apply_calibration(exam_id, version, pool)
            except SessionStateError as exc:
                skipped.append(
                    {"exam_id": exam_id, "version": version,
                     "reason": str(exc)}
                )
                continue
            applied.append({"exam_id": exam_id, "version": version})
        self.registry.count("server.calibration_reloads")
        return {
            "calibration_dir": str(self.calibration_dir),
            "applied": applied,
            "skipped": skipped,
        }

    def store_info(self) -> dict:
        """Journal and checkpoint stats for the ``/metrics`` payload."""
        journal = self.journal
        return {
            "wal_dir": str(self.wal_dir),
            "fsync_policy": journal.fsync_policy,
            "last_lsn": journal.last_lsn,
            "durable_lsn": journal.durable_lsn,
            "records_appended": journal.records_appended,
            "bytes_appended": journal.bytes_appended,
            "fsyncs": journal.fsyncs,
            "batch_appends": journal.batch_appends,
            "group_commits": journal.group_commits,
            "rotations": journal.rotations,
            "segments": len(journal.segments()),
            "checkpoints_taken": self.checkpointer.checkpoints_taken,
            "last_covered_lsn": self.checkpointer.last_covered_lsn,
        }

    def _start_checkpointing(self) -> None:
        if (
            self.checkpointer is None
            or self.checkpoint_interval_seconds is None
        ):
            return
        interval = float(self.checkpoint_interval_seconds)

        def loop() -> None:
            while not self._checkpoint_stop.wait(interval):
                try:
                    # skip a quiet log; go through checkpoint_now so the
                    # read-model follower is synced before compaction
                    # retires anything it has not folded yet
                    if (
                        self.journal.last_lsn
                        > self.checkpointer.last_covered_lsn
                    ):
                        self.checkpoint_now()
                except Exception:  # noqa: BLE001 - keep the beat going
                    self.registry.count("server.checkpoint_errors")

        self._checkpoint_thread = threading.Thread(
            target=loop, name="mine-assess-checkpoints", daemon=True
        )
        self._checkpoint_thread.start()

    # -- context-manager sugar ------------------------------------------------

    def __enter__(self) -> "ExamServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
