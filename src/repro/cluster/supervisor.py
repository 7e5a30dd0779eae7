"""The cluster parent: port reservation, worker processes, watchdog.

:class:`ExamCluster` turns one machine into an N-shard delivery tier:

1. **Reserve the ports.**  The parent binds one placeholder socket per
   port (the shared front port plus each worker's direct port) with
   ``SO_REUSEPORT`` set and *without* listening.  Bound-but-quiet
   sockets keep the kernel from giving the port to anyone else, so the
   whole topology is known — and shippable to every child — before any
   worker exists, with no bind race.
2. **Fork the workers.**  Each child is a copy of the parent and reads
   its settings from the copied :class:`ExamCluster`.  It builds its
   own :class:`~repro.lms.lms.Lms` (recovered from its shard's WAL
   directory when one is configured), wraps it in an
   :class:`~repro.server.app.ExamServer` listening on its direct port
   *and* the shared front port (both ``SO_REUSEPORT``), and serves
   until SIGTERM.
3. **Watch them.**  A worker that exits before every worker is ready
   fails :meth:`ExamCluster.start`.  From then on a watchdog thread
   restarts any worker that dies.  The replacement re-binds the same
   ports and replays the shard's WAL, so a SIGKILL costs one shard a
   recovery window — during which its peers answer
   ``503 shard_unavailable`` + ``Retry-After`` for its learners — and
   nothing else.  A worker whose recovery refuses its WAL exits
   :data:`RECOVERY_REFUSED` and is not restarted: a replay of the same
   bytes would fail the same way.
"""

from __future__ import annotations

import http.client
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster.context import ClusterContext
from repro.core.errors import AssessmentError, StoreError

__all__ = ["ExamCluster"]

#: watchdog poll period (seconds)
WATCH_INTERVAL = 0.25
#: a worker's exit code when recovery refuses its WAL (as for
#: ``serve --wal-dir``); the watchdog does not restart such a worker
RECOVERY_REFUSED = 2


def _worker_main(cluster: "ExamCluster", shard: str) -> None:
    """The child process: one shard's ExamServer until SIGTERM.

    ``cluster`` is the forked copy of the parent's :class:`ExamCluster`,
    which holds every setting the worker needs."""
    from repro.server.app import ExamServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns ^C
    urls = {name: cluster.worker_url(name) for name in cluster.shards}
    context = ClusterContext(shard, urls, front_url=cluster.url)
    root = cluster.wal_root
    try:
        server = ExamServer(
            host=cluster.host,
            port=cluster.direct_ports[shard],
            wal_dir=root / shard if root is not None else None,
            cluster=context,
            **cluster.server_options,
        )
    except AssessmentError as exc:  # the WAL that recovery refuses
        print(f"recovery failed: {exc}", file=sys.stderr)
        sys.exit(RECOVERY_REFUSED)
    server.start()
    try:
        # Event.wait in a loop: a bare wait() can sit in an
        # uninterruptible futex and miss the signal handler's set()
        while not stop.wait(0.5):
            pass
    finally:
        server.shutdown()


def _reserve_port(host: str, port: int = 0) -> Tuple[socket.socket, int]:
    """Bind (never listen) a port so nobody else can take it (0 = any)."""
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    placeholder.bind((host, port))
    return placeholder, placeholder.getsockname()[1]


class ExamCluster:
    """N sharded exam-delivery workers behind one front port.

    ``server_options`` (``fsync``, ``max_in_flight``, ``readmodel``,
    ...) go unchanged to every worker's
    :class:`~repro.server.app.ExamServer`, whose WAL directory is
    ``wal_root/shard-N``.  Every worker's ring has
    :data:`~repro.cluster.ring.DEFAULT_REPLICAS` points per shard, so a
    restart routes each learner back to the shard whose WAL holds them.
    """

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        front_port: int = 0,
        wal_root: Optional["str | Path"] = None,
        **server_options,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        # checked here, before any worker forks
        if server_options.get("readmodel") and wal_root is None:
            raise ValueError(
                "readmodel=True needs per-shard WALs to tail; pass wal_root"
            )
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise RuntimeError(
                "this platform has no SO_REUSEPORT; the sharded tier "
                "needs it to put every worker behind one front port"
            )
        self.host = host
        self.workers = workers
        self.wal_root = Path(wal_root) if wal_root is not None else None
        self.shards = [f"shard-{index}" for index in range(workers)]
        # reserve every port up front: topology before any child exists
        self._placeholders: List[socket.socket] = []
        front_sock, self.front_port = _reserve_port(host, front_port)
        self._placeholders.append(front_sock)
        self.direct_ports: Dict[str, int] = {}
        for shard in self.shards:
            placeholder, port = _reserve_port(host)
            self._placeholders.append(placeholder)
            self.direct_ports[shard] = port
        self.server_options = server_options
        # fork, not spawn: a worker is a copy of this process, so it
        # reads its settings from this object, and whatever ran before
        # the cluster was built (signal handlers, wrappers around repro
        # functions) is in place in every worker too
        self._context = multiprocessing.get_context("fork")
        self._processes: Dict[str, multiprocessing.Process] = {}
        self._stopping = False
        self._watch_thread: Optional[threading.Thread] = None
        #: shard -> times the watchdog had to restart it
        self.restarts: Dict[str, int] = {shard: 0 for shard in self.shards}

    # -- addresses -----------------------------------------------------------

    @property
    def url(self) -> str:
        """The shared front URL (any worker may answer)."""
        return f"http://{self.host}:{self.front_port}"

    def worker_url(self, shard: str) -> str:
        """One shard's direct URL."""
        return f"http://{self.host}:{self.direct_ports[shard]}"

    def pid(self, shard: str) -> int:
        """The live worker process id for a shard."""
        return self._processes[shard].pid

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ExamCluster":
        """Fork every worker, wait until all are ready, then start the
        watchdog.  When one fails to become ready, stop the workers and
        re-raise: restarting a worker that never booted would fail the
        same way."""
        if self._processes:
            raise RuntimeError("cluster already started")
        for shard in self.shards:
            self._spawn(shard)
        try:
            self.wait_ready()
        except BaseException:
            self.stop()
            raise
        self._watch_thread = threading.Thread(
            target=self._watch, name="mine-assess-watchdog", daemon=True
        )
        self._watch_thread.start()
        return self

    def _spawn(self, shard: str) -> None:
        process = self._context.Process(
            target=_worker_main,
            args=(self, shard),
            name=f"mine-assess-{shard}",
            daemon=True,
        )
        process.start()
        self._processes[shard] = process

    def _watch(self) -> None:
        while not self._stopping:
            time.sleep(WATCH_INTERVAL)
            for shard in self.shards:
                if self._stopping:
                    return
                # exitcode reaps a dead worker; None while it runs
                code = self._processes[shard].exitcode
                if code is not None and code != RECOVERY_REFUSED:
                    self.restarts[shard] += 1
                    self._spawn(shard)

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker's direct /healthz answers 200.

        Raises :class:`~repro.core.errors.StoreError`, naming the shard
        and its exit code, at once when a worker exits instead."""
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            while not self._probe(shard):
                code = self._processes[shard].exitcode
                if code is not None:
                    raise StoreError(
                        f"worker {shard} exited with code {code} before "
                        f"it was ready"
                    )
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"worker {shard} not ready within {timeout}s"
                    )
                time.sleep(0.05)

    def _probe(self, shard: str) -> bool:
        connection = http.client.HTTPConnection(
            self.host, self.direct_ports[shard], timeout=2
        )
        try:
            connection.request("GET", "/healthz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def kill_worker(self, shard: str, sig: int = signal.SIGKILL) -> int:
        """Send a signal to one worker (crash injection for tests).

        Returns the pid that was signalled.  The watchdog respawns a
        killed worker, which recovers from its WAL.
        """
        pid = self._processes[shard].pid
        os.kill(pid, sig)
        return pid

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM every worker, join them, release the ports."""
        if self._stopping:
            return
        self._stopping = True
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=5.0)
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + timeout
        for process in self._processes.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5.0)
        for placeholder in self._placeholders:
            placeholder.close()
        self._placeholders.clear()

    # -- context-manager sugar ------------------------------------------------

    def __enter__(self) -> "ExamCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
