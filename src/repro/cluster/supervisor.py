"""The cluster parent: port reservation, worker processes, watchdog.

:class:`ExamCluster` turns one machine into an N-shard delivery tier:

1. **Reserve the ports.**  The parent binds one placeholder socket per
   port (the shared front port plus each worker's direct port) with
   ``SO_REUSEPORT`` set and *without* listening.  Bound-but-quiet
   sockets keep the kernel from giving the port to anyone else, so the
   whole topology is known — and shippable to every child — before any
   worker exists, with no bind race.
2. **Fork the workers.**  Each child builds its own
   :class:`~repro.lms.lms.Lms` (recovered from its shard's WAL
   directory when one is configured), wraps it in an
   :class:`~repro.server.app.ExamServer` listening on its direct port
   *and* the shared front port (both ``SO_REUSEPORT``), and serves
   until SIGTERM.
3. **Watch them.**  A watchdog thread restarts any worker that dies.
   The replacement re-binds the same ports and replays the shard's WAL,
   so a SIGKILL costs one shard a recovery window — during which its
   peers answer ``503 shard_unavailable`` + ``Retry-After`` for its
   learners — and nothing else.
"""

from __future__ import annotations

import http.client
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster.context import ClusterContext
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing

__all__ = ["ExamCluster", "WorkerSpec"]

#: watchdog poll period (seconds)
WATCH_INTERVAL = 0.25


@dataclass
class WorkerSpec:
    """Everything one worker process needs to come up, fork-shippable."""

    shard: str
    host: str
    direct_port: int
    front_port: int
    shard_urls: Dict[str, str]
    replicas: int = DEFAULT_REPLICAS
    wal_dir: Optional[str] = None
    fsync: str = "interval"
    group_commit: bool = False
    max_in_flight: int = 64
    checkpoint_interval_seconds: Optional[float] = None
    extra_server_kwargs: Dict[str, object] = field(default_factory=dict)


def _worker_main(spec: WorkerSpec) -> None:
    """The child process: one shard's ExamServer until SIGTERM."""
    from repro.server.app import ExamServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns ^C
    ring = HashRing(spec.shard_urls.keys(), replicas=spec.replicas)
    cluster = ClusterContext(
        shard=spec.shard,
        ring=ring,
        direct_urls=spec.shard_urls,
        front_url=f"http://{spec.host}:{spec.front_port}",
    )
    server = ExamServer(
        host=spec.host,
        port=spec.direct_port,
        wal_dir=spec.wal_dir,
        fsync=spec.fsync,
        group_commit=spec.group_commit,
        max_in_flight=spec.max_in_flight,
        checkpoint_interval_seconds=spec.checkpoint_interval_seconds,
        cluster=cluster,
        reuse_port=True,
        **spec.extra_server_kwargs,
    )
    server.add_front_listener(spec.front_port)
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
    """N sharded exam-delivery workers behind one front port."""

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        front_port: int = 0,
        wal_root: Optional["str | Path"] = None,
        fsync: str = "interval",
        group_commit: bool = False,
        max_in_flight: int = 64,
        checkpoint_interval_seconds: Optional[float] = None,
        replicas: int = DEFAULT_REPLICAS,
        watchdog: bool = True,
        ready_timeout: float = 30.0,
        readmodel: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if readmodel and wal_root is None:
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
        self.ready_timeout = ready_timeout
        self._watchdog_enabled = watchdog
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
        shard_urls = {
            shard: f"http://{host}:{port}"
            for shard, port in self.direct_ports.items()
        }
        self._specs: Dict[str, WorkerSpec] = {}
        for shard in self.shards:
            wal_dir = None
            if self.wal_root is not None:
                wal_dir = str(self.wal_root / shard)
            self._specs[shard] = WorkerSpec(
                shard=shard,
                host=host,
                direct_port=self.direct_ports[shard],
                front_port=self.front_port,
                shard_urls=shard_urls,
                replicas=replicas,
                wal_dir=wal_dir,
                fsync=fsync,
                group_commit=group_commit,
                max_in_flight=max_in_flight,
                checkpoint_interval_seconds=checkpoint_interval_seconds,
                extra_server_kwargs={"readmodel": True} if readmodel else {},
            )
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

    @property
    def worker_urls(self) -> List[str]:
        return [self.worker_url(shard) for shard in self.shards]

    def pid(self, shard: str) -> int:
        """The live worker process id for a shard."""
        return self._processes[shard].pid

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ExamCluster":
        """Fork every worker, start the watchdog, wait until all ready."""
        if self._processes:
            raise RuntimeError("cluster already started")
        for shard in self.shards:
            self._spawn(shard)
        if self._watchdog_enabled:
            self._watch_thread = threading.Thread(
                target=self._watch, name="mine-assess-watchdog", daemon=True
            )
            self._watch_thread.start()
        self.wait_ready(self.ready_timeout)
        return self

    def _spawn(self, shard: str) -> None:
        process = self._context.Process(
            target=_worker_main,
            args=(self._specs[shard],),
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
                process = self._processes.get(shard)
                if process is not None and not process.is_alive():
                    process.join()
                    self.restarts[shard] += 1
                    self._spawn(shard)

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker's direct /healthz answers 200."""
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            while True:
                if self._probe(shard):
                    break
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

        Returns the pid that was signalled.  With the watchdog on, a
        killed worker is respawned and recovers from its WAL.
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
