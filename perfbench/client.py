"""A single-threaded HTTP/1.1 load generator over a few keep-alive sockets.

Load comes from *agents*: generators that yield one :class:`Request` at
a time and receive it back, completed, before yielding the next.  A
learner is an agent (its next step waits for its previous response),
and so are an uploader and an instructor.  Agents sharing a connection
pipeline their requests on it, so a request is sent when it is due and
its agent is ready, never later because another agent's request is
still in flight.  One ``selectors`` loop on the calling thread does all
sending and receiving; no other thread is started.

Times are ``time.monotonic()`` seconds, the clock the server-side
tracer uses too.
"""

from __future__ import annotations

import gc
import heapq
import http.client
import itertools
import json
import selectors
import socket
import time
from collections import deque
from typing import Iterator, List, Optional, Tuple

clock = time.monotonic


class Request:
    """One HTTP exchange and its timeline."""

    __slots__ = (
        "method", "path", "body", "route", "rid", "conn", "due", "ready",
        "sent", "done", "status", "raw",
    )

    def __init__(self, method: str, path: str, body: object = None,
                 route: str = "", rid: str = "", conn: int = 0,
                 due: Optional[float] = None) -> None:
        self.method = method
        self.path = path
        self.body = b"" if body is None else json.dumps(body).encode()
        self.route = route
        self.rid = rid
        self.conn = conn
        #: when the schedule wants it sent (None: as soon as ready)
        self.due = due
        #: when its agent's previous request completed
        self.ready = 0.0
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.raw = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def due_time(self) -> float:
        """When the request was due: its schedule time, or for a request
        sent as soon as ready, the moment it became ready."""
        return self.due if self.due is not None else self.ready

    def json(self):
        return json.loads(self.raw)

    def wire(self) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(self.body)}\r\n\r\n"
        )
        return head.encode() + self.body


Agent = Iterator[Optional[Request]]


class _Conn:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: deque = deque()  # (request, agent), send order


class Loop:
    """Drives agents over one connection per address until they finish.

    ``stop_at`` ends the load: nothing due at or after it is sent, and
    :meth:`run` returns once the requests already sent have answered.
    An agent that yields ``None`` is parked until :meth:`wake`.
    """

    #: how long sent requests may take to answer once load has stopped
    DRAIN_TIMEOUT = 30.0

    def __init__(self, addresses: List[Tuple[str, int]]) -> None:
        self.conns = [_Conn(address) for address in addresses]
        # select(2) takes a microsecond timeout; epoll rounds to whole
        # milliseconds, which would make every send up to 1 ms late
        self.selector = selectors.SelectSelector()
        for index, conn in enumerate(self.conns):
            self.selector.register(conn.sock, selectors.EVENT_READ, index)
        self._heap: list = []
        self._seq = itertools.count()
        self.completed: List[Request] = []
        #: requests sent but never answered before the drain timed out
        self.unanswered: List[Request] = []

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.sock.close()

    # -- agents --------------------------------------------------------------

    def add(self, agent: Agent) -> None:
        self._advance(agent, None, clock())

    def wake(self, agent: Agent) -> None:
        self._advance(agent, None, clock())

    def _advance(self, agent: Agent, finished: Optional[Request],
                 now: float) -> None:
        try:
            request = agent.send(finished) if finished is not None \
                else next(agent)
        except StopIteration:
            return
        if request is None:
            return  # parked
        request.ready = now
        due = request.due if request.due is not None else now
        heapq.heappush(self._heap, (due, next(self._seq), request, agent))

    # -- the loop ------------------------------------------------------------

    def run(self, stop_at: float = float("inf")) -> None:
        """Send and receive until done; the collector is paused so a
        collection never stalls a due send."""
        gc.collect()
        gc.disable()
        try:
            self._run(stop_at)
        finally:
            gc.enable()

    def _run(self, stop_at: float) -> None:
        deadline = None
        while True:
            now = clock()
            while self._heap and self._heap[0][0] <= now:
                due, _, request, agent = self._heap[0]
                if due >= stop_at:
                    break
                heapq.heappop(self._heap)
                self._send(request, agent, now)
                now = clock()
            in_flight = any(conn.pending for conn in self.conns)
            stopping = now >= stop_at or (
                self._heap and self._heap[0][0] >= stop_at
            )
            if not in_flight and (not self._heap or stopping):
                return
            if stopping and in_flight:
                deadline = deadline or now + self.DRAIN_TIMEOUT
            if deadline is not None and now > deadline:
                self.unanswered = [request for conn in self.conns
                                   for request, _ in conn.pending]
                return
            wait = 0.05
            if self._heap:
                wait = min(wait, max(0.0, self._heap[0][0] - now))
            for key, events in self.selector.select(wait):
                conn = self.conns[key.data]
                if events & selectors.EVENT_WRITE:
                    self._flush(conn, key.data)
                if events & selectors.EVENT_READ:
                    self._receive(conn)

    def _send(self, request: Request, agent: Agent, now: float) -> None:
        conn = self.conns[request.conn]
        request.sent = now
        conn.pending.append((request, agent))
        conn.out += request.wire()
        self._flush(conn, request.conn)

    def _flush(self, conn: _Conn, index: int) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        del conn.out[:sent]
        mask = selectors.EVENT_READ
        if conn.out:
            mask |= selectors.EVENT_WRITE
        self.selector.modify(conn.sock, mask, index)

    def _receive(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(1 << 20)
        except BlockingIOError:
            return
        if not chunk:
            raise ConnectionError("server closed a benchmark connection")
        now = clock()
        conn.inbuf += chunk
        while conn.pending:
            end = conn.inbuf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(conn.inbuf[:end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(conn.inbuf) < end + 4 + length:
                return
            request, agent = conn.pending.popleft()
            request.status = int(head[0].split()[1])
            request.raw = bytes(conn.inbuf[end + 4:end + 4 + length])
            request.done = now
            del conn.inbuf[:end + 4 + length]
            self.completed.append(request)
            self._advance(agent, request, now)


def call(address: Tuple[str, int], method: str, path: str,
         body: object = None, timeout: float = 60.0) -> Tuple[int, object]:
    """One blocking request outside the timed window: (status, json)."""
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload, headers={
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
        })
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        connection.close()
