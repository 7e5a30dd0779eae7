"""The per-worker cluster view: routing, forwarding, scatter-gather.

Every worker process holds one :class:`ClusterContext`.  The HTTP layer
consults it on each request: per-learner routes whose learner hashes to
another shard are **forwarded** verbatim to that shard's direct port
(so any worker can serve any request — the kernel's ``SO_REUSEPORT``
balancing never has to be right); fleet routes **gather** from, or
**broadcast** to, every peer's ``/internal/…`` leg of the same route
(:func:`repro.server.handlers.build_router` derives those legs).

The ``/internal/…`` legs carry no learner affinity and are never
re-forwarded, which is what keeps a scatter from recursing.

A dead peer surfaces as ``503 shard_unavailable`` with a small
``Retry-After`` — the supervisor's watchdog is restarting the shard and
replaying its WAL, so clients that honour the header (the load
generator does, with jitter) converge without thundering-herding the
recovering worker.
"""

from __future__ import annotations

import http.client
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.cluster.ring import HashRing
from repro.server.errors import ApiError

__all__ = ["ClusterContext"]

#: what a 503 for an unreachable shard tells clients to wait (seconds)
SHARD_RETRY_AFTER_SECONDS = 1
#: socket timeout of one exchange with a peer's direct port (seconds)
PEER_TIMEOUT_SECONDS = 10.0


def split_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` of an ``http://host:port`` URL."""
    host, _, port = url.rpartition("//")[2].partition(":")
    return host, int(port)


class ClusterContext:
    """One worker's knowledge of the whole cluster."""

    def __init__(
        self,
        shard: str,
        direct_urls: Dict[str, str],
        front_url: Optional[str] = None,
    ) -> None:
        if shard not in direct_urls:
            raise ValueError(f"no direct url for shard {shard!r}")
        self.shard = shard
        self.ring = HashRing(direct_urls)
        self.direct_urls = dict(direct_urls)
        self.front_url = front_url

    # -- placement -----------------------------------------------------------

    def owner(self, learner_id: str) -> str:
        """The shard owning this learner's state."""
        return self.ring.route(learner_id)

    def peers(self) -> List[str]:
        """Every shard except this one, ring order."""
        return [name for name in self.ring.shards if name != self.shard]

    def owner_for(
        self, route_name: str, params: Dict[str, str], body: object
    ) -> Optional[str]:
        """The shard owning the ``learner_id`` in a request's path, else
        in its JSON object body.  None for ``internal.*`` peer legs and
        when no non-empty string id is present (the local handler then
        produces the proper 400)."""
        if route_name.startswith("internal."):
            return None
        learner_id = params.get("learner_id")
        if learner_id is None and isinstance(body, dict):
            learner_id = body.get("learner_id")
        if not isinstance(learner_id, str) or not learner_id:
            return None
        return self.owner(learner_id)

    # -- wire plumbing -------------------------------------------------------

    def _request(
        self,
        shard: str,
        method: str,
        path: str,
        body: bytes = b"",
    ) -> Tuple[int, object, Optional[int]]:
        """One HTTP exchange with a peer's direct port.

        Returns ``(status, decoded_payload, retry_after)``.  Connection
        failures become ``503 shard_unavailable``: the shard is down or
        restarting, and the caller's client should retry shortly.
        """
        host, port = split_url(self.direct_urls[shard])
        connection = http.client.HTTPConnection(
            host, port, timeout=PEER_TIMEOUT_SECONDS
        )
        try:
            headers = {"Content-Type": "application/json"}
            if body:
                headers["Content-Length"] = str(len(body))
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            retry_after = response.getheader("Retry-After")
            payload = json.loads(raw) if raw else None
            return (
                response.status,
                payload,
                int(retry_after) if retry_after is not None else None,
            )
        except (OSError, http.client.HTTPException) as exc:
            raise ApiError(
                503,
                "shard_unavailable",
                f"shard {shard} is unreachable ({type(exc).__name__}); "
                f"it may be recovering — retry shortly",
                retry_after=SHARD_RETRY_AFTER_SECONDS,
            ) from exc
        finally:
            connection.close()

    def forward(
        self, shard: str, method: str, path: str, body: bytes
    ) -> Tuple[int, object, Optional[int]]:
        """Proxy a misrouted request verbatim to its owning shard."""
        return self._request(shard, method, path, body)

    def gather(self, path: str) -> List[object]:
        """GET ``path`` from every peer; the local leg is the caller's.

        Raises the first peer's ``ApiError`` (e.g. 503 while a shard
        restarts) — a partial cohort analysis would be silently wrong,
        so the gather is all-or-nothing.
        """
        payloads: List[object] = []
        for shard in self.peers():
            status, payload, retry_after = self._request(shard, "GET", path)
            if status != 200:
                raise ApiError(
                    status if status >= 400 else 502,
                    "shard_error",
                    f"shard {shard} answered {status} for {path}",
                    retry_after=retry_after,
                )
            payloads.append(payload)
        return payloads

    def broadcast(
        self, method: str, path: str, body: bytes = b""
    ) -> int:
        """Send an idempotent mutation to every peer; returns peer count.

        A ``409`` from a peer counts as success: broadcasts are retried
        after partial failures, and "already applied" is exactly the
        outcome the retry wanted.
        """
        for shard in self.peers():
            status, payload, _ = self._request(shard, method, path, body)
            if status >= 400 and status != 409:
                raise ApiError(
                    status,
                    "shard_error",
                    f"shard {shard} answered {status} for {method} {path}",
                )
        return len(self.peers())

    # -- introspection -------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The ``/cluster/topology`` payload (also shown in /metrics)."""
        # pid: the answering worker's own process id — querying each
        # shard's direct port maps the whole topology to pids (what an
        # operator needs to signal a specific worker)
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "workers": len(self.ring),
            "replicas": self.ring.replicas,
            "front_url": self.front_url,
            "shards": [
                {"shard": name, "url": self.direct_urls[name]}
                for name in self.ring.shards
            ],
        }
