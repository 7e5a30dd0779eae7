"""The observability registry: spans, counters, gauges, and sinks.

The paper's on-line exam monitor (§5, Fig. 6) watches sittings while
they run; this module is the analogous substrate for the *system
itself* — structured, low-overhead instrumentation threaded through
delivery, analysis, simulation, and packaging, so any run can answer
"where did the time go" without ad-hoc benchmark scripts.

The design center is the **disabled path**: every call site in the hot
layers goes through the module-level helpers of :mod:`repro.obs`, which
check one flag and return a shared no-op object when instrumentation is
off.  No records, no clock reads, no allocation beyond the call's own
kwargs dict — the 10k x 50 benchmark holds the overhead under 5%
(``benchmarks/test_bench_obs_overhead.py`` records the number into
``BENCH_obs.json``).

When enabled, :class:`Registry` keeps:

* **spans** — nested wall/CPU timers (:class:`SpanRecord` trees, one
  root per top-level ``with obs.span(...)``), retention-bounded;
* **counters** — monotonic adds (sittings submitted, cache
  invalidations, shard counts, bytes written);
* **gauges** — last-value-wins measurements (cohort size, queue depth);
* **sinks** — pluggable observers notified as each span closes (ring
  buffer, JSON-lines file, or anything with an ``emit(event)`` method).

Everything is stdlib-only and process-local; thread safety is
best-effort (a lock guards counter/gauge mutation, span stacks are
per-thread), which matches the library's in-process LMS.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecord", "Registry", "NOOP_SPAN"]

#: Retention bound on completed root spans (oldest dropped first), so a
#: long-lived profiled process cannot grow without bound.
DEFAULT_MAX_ROOTS = 4096


class SpanRecord:
    """One timed region: name, tags, wall/CPU seconds, nested children.

    ``wall_seconds``/``cpu_seconds`` are filled when the span closes;
    ``error`` names the exception type when the region raised.
    """

    __slots__ = (
        "name",
        "tags",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "children",
        "error",
    )

    def __init__(self, name: str, tags: Dict[str, Any]) -> None:
        self.name = name
        self.tags = tags
        self.started_at = time.time()
        self.wall_seconds: float = 0.0
        self.cpu_seconds: float = 0.0
        self.children: List["SpanRecord"] = []
        self.error: Optional[str] = None

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "SpanRecord"]]:
        """Yield ``(depth, record)`` over this span and its subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form of the whole subtree (sinks serialize this)."""
        payload: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "wall_ms": round(self.wall_seconds * 1000.0, 4),
            "cpu_ms": round(self.cpu_seconds * 1000.0, 4),
        }
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.error is not None:
            payload["error"] = self.error
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, wall={self.wall_seconds * 1000:.2f}ms,"
            f" children={len(self.children)})"
        )


class _NoopSpan:
    """The shared disabled-path span: enter/exit do nothing.

    One instance (:data:`NOOP_SPAN`) serves every disabled ``obs.span``
    call, so the off switch costs a flag check and nothing else.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def tag(self, **tags: Any) -> "_NoopSpan":
        return self


#: The singleton returned whenever a span is not being recorded.
NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: context manager that records into its registry."""

    __slots__ = ("_registry", "record", "_wall0", "_cpu0")

    def __init__(self, registry: "Registry", name: str, tags: Dict[str, Any]):
        self._registry = registry
        self.record = SpanRecord(name, tags)
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def tag(self, **tags: Any) -> "_Span":
        """Attach tags after entry (e.g. results known only at the end)."""
        self.record.tags.update(tags)
        return self

    def __enter__(self) -> "_Span":
        stack = self._registry._stack()
        stack.append(self.record)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self.record
        record.wall_seconds = time.perf_counter() - self._wall0
        record.cpu_seconds = time.process_time() - self._cpu0
        if exc_type is not None:
            record.error = exc_type.__name__
        registry = self._registry
        stack = registry._stack()
        # unwind to this record even if an inner span leaked (an exception
        # escaping between enter/exit of a child); robustness over purity
        while stack and stack[-1] is not record:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(record)
        else:
            registry._finish_root(record)


class Registry:
    """A process-local collection point for spans, counters, and gauges.

    ``enabled`` gates everything; the newest :data:`DEFAULT_MAX_ROOTS`
    completed root spans are retained.  Sinks receive each completed
    root span tree as a dict event, plus counter/gauge snapshots on
    :meth:`flush`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: List[SpanRecord] = []
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._sinks: List[Any] = []

    # -- span plumbing ----------------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: Any):
        """A context manager timing ``name``; no-op when disabled.

        Nested calls build a tree: a span entered while another is open
        becomes its child.  Tags are arbitrary JSON-ready key/values
        (exam ids, cohort sizes, engine names).
        """
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, tags)

    def _finish_root(self, record: SpanRecord) -> None:
        with self._lock:
            self._roots.append(record)
            if len(self._roots) > DEFAULT_MAX_ROOTS:
                del self._roots[: len(self._roots) - DEFAULT_MAX_ROOTS]
        event = record.to_dict()
        for sink in list(self._sinks):
            sink.emit(event)

    # -- counters & gauges ------------------------------------------------

    def count(self, name: str, value: float = 1, **tags: Any) -> None:
        """Add ``value`` to a monotonic counter; no-op when disabled.

        Tags become part of the series key (``name{k=v,...}``), so e.g.
        per-exam counts stay separable without a label index.
        """
        if not self.enabled:
            return
        key = _series_key(name, tags)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **tags: Any) -> None:
        """Set a gauge to its latest value; no-op when disabled."""
        if not self.enabled:
            return
        key = _series_key(name, tags)
        with self._lock:
            self._gauges[key] = value

    # -- sinks ------------------------------------------------------------

    def add_sink(self, sink: Any) -> None:
        """Attach a sink (anything with ``emit(event: dict)``)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> bool:
        """Detach a sink; returns whether it was attached."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            return False
        return True

    @property
    def sinks(self) -> List[Any]:
        """The attached sinks (snapshot copy)."""
        return list(self._sinks)

    def flush(self) -> None:
        """Push counter/gauge snapshots to every sink, then flush them."""
        snapshot = self.snapshot()
        events = []
        if snapshot["counters"]:
            events.append(
                {"type": "counters", "values": snapshot["counters"]}
            )
        if snapshot["gauges"]:
            events.append({"type": "gauges", "values": snapshot["gauges"]})
        for sink in list(self._sinks):
            for event in events:
                sink.emit(event)
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        """Flush, then close every sink that supports it."""
        self.flush()
        for sink in list(self._sinks):
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # -- inspection -------------------------------------------------------

    @property
    def roots(self) -> List[SpanRecord]:
        """Completed root spans, oldest first (snapshot copy)."""
        with self._lock:
            return list(self._roots)

    def counters(self) -> Dict[str, float]:
        """Current counter values (snapshot copy)."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        """Current gauge values (snapshot copy)."""
        with self._lock:
            return dict(self._gauges)

    def counter(self, name: str, **tags: Any) -> float:
        """One counter's current value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(_series_key(name, tags), 0)

    def snapshot(self) -> Dict[str, Any]:
        """Counters, gauges, and span roots as one JSON-ready dict."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "spans": [root.to_dict() for root in self._roots],
            }

    def reset(self) -> None:
        """Clear all recorded state (sinks stay attached)."""
        with self._lock:
            self._roots.clear()
            self._counters.clear()
            self._gauges.clear()

    def timed(self, name: str, **tags: Any) -> Callable:
        """Decorator form of :meth:`span` for whole functions."""

        def wrap(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any):
                with self.span(name, **tags):
                    return fn(*args, **kwargs)

            wrapper.__name__ = getattr(fn, "__name__", "wrapped")
            wrapper.__doc__ = fn.__doc__
            return wrapper

        return wrap


def _series_key(name: str, tags: Dict[str, Any]) -> str:
    if not tags:
        return name
    inner = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{name}{{{inner}}}"
