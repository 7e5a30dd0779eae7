"""``repro.obs`` — zero-dependency observability for the whole system.

Span timers, monotonic counters, gauges, and pluggable sinks, threaded
through every runtime layer (delivery, analysis, simulation, SCORM
export).  Instrumentation is **off by default**: each helper checks one
flag and returns immediately, so the instrumented hot paths cost <5%
even at the 10k x 50 benchmark scale (see ``BENCH_obs.json``).

Usage, module-level (the default process registry)::

    from repro import obs

    obs.enable()                        # or enable(JsonLinesSink(path))
    with obs.span("analyze.columnar", exam_id="mid-1"):
        ...
    obs.count("lms.sittings.submitted")
    print(obs.render())                 # span tree + counter table
    obs.disable()

or with an explicit :class:`Registry` for isolation (tests, servers
running several tenants)::

    reg = obs.Registry(enabled=True)
    with reg.span("sim.shard", index=3):
        ...
    reg.counters()

The CLI exposes the same machinery as ``--profile[=PATH]`` on every
subcommand.  See ``docs/observability.md`` for the model and the sink
protocol.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import NOOP_SPAN, Registry, SpanRecord
from repro.obs.render import render_counters, render_profile, render_span_tree
from repro.obs.sinks import JsonLinesSink, RingBufferSink, parse_jsonl

__all__ = [
    "Registry",
    "SpanRecord",
    "RingBufferSink",
    "JsonLinesSink",
    "parse_jsonl",
    "span",
    "count",
    "gauge",
    "enable",
    "disable",
    "enabled",
    "reset",
    "flush",
    "snapshot",
    "render",
    "render_span_tree",
    "render_counters",
    "render_profile",
    "get_registry",
    "set_registry",
]

#: The process-default registry every module-level helper records into.
_registry = Registry(enabled=False)


def get_registry() -> Registry:
    """The current default registry."""
    return _registry


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def span(name: str, **tags: Any):
    """Time a region against the default registry (no-op when disabled)."""
    registry = _registry
    if not registry.enabled:
        return NOOP_SPAN
    return registry.span(name, **tags)


def count(name: str, value: float = 1, **tags: Any) -> None:
    """Bump a counter on the default registry (no-op when disabled)."""
    registry = _registry
    if not registry.enabled:
        return
    registry.count(name, value, **tags)


def gauge(name: str, value: float, **tags: Any) -> None:
    """Set a gauge on the default registry (no-op when disabled)."""
    registry = _registry
    if not registry.enabled:
        return
    registry.gauge(name, value, **tags)


def enable(*sinks: Any) -> Registry:
    """Switch the default registry on, attaching any given sinks."""
    registry = _registry
    registry.enabled = True
    for sink in sinks:
        registry.add_sink(sink)
    return registry


def disable() -> None:
    """Switch the default registry off (recorded state is kept)."""
    _registry.enabled = False


def enabled() -> bool:
    """Whether the default registry is recording."""
    return _registry.enabled


def reset() -> None:
    """Clear the default registry's spans, counters, and gauges."""
    _registry.reset()


def flush() -> None:
    """Flush the default registry's sinks (counter snapshots included)."""
    _registry.flush()


def snapshot() -> Dict[str, Any]:
    """Counters, gauges, and span trees of the default registry."""
    return _registry.snapshot()


def render(registry: Optional[Registry] = None) -> str:
    """The human-readable profile (span tree + counters) of a registry."""
    return render_profile(registry if registry is not None else _registry)
