"""Outside-in span recorder for a server process under benchmark.

:func:`install` replaces public functions of each ``repro`` layer with
timing wrappers before the server is built, so every request the server
handles leaves spans: a name, a start, an end, the enclosing span, and
a request id.  Spans stay in memory; :func:`dump` writes them out, and
``serve.py`` calls it on ``SIGUSR2``.  No file under ``src/`` changes.

A request begins when ``Router.resolve`` runs on a thread; its id is
``route|learner|key#n`` where ``key`` is the posted item (the first one
for a batch, none for routes without one) and ``n`` counts earlier
requests with the same route, learner and key in this process, so a
learner's re-sit gets ids of its own.  The load generator derives the
same ids, and a proxied request gets the same id on the front worker
(``cluster.forward``) and on its owner (``server.handler``).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Dict, List

_clock = time.monotonic


class Tracer:
    """Spans of one process, kept in memory until dumped."""

    def __init__(self) -> None:
        #: (span id, parent id, request token, name, start, end, n)
        self.spans: List[tuple] = []
        #: request token -> request id
        self.requests: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._tokens = itertools.count(1)
        self._occurrences: Dict[tuple, int] = {}
        self._occurrence_lock = threading.Lock()
        self._local = threading.local()

    # -- requests ------------------------------------------------------------

    def begin_request(self, route: str, params: dict) -> None:
        local = self._local
        local.token = next(self._tokens)
        local.route = route
        local.learner = params.get("learner_id", "")
        local.named = False

    def name_request(self, body: object) -> None:
        """Fix the current request's id once its body is known."""
        local = self._local
        if getattr(local, "named", True):
            return
        local.named = True
        key = None
        if isinstance(body, dict):
            key = body.get("item_id")
            answers = body.get("answers")
            if key is None and isinstance(answers, list) and answers:
                first = answers[0]
                key = first.get("item_id") if isinstance(first, dict) else None
        triple = (local.route, local.learner, key)
        with self._occurrence_lock:
            n = self._occurrences.get(triple, 0)
            self._occurrences[triple] = n + 1
        self.requests[local.token] = (
            f"{local.route}|{local.learner}|{key or ''}#{n}")

    # -- spans ---------------------------------------------------------------

    def wrap(self, function, name: str, count=None):
        """``function`` timed as span ``name``; ``count(args)`` gives n."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            token = getattr(local, "token", 0) if stack or name.startswith(
                ("server.", "cluster.forward")
            ) else 0
            stack.append(span_id)
            start = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                tracer.spans.append((
                    span_id, parent, token, name, start, end,
                    count(args) if count is not None else 1,
                ))

        return traced

    def dump(self, path: str) -> None:
        """Write every span so far, plus request ids, atomically."""
        spans = list(self.spans)
        requests = dict(self.requests)
        document = {
            "pid": os.getpid(),
            "spans": [
                [s[0], s[1], requests.get(s[2], ""), s[3], s[4], s[5], s[6]]
                for s in spans
            ],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(document, stream)
        os.replace(tmp, path)


def _patch(owner, attribute: str, tracer: Tracer, name: str, count=None):
    setattr(
        owner, attribute,
        tracer.wrap(getattr(owner, attribute), name, count),
    )


def install() -> Tracer:
    """Wrap every layer's public entry points; returns the tracer."""
    import repro.cluster.context as cluster_context
    import repro.core.columnar as columnar
    import repro.lms.lms as lms_module
    import repro.lms.persistence as persistence
    import repro.readmodel.checkpoint as readmodel_checkpoint
    import repro.server.app as app
    import repro.server.handlers as handlers
    import repro.server.router as router
    import repro.store as store
    import repro.store.events as events
    import repro.store.recovery as recovery
    from repro.adaptive.online import AdaptiveSession
    from repro.readmodel.model import ReadModel
    from repro.readmodel.service import ReadModelService
    from repro.scorm.api import ApiAdapter
    from repro.server.serialize import BodySpec
    from repro.store.checkpoint import Checkpointer
    from repro.store.journal import Journal

    tracer = Tracer()

    # server: a request starts at resolve; the handler it returns is
    # wrapped on the way out so its span carries the request's id
    resolve = router.Router.resolve
    wrapped_routes: Dict[int, object] = {}

    def traced_resolve(self, method, path):
        match = resolve(self, method, path)
        tracer.begin_request(match.route.name, match.params)
        route = wrapped_routes.get(id(match.route))
        if route is None:
            handler = tracer.wrap(match.route.handler, "server.handler")

            def named_handler(ctx, params, body, query, _h=handler):
                tracer.name_request(body)
                return _h(ctx, params, body, query)

            route = router.Route(
                method=match.route.method,
                template=match.route.template,
                segments=match.route.segments,
                handler=named_handler,
                name=match.route.name,
            )
            wrapped_routes[id(match.route)] = route
        return router.RouteMatch(route=route, params=match.params)

    router.Router.resolve = traced_resolve
    traced_parse = tracer.wrap(app.parse_json_body, "server.parse")

    def kept_parse(raw):
        body = tracer._local.body = traced_parse(raw)
        return body

    app.parse_json_body = kept_parse
    _patch(BodySpec, "validate", tracer, "server.validate")
    for serializer in ("scored_to_dict", "graded_to_dict", "analysis_to_dict"):
        _patch(handlers, serializer, tracer, "server.serialize")

    # cluster: the proxy hop names the request from the front worker
    forward = cluster_context.ClusterContext.forward
    traced_forward = tracer.wrap(forward, "cluster.forward")

    def named_forward(self, shard, method, path, body):
        tracer.name_request(getattr(tracer._local, "body", None))
        return traced_forward(self, shard, method, path, body)

    cluster_context.ClusterContext.forward = named_forward
    _patch(cluster_context.ClusterContext, "gather", tracer, "cluster.gather")
    _patch(columnar, "merge_partials", tracer, "cluster.merge")

    # lms, delivery, scorm, adaptive
    for method, name in (
        ("answer", "lms.answer"),
        ("answer_batch", "lms.answer_batch"),
        ("submit", "lms.submit"),
        ("start_exam", "lms.start"),
        ("report_for", "lms.report"),
        ("next_item", "lms.next_item"),
        ("live_analysis", "lms.live_analysis"),
    ):
        _patch(lms_module.Lms, method, tracer, name)
    _patch(lms_module, "grade_session", tracer, "delivery.grade")
    _patch(ApiAdapter, "LMSSetValue", tracer, "scorm.set_value")
    _patch(AdaptiveSession, "record", tracer, "adaptive.record")
    _patch(AdaptiveSession, "status", tracer, "adaptive.status")

    # core
    _patch(columnar.LiveCohortAnalysis, "invalidate", tracer, "core.invalidate")
    _patch(columnar.LiveCohortAnalysis, "add_sitting", tracer, "core.add_sitting")
    _patch(columnar.LiveCohortAnalysis, "analysis", tracer, "core.analysis")
    _patch(columnar.ResponseMatrix, "analyze", tracer, "core.matrix_analyze")

    # store
    _patch(Journal, "append", tracer, "store.append")
    _patch(
        Journal, "append_batch", tracer, "store.append_batch",
        count=lambda args: len(args[1]),
    )
    _patch(Checkpointer, "checkpoint", tracer, "store.checkpoint")
    _patch(persistence, "save_lms", tracer, "store.save_lms")
    _patch(persistence, "load_payload", tracer, "store.load_payload")
    _patch(persistence, "lms_from_payload", tracer, "store.lms_from_payload")
    _patch(events, "apply_event", tracer, "store.apply_event")
    recovery.recover = tracer.wrap(recovery.recover, "store.recover")
    store.recover = recovery.recover

    # readmodel
    _patch(ReadModel, "apply", tracer, "readmodel.apply")
    _patch(ReadModelService, "sync", tracer, "readmodel.sync")
    _patch(ReadModelService, "checkpoint", tracer, "readmodel.checkpoint")
    _patch(readmodel_checkpoint, "as_of", tracer, "readmodel.as_of")
    _patch(readmodel_checkpoint, "load_readmodel", tracer, "readmodel.load")
    return tracer

