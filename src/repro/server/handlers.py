"""Route handlers: the REST surface over an :class:`~repro.lms.lms.Lms`.

Each handler is a plain function ``(ctx, params, body, query) ->
payload | (status, payload)`` — no HTTP types leak in; the app layer
owns sockets, headers, and error rendering.  The full route table lives
in :func:`build_router`; ``docs/server.md`` documents every endpoint
with its JSON schema.

Handlers never lock explicitly: the :class:`Lms` itself is
concurrency-safe (every public method takes ``lms.lock``), so a handler
is free to make several LMS calls — the only multi-call sequences here
are read-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qs, urlencode

from repro import obs
from repro.bank.exambank import exam_from_record, exam_to_record
from repro.core.export import report_to_dict
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.server.errors import ApiError
from repro.server.router import Router
from repro.server.serialize import (
    BodySpec,
    analysis_to_dict,
    graded_to_dict,
    learner_to_dict,
    scored_to_dict,
)

__all__ = ["ServerContext", "build_router"]


@dataclass
class ServerContext:
    """What every handler can reach: the LMS and the server's registry."""

    lms: Lms
    registry: "obs.Registry" = field(default_factory=lambda: obs.Registry())
    started_at: float = field(default_factory=time.time)
    #: filled by the app layer so /metrics can report live saturation
    in_flight: Optional[object] = None
    #: filled by the app layer when a WAL is configured: a zero-arg
    #: callable running one checkpoint pass (POST /admin/checkpoint)
    checkpoint: Optional[object] = None
    #: filled by the app layer when a WAL is configured: a zero-arg
    #: callable returning journal/checkpoint stats for /metrics
    store_info: Optional[object] = None
    #: hard cap on answers per ``answers:batch`` request (413 above it)
    max_batch_answers: int = 500
    #: the worker's :class:`~repro.cluster.context.ClusterContext` in a
    #: sharded deployment; None means the classic single process.
    #: Cohort-level handlers (analysis, results, roster) scatter-gather
    #: across shards when this is set.
    cluster: Optional[object] = None
    #: the :class:`~repro.readmodel.service.ReadModelService` behind the
    #: ``/admin/analytics`` surface; None when ``--readmodel`` is off
    readmodel: Optional[object] = None
    #: filled by the app layer when a WAL is configured: a zero-arg
    #: callable scanning the calibration snapshot directory and
    #: hot-swapping any newer parameter sets (POST /admin/calibration/
    #: reload); None without durable state
    calibration: Optional[object] = None

    def uptime_seconds(self) -> float:
        """Seconds since the context (≈ server) came up."""
        return time.time() - self.started_at


# -- meta ---------------------------------------------------------------------


def _healthz(ctx: ServerContext, params, body, query):
    return {
        "status": "ok",
        "uptime_seconds": round(ctx.uptime_seconds(), 3),
        "exams_offered": len(ctx.lms.offered_exams()),
    }


def _metrics(ctx: ServerContext, params, body, query):
    payload = {
        "uptime_seconds": round(ctx.uptime_seconds(), 3),
        "counters": ctx.registry.counters(),
        "gauges": ctx.registry.gauges(),
        "monitor": ctx.lms.monitor.metrics(),
        "locks": ctx.lms.lock_stats.snapshot(),
    }
    if ctx.in_flight is not None:
        payload["in_flight"] = ctx.in_flight()
    if ctx.store_info is not None:
        payload["store"] = ctx.store_info()
    if ctx.readmodel is not None:
        payload["readmodel"] = ctx.readmodel.info()
    if ctx.cluster is not None:
        payload["cluster"] = ctx.cluster.describe()
    return payload


# -- catalog ------------------------------------------------------------------

_OFFER_SPEC = BodySpec(
    required={"exam_id": str, "title": str, "items": list},
    optional={
        "display_type": str,
        "time_limit_seconds": object,
        "resumable": bool,
        "groups": list,
        "adaptive": dict,
    },
)


def _offer_exam(ctx: ServerContext, params, body, query):
    exam = exam_from_record(_OFFER_SPEC.validate(body))
    ctx.lms.offer_exam(exam)
    if ctx.cluster is not None:
        # the catalog is replicated: every shard must know the exam
        # before its learners' requests arrive.  Peers already holding
        # it answer 409, which broadcast() counts as success — offers
        # are idempotent, so a retried broadcast converges.
        import json as _json

        ctx.cluster.broadcast(
            "POST", "/internal/exams", _json.dumps(body).encode("utf-8")
        )
    return 201, {"exam_id": exam.exam_id, "items": len(exam.items)}


def _offer_exam_local(ctx: ServerContext, params, body, query):
    """The broadcast leg of an offer: apply here, never re-broadcast."""
    exam = exam_from_record(_OFFER_SPEC.validate(body))
    ctx.lms.offer_exam(exam)
    return 201, {"exam_id": exam.exam_id, "items": len(exam.items)}


def _list_exams(ctx: ServerContext, params, body, query):
    return {"exams": ctx.lms.offered_exams()}


def _get_exam(ctx: ServerContext, params, body, query):
    return exam_to_record(ctx.lms.exam(params["exam_id"]))


# -- learners & enrollment ----------------------------------------------------

_REGISTER_SPEC = BodySpec(
    required={"learner_id": str},
    optional={"name": str, "email": str},
)


def _register_learner(ctx: ServerContext, params, body, query):
    body = _REGISTER_SPEC.validate(body)
    learner = Learner(
        learner_id=body["learner_id"],
        name=str(body.get("name", "")),
        email=str(body.get("email", "")),
    )
    ctx.lms.register_learner(learner)
    return 201, {"learner_id": learner.learner_id}


def _get_learner(ctx: ServerContext, params, body, query):
    return learner_to_dict(ctx.lms.learners.get(params["learner_id"]))


_ENROLL_SPEC = BodySpec(required={"learner_id": str})


def _enroll(ctx: ServerContext, params, body, query):
    body = _ENROLL_SPEC.validate(body)
    ctx.lms.enroll(body["learner_id"], params["exam_id"])
    return 201, {
        "learner_id": body["learner_id"],
        "exam_id": params["exam_id"],
    }


def _roster(ctx: ServerContext, params, body, query):
    exam_id = params["exam_id"]
    ctx.lms.exam(exam_id)  # 404 for unknown exams, not an empty roster
    enrolled = ctx.lms.enrolled(exam_id)
    if ctx.cluster is not None:
        # each shard only knows its own learners: union the fleet
        merged = set(enrolled)
        for partial in ctx.cluster.gather(
            f"/internal/exams/{exam_id}/enrollments:local"
        ):
            merged.update(partial["enrolled"])
        enrolled = sorted(merged)
    return {"exam_id": exam_id, "enrolled": enrolled}


def _roster_local(ctx: ServerContext, params, body, query):
    """One shard's slice of the roster (the gather leg of ``_roster``)."""
    exam_id = params["exam_id"]
    ctx.lms.exam(exam_id)
    return {"exam_id": exam_id, "enrolled": ctx.lms.enrolled(exam_id)}


# -- sitting lifecycle --------------------------------------------------------


def _start(ctx: ServerContext, params, body, query):
    sitting = ctx.lms.start_exam(params["learner_id"], params["exam_id"])
    return 201, {
        "learner_id": sitting.learner_id,
        "exam_id": sitting.exam_id,
        "state": sitting.session.state.value,
        "item_order": list(sitting.item_order),
        "time_limit_seconds": sitting.session.exam.time_limit_seconds,
    }


_ANSWER_SPEC = BodySpec(required={"item_id": str, "response": object})


def _answer(ctx: ServerContext, params, body, query):
    body = _ANSWER_SPEC.validate(body)
    scored = ctx.lms.answer(
        params["learner_id"],
        params["exam_id"],
        body["item_id"],
        body["response"],
    )
    return {"item_id": body["item_id"], "scored": scored_to_dict(scored)}


_BATCH_SPEC = BodySpec(
    required={"answers": list},
    optional={"submit": bool},
    elements={"answers": _ANSWER_SPEC},
)


def _answers_batch(ctx: ServerContext, params, body, query):
    """K answers in one request — and optionally the submit too.

    All-or-nothing: the first invalid answer rejects the whole batch
    with a 4xx naming its index (``answers[i]``), and nothing — not the
    sitting, not the journal — is touched.  With ``"submit": true`` the
    sitting is graded in the same critical section and the grade rides
    the same durable journal append (the whole-sitting variant).
    """
    body = _BATCH_SPEC.validate(body)
    answers = body["answers"]
    if len(answers) > ctx.max_batch_answers:
        raise ApiError(
            413,
            "payload_too_large",
            f"batch of {len(answers)} answers exceeds the per-request "
            f"limit of {ctx.max_batch_answers}",
        )
    scored, graded = ctx.lms.answer_batch(
        params["learner_id"],
        params["exam_id"],
        [(entry["item_id"], entry["response"]) for entry in answers],
        submit=bool(body.get("submit", False)),
    )
    payload = {
        "count": len(scored),
        "scored": [
            {"item_id": entry["item_id"], "scored": scored_to_dict(one)}
            for entry, one in zip(answers, scored)
        ],
        "submitted": graded is not None,
    }
    if graded is not None:
        payload["graded"] = graded_to_dict(graded)
    return payload


def _sitting_status(ctx: ServerContext, params, body, query):
    sitting = ctx.lms.sitting(params["learner_id"], params["exam_id"])
    session = sitting.session
    return {
        "learner_id": sitting.learner_id,
        "exam_id": sitting.exam_id,
        "state": session.state.value,
        "answered": session.answered_item_ids(),
        "elapsed_seconds": session.elapsed_seconds(),
        "remaining_seconds": session.remaining_seconds(),
    }


def _next_item(ctx: ServerContext, params, body, query):
    """The adaptive policy's choice for this sitting.

    Pure table lookup on the hot path (no IRT evaluation); 409s for
    exams without an adaptive policy.  ``done: true`` with a ``reason``
    means the stopping rules fired — the client should submit.
    """
    payload = ctx.lms.next_item(params["learner_id"], params["exam_id"])
    payload["learner_id"] = params["learner_id"]
    payload["exam_id"] = params["exam_id"]
    return payload


def _suspend(ctx: ServerContext, params, body, query):
    ctx.lms.suspend(params["learner_id"], params["exam_id"])
    return {"state": "suspended"}


def _resume(ctx: ServerContext, params, body, query):
    ctx.lms.resume(params["learner_id"], params["exam_id"])
    return {"state": "in_progress"}


def _submit(ctx: ServerContext, params, body, query):
    graded = ctx.lms.submit(params["learner_id"], params["exam_id"])
    return graded_to_dict(graded)


# -- results & analysis -------------------------------------------------------


def _results(ctx: ServerContext, params, body, query):
    exam_id = params["exam_id"]
    ctx.lms.exam(exam_id)
    results = [
        graded_to_dict(graded) for graded in ctx.lms.results_for(exam_id)
    ]
    if ctx.cluster is not None:
        # per-shard lists are in local submission order; the merged view
        # is put in canonical (learner id) order so it is a pure
        # function of who submitted, not of shard layout
        for partial in ctx.cluster.gather(
            f"/internal/exams/{exam_id}/results:local"
        ):
            results.extend(partial["results"])
        results.sort(key=lambda graded: graded["learner_id"])
    return {"exam_id": exam_id, "results": results}


def _results_local(ctx: ServerContext, params, body, query):
    """One shard's graded sittings (the gather leg of ``_results``)."""
    exam_id = params["exam_id"]
    ctx.lms.exam(exam_id)
    return {
        "exam_id": exam_id,
        "results": [
            graded_to_dict(graded) for graded in ctx.lms.results_for(exam_id)
        ],
    }


def _analysis(ctx: ServerContext, params, body, query):
    exam_id = params["exam_id"]
    if ctx.cluster is None:
        return analysis_to_dict(ctx.lms.live_analysis(exam_id))
    # scatter-gather: every shard exports its warm columnar partial;
    # the merge (canonical learner order) analyzes bit-identically to a
    # single process that held the whole cohort
    from repro.core.columnar import merge_partials

    exam = ctx.lms.exam(exam_id)
    partials = [ctx.lms.analysis_partial(exam_id)]
    partials.extend(
        ctx.cluster.gather(f"/internal/exams/{exam_id}/analysis:partial")
    )
    matrix = merge_partials(exam.question_specs(), partials)
    return analysis_to_dict(matrix.analyze())


def _analysis_partial(ctx: ServerContext, params, body, query):
    """This shard's columnar partial (the gather leg of ``_analysis``)."""
    return ctx.lms.analysis_partial(params["exam_id"])


def _report(ctx: ServerContext, params, body, query):
    if ctx.cluster is not None:
        raise ApiError(
            501,
            "not_implemented",
            "the full report is not yet available in sharded mode; "
            "use /exams/{exam_id}/analysis (scatter-gathered) instead",
        )
    return report_to_dict(ctx.lms.report_for(params["exam_id"]))


def _monitor_metrics(ctx: ServerContext, params, body, query):
    return ctx.lms.monitor.metrics()


# -- admin --------------------------------------------------------------------


def _checkpoint_payload(result) -> Dict[str, object]:
    return {
        "checkpoint": str(result.path),
        "covered_lsn": result.covered_lsn,
        "retired_segments": [
            path.name for path in result.retired_segments
        ],
        "pruned_checkpoints": [
            path.name for path in result.pruned_checkpoints
        ],
    }


def _checkpoint_now(ctx: ServerContext, params, body, query):
    if ctx.checkpoint is None:
        raise ApiError(
            409,
            "invalid_state",
            "server was started without a WAL directory (--wal-dir)",
        )
    result = ctx.checkpoint()
    payload = _checkpoint_payload(result)
    if ctx.cluster is not None:
        # every shard compacts its own WAL; the admin call fans out
        payload["peers_checkpointed"] = ctx.cluster.broadcast(
            "POST", "/internal/admin/checkpoint"
        )
    return payload


def _checkpoint_local(ctx: ServerContext, params, body, query):
    """The broadcast leg of a cluster checkpoint: this shard only."""
    if ctx.checkpoint is None:
        raise ApiError(
            409,
            "invalid_state",
            "server was started without a WAL directory (--wal-dir)",
        )
    return _checkpoint_payload(ctx.checkpoint())


def _calibration_reload(ctx: ServerContext, params, body, query):
    """Re-scan the calibration snapshot directory and hot-swap any exam
    whose newest persisted parameter set is newer than the installed one
    (the on-demand flavor of the boot-time pickup)."""
    if ctx.calibration is None:
        raise ApiError(
            409,
            "invalid_state",
            "server was started without a WAL directory (--wal-dir), "
            "so there is no calibration snapshot directory to reload",
        )
    return ctx.calibration()


# -- analytics (the read-model tier) ------------------------------------------


def _require_readmodel(ctx: ServerContext):
    if ctx.readmodel is None:
        raise ApiError(
            409,
            "invalid_state",
            "read models are not enabled (serve --readmodel)",
        )
    return ctx.readmodel


def _as_of_target(query: str):
    """``(lsn, ts)`` from an ``as_of_lsn=``/``as_of_ts=`` query string."""
    options = parse_qs(query or "")
    lsn = options.get("as_of_lsn", [None])[0]
    ts = options.get("as_of_ts", [None])[0]
    if lsn is not None and ts is not None:
        raise ApiError(
            400, "bad_request", "pass as_of_lsn or as_of_ts, not both"
        )
    try:
        return (
            int(lsn) if lsn is not None else None,
            float(ts) if ts is not None else None,
        )
    except ValueError:
        raise ApiError(
            400, "bad_request", "as_of_lsn/as_of_ts must be numeric"
        ) from None


def _readmodel_at(service, lsn, ts):
    """The service's live model, or a bounded time-travel fold."""
    if lsn is None and ts is None:
        service.sync()
        return service.model, None
    from repro.readmodel.checkpoint import as_of

    model, replayed = as_of(service.directory, lsn=lsn, ts=ts)
    return model, {"applied_lsn": model.applied_lsn, "replayed": replayed}


def _analytics_overview(ctx: ServerContext, params, body, query):
    payload = _analytics_overview_local(ctx, params, body, query)
    if ctx.cluster is None:
        return payload
    shards = [payload]
    shards.extend(ctx.cluster.gather("/internal/admin/analytics:overview"))
    shards.sort(key=lambda entry: entry["shard"])
    merged = {
        "applied_events": sum(s["applied_events"] for s in shards),
        "learners": sum(s["learners"] for s in shards),
        "open_sittings": sum(s["open_sittings"] for s in shards),
        "events": {},
        "exams": {},
        "shards": [
            {
                "shard": s["shard"],
                "applied_lsn": s["applied_lsn"],
                "lag": s["follower"].get("lag"),
            }
            for s in shards
        ],
    }
    for shard in shards:
        for type_, count in shard["events"].items():
            merged["events"][type_] = merged["events"].get(type_, 0) + count
        for entry in shard["exams"]:
            rollup = merged["exams"].setdefault(
                entry["exam_id"],
                {"exam_id": entry["exam_id"], "submits": 0, "enrolled": 0},
            )
            rollup["submits"] += entry["submits"]
            rollup["enrolled"] += entry["enrolled"]
    merged["events"] = dict(sorted(merged["events"].items()))
    merged["exams"] = [
        merged["exams"][exam_id] for exam_id in sorted(merged["exams"])
    ]
    return merged


def _analytics_overview_local(ctx: ServerContext, params, body, query):
    """One process's fold state (also the gather leg of the overview)."""
    service = _require_readmodel(ctx)
    service.sync()
    with service.lock:
        payload = service.model.overview()
    payload["follower"] = service.info()
    payload["shard"] = ctx.cluster.shard if ctx.cluster is not None else ""
    return payload


def _analytics_summary(ctx: ServerContext, params, body, query):
    payload = _analytics_summary_local(ctx, params, body, query)
    if ctx.cluster is None:
        return payload
    from repro.readmodel.model import merge_summaries

    exam_id = params["exam_id"]
    summaries = [payload]
    summaries.extend(
        ctx.cluster.gather(
            f"/internal/admin/analytics/{exam_id}/summary:local"
        )
    )
    return merge_summaries(summaries)


def _analytics_summary_local(ctx: ServerContext, params, body, query):
    """One shard's exam aggregates (the gather leg of the summary)."""
    service = _require_readmodel(ctx)
    service.sync()
    with service.lock:
        return service.model.exam(params["exam_id"]).summary()


def _analytics_analysis(ctx: ServerContext, params, body, query):
    """The read-model cohort analysis, bit-identical to the live
    ``/exams/{exam_id}/analysis`` over the same journaled history.

    ``?as_of_lsn=N`` / ``?as_of_ts=T`` time-travels: the answer is the
    fold at that journal position, built from the nearest read-model
    checkpoint plus a bounded suffix replay.  LSNs are per-shard
    coordinates, so a sharded deployment only accepts ``as_of_ts``
    (one wall clock spans the fleet).
    """
    service = _require_readmodel(ctx)
    exam_id = params["exam_id"]
    lsn, ts = _as_of_target(query)
    if ctx.cluster is None:
        model, as_of_info = _readmodel_at(service, lsn, ts)
        with service.lock:
            payload = analysis_to_dict(model.exam(exam_id).analysis())
        if as_of_info is not None:
            return {"as_of": as_of_info, "analysis": payload}
        return payload
    if lsn is not None:
        raise ApiError(
            400,
            "bad_request",
            "as_of_lsn is a per-shard coordinate; use as_of_ts "
            "against a cluster",
        )
    from repro.core.columnar import merge_partials

    model, as_of_info = _readmodel_at(service, None, ts)
    with service.lock:
        exam_model = model.exam(exam_id)
        exam = exam_model.exam
        partials = [exam_model.partial()]
    # urlencode, not an f-string: a float's repr can carry '+' (1e+18),
    # which would decode to a space on the receiving shard
    suffix = "?" + urlencode({"as_of_ts": ts}) if ts is not None else ""
    partials.extend(
        ctx.cluster.gather(
            f"/internal/admin/analytics/{exam_id}/analysis:partial{suffix}"
        )
    )
    matrix = merge_partials(exam.question_specs(), partials)
    payload = analysis_to_dict(matrix.analyze())
    if as_of_info is not None:
        return {"as_of": as_of_info, "analysis": payload}
    return payload


def _analytics_partial(ctx: ServerContext, params, body, query):
    """This shard's read-model partial (the gather leg of the analysis)."""
    service = _require_readmodel(ctx)
    lsn, ts = _as_of_target(query)
    model, _ = _readmodel_at(service, lsn, ts)
    with service.lock:
        return model.exam(params["exam_id"]).partial()


def _analytics_blueprint(ctx: ServerContext, params, body, query):
    payload = _analytics_summary(ctx, params, body, query)
    return {
        "exam_id": payload["exam_id"],
        "blueprint": payload["blueprint"],
    }


def _analytics_spec_table(ctx: ServerContext, params, body, query):
    """The static concept × level aggregate (replicated catalog: any
    shard's copy is the fleet's)."""
    service = _require_readmodel(ctx)
    service.sync()
    with service.lock:
        payload = service.model.exam(params["exam_id"]).spec_table()
    payload["exam_id"] = params["exam_id"]
    return payload


# -- cluster ------------------------------------------------------------------


def _shard_lsns(ctx: ServerContext) -> Dict[str, object]:
    """One shard's WAL coordinates for the topology payload."""
    payload: Dict[str, object] = {
        "shard": ctx.cluster.shard if ctx.cluster is not None else ""
    }
    if ctx.store_info is not None:
        info = ctx.store_info()
        payload["last_lsn"] = info.get("last_lsn")
        payload["durable_lsn"] = info.get("durable_lsn")
    if ctx.readmodel is not None:
        payload["readmodel_lsn"] = ctx.readmodel.info()["applied_lsn"]
    return payload


def _topology_local(ctx: ServerContext, params, body, query):
    """This worker's LSN coordinates (the gather leg of the topology)."""
    return _shard_lsns(ctx)


def _topology(ctx: ServerContext, params, body, query):
    if ctx.cluster is None:
        raise ApiError(
            409,
            "invalid_state",
            "this server is not part of a cluster (serve --workers N)",
        )
    payload = ctx.cluster.describe()
    local = _shard_lsns(ctx)
    lsns = {local["shard"]: local}
    for peer in ctx.cluster.gather("/internal/cluster/topology:local"):
        lsns[peer["shard"]] = peer
    for entry in payload["shards"]:
        info = lsns.get(entry["shard"])
        if info is not None:
            for key in ("last_lsn", "durable_lsn", "readmodel_lsn"):
                if key in info:
                    entry[key] = info[key]
    return payload


def build_router() -> Router:
    """The service's full route table."""
    router = Router()
    router.add("GET", "/healthz", _healthz, "healthz")
    router.add("GET", "/metrics", _metrics, "metrics")
    router.add("GET", "/exams", _list_exams, "exams.list")
    router.add("POST", "/exams", _offer_exam, "exams.offer")
    router.add("GET", "/exams/{exam_id}", _get_exam, "exams.get")
    router.add("POST", "/learners", _register_learner, "learners.register")
    router.add("GET", "/learners/{learner_id}", _get_learner, "learners.get")
    router.add(
        "POST", "/exams/{exam_id}/enrollments", _enroll, "enrollments.create"
    )
    router.add(
        "GET", "/exams/{exam_id}/enrollments", _roster, "enrollments.list"
    )
    sitting = "/exams/{exam_id}/sittings/{learner_id}"
    router.add("POST", sitting + "/start", _start, "sittings.start")
    router.add("POST", sitting + "/answer", _answer, "sittings.answer")
    router.add(
        "POST",
        sitting + "/answers:batch",
        _answers_batch,
        "sittings.answers_batch",
    )
    router.add(
        "GET", sitting + "/next-item", _next_item, "sittings.next_item"
    )
    router.add("POST", sitting + "/suspend", _suspend, "sittings.suspend")
    router.add("POST", sitting + "/resume", _resume, "sittings.resume")
    router.add("POST", sitting + "/submit", _submit, "sittings.submit")
    router.add("GET", sitting, _sitting_status, "sittings.status")
    router.add("GET", "/exams/{exam_id}/results", _results, "results")
    router.add("GET", "/exams/{exam_id}/analysis", _analysis, "analysis")
    router.add("GET", "/exams/{exam_id}/report", _report, "report")
    router.add(
        "GET", "/monitor/metrics", _monitor_metrics, "monitor.metrics"
    )
    router.add(
        "POST", "/admin/checkpoint", _checkpoint_now, "admin.checkpoint"
    )
    router.add(
        "POST",
        "/admin/calibration/reload",
        _calibration_reload,
        "admin.calibration_reload",
    )
    # the read-model analytics surface (read-only; 409 without
    # --readmodel).  Answers come from the journal-fed fold, never from
    # the live LMS, so the cost is O(aggregate) regardless of history.
    router.add(
        "GET", "/admin/analytics", _analytics_overview, "analytics.overview"
    )
    analytics = "/admin/analytics/exams/{exam_id}"
    router.add("GET", analytics, _analytics_summary, "analytics.summary")
    router.add(
        "GET",
        analytics + "/analysis",
        _analytics_analysis,
        "analytics.analysis",
    )
    router.add(
        "GET",
        analytics + "/blueprint",
        _analytics_blueprint,
        "analytics.blueprint",
    )
    router.add(
        "GET",
        analytics + "/spec-table",
        _analytics_spec_table,
        "analytics.spec_table",
    )
    # cluster-internal peer routes: the gather/broadcast legs of the
    # scatter-gather handlers above.  They carry no learner affinity
    # (never proxied) and never fan out themselves — that is what keeps
    # a scatter from recursing.  Harmless on a single server too.
    router.add("GET", "/cluster/topology", _topology, "cluster.topology")
    router.add(
        "GET",
        "/internal/exams/{exam_id}/analysis:partial",
        _analysis_partial,
        "internal.analysis_partial",
    )
    router.add(
        "GET",
        "/internal/exams/{exam_id}/results:local",
        _results_local,
        "internal.results_local",
    )
    router.add(
        "GET",
        "/internal/exams/{exam_id}/enrollments:local",
        _roster_local,
        "internal.roster_local",
    )
    router.add(
        "POST", "/internal/exams", _offer_exam_local, "internal.offer"
    )
    router.add(
        "POST",
        "/internal/admin/checkpoint",
        _checkpoint_local,
        "internal.checkpoint",
    )
    router.add(
        "GET",
        "/internal/admin/analytics:overview",
        _analytics_overview_local,
        "internal.analytics_overview",
    )
    router.add(
        "GET",
        "/internal/admin/analytics/{exam_id}/summary:local",
        _analytics_summary_local,
        "internal.analytics_summary",
    )
    router.add(
        "GET",
        "/internal/admin/analytics/{exam_id}/analysis:partial",
        _analytics_partial,
        "internal.analytics_partial",
    )
    router.add(
        "GET",
        "/internal/cluster/topology:local",
        _topology_local,
        "internal.topology_local",
    )
    return router
