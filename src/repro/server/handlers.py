"""Route handlers: the REST surface over an :class:`~repro.lms.lms.Lms`.

Each handler is a plain function ``(server, params, body, query) ->
payload | (status, payload)``, where ``server`` is the
:class:`~repro.server.app.ExamServer` answering the request — no HTTP
types leak in; the app layer owns sockets, headers, and error
rendering.  The full route table lives in :func:`build_router`;
``docs/server.md`` documents every endpoint with its JSON schema.

Handlers never lock explicitly: the :class:`Lms` itself is
concurrency-safe (every public method takes ``lms.lock``), so a handler
is free to make several LMS calls — the only multi-call sequences here
are read-only.
"""

from __future__ import annotations

import json
import time
from urllib.parse import parse_qs

from repro.bank.exambank import exam_from_record, exam_to_record
from repro.core.errors import DuplicateIdError
from repro.core.export import report_to_dict
from repro.lms.learners import Learner
from repro.server.errors import ApiError
from repro.server.router import Router
from repro.server.serialize import (
    BodySpec,
    analysis_to_dict,
    graded_to_dict,
    learner_to_dict,
    scored_to_dict,
)

__all__ = ["build_router"]


# -- meta ---------------------------------------------------------------------


def _healthz(server, params, body, query):
    return {
        "status": "ok",
        "uptime_seconds": round(time.time() - server.started_at, 3),
        "exams_offered": len(server.lms.offered_exams()),
    }


def _metrics(server, params, body, query):
    payload = {
        "uptime_seconds": round(time.time() - server.started_at, 3),
        "counters": server.registry.counters(),
        "gauges": server.registry.gauges(),
        "monitor": server.lms.monitor.metrics(),
        "locks": server.lms.lock_stats.snapshot(),
        "in_flight": server.in_flight.current(),
    }
    if server.checkpointer is not None:
        payload["store"] = server.store_info()
    if server.readmodel is not None:
        payload["readmodel"] = server.readmodel.info()
    if server.cluster is not None:
        payload["cluster"] = server.cluster.describe()
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


def _offer_exam(server, params, body, query):
    exam = exam_from_record(_OFFER_SPEC.validate(body))
    server.lms.offer_exam(exam)
    return 201, {"exam_id": exam.exam_id, "items": len(exam.items)}


def _offered_record(server, body):
    """The record this shard holds under the id an offer asked for."""
    return exam_to_record(server.lms.exam(body["exam_id"]))


def _list_exams(server, params, body, query):
    return {"exams": server.lms.offered_exams()}


def _get_exam(server, params, body, query):
    return exam_to_record(server.lms.exam(params["exam_id"]))


# -- learners & enrollment ----------------------------------------------------

_REGISTER_SPEC = BodySpec(
    required={"learner_id": str},
    optional={"name": str, "email": str},
)


def _register_learner(server, params, body, query):
    body = _REGISTER_SPEC.validate(body)
    learner = Learner(
        learner_id=body["learner_id"],
        name=str(body.get("name", "")),
        email=str(body.get("email", "")),
    )
    server.lms.register_learner(learner)
    return 201, {"learner_id": learner.learner_id}


def _get_learner(server, params, body, query):
    return learner_to_dict(server.lms.learners.get(params["learner_id"]))


_ENROLL_SPEC = BodySpec(required={"learner_id": str})


def _enroll(server, params, body, query):
    body = _ENROLL_SPEC.validate(body)
    server.lms.enroll(body["learner_id"], params["exam_id"])
    return 201, {
        "learner_id": body["learner_id"],
        "exam_id": params["exam_id"],
    }


def _roster(server, params, body, query):
    exam_id = params["exam_id"]
    server.lms.exam(exam_id)  # 404 for unknown exams, not an empty roster
    return {"exam_id": exam_id, "enrolled": server.lms.enrolled(exam_id)}


def _merge_rosters(server, params, rosters):
    # each shard only knows its own learners: union the fleet
    enrolled = set().union(*(roster["enrolled"] for roster in rosters))
    return {"exam_id": params["exam_id"], "enrolled": sorted(enrolled)}


# -- sitting lifecycle --------------------------------------------------------


def _start(server, params, body, query):
    sitting = server.lms.start_exam(params["learner_id"], params["exam_id"])
    return 201, {
        "learner_id": sitting.learner_id,
        "exam_id": sitting.exam_id,
        "state": sitting.session.state.value,
        "item_order": list(sitting.item_order),
        "time_limit_seconds": sitting.session.exam.time_limit_seconds,
    }


_ANSWER_SPEC = BodySpec(required={"item_id": str, "response": object})


def _answer(server, params, body, query):
    body = _ANSWER_SPEC.validate(body)
    scored = server.lms.answer(
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


def _answers_batch(server, params, body, query):
    """K answers in one request — and optionally the submit too.

    All-or-nothing: the first invalid answer rejects the whole batch
    with a 4xx naming its index (``answers[i]``), and nothing — not the
    sitting, not the journal — is touched.  With ``"submit": true`` the
    sitting is graded in the same critical section and the grade rides
    the same durable journal append (the whole-sitting variant).
    """
    body = _BATCH_SPEC.validate(body)
    answers = body["answers"]
    if len(answers) > server.max_batch_answers:
        raise ApiError(
            413,
            "payload_too_large",
            f"batch of {len(answers)} answers exceeds the per-request "
            f"limit of {server.max_batch_answers}",
        )
    scored, graded = server.lms.answer_batch(
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


def _sitting_status(server, params, body, query):
    sitting = server.lms.sitting(params["learner_id"], params["exam_id"])
    session = sitting.session
    return {
        "learner_id": sitting.learner_id,
        "exam_id": sitting.exam_id,
        "state": session.state.value,
        "answered": session.answered_item_ids(),
        "elapsed_seconds": session.elapsed_seconds(),
        "remaining_seconds": session.remaining_seconds(),
    }


def _next_item(server, params, body, query):
    """The adaptive policy's choice for this sitting.

    Pure table lookup on the hot path (no IRT evaluation); 409s for
    exams without an adaptive policy.  ``done: true`` with a ``reason``
    means the stopping rules fired — the client should submit.
    """
    payload = server.lms.next_item(params["learner_id"], params["exam_id"])
    payload["learner_id"] = params["learner_id"]
    payload["exam_id"] = params["exam_id"]
    return payload


def _suspend(server, params, body, query):
    server.lms.suspend(params["learner_id"], params["exam_id"])
    return {"state": "suspended"}


def _resume(server, params, body, query):
    server.lms.resume(params["learner_id"], params["exam_id"])
    return {"state": "in_progress"}


def _submit(server, params, body, query):
    graded = server.lms.submit(params["learner_id"], params["exam_id"])
    return graded_to_dict(graded)


# -- results & analysis -------------------------------------------------------


def _results(server, params, body, query):
    exam_id = params["exam_id"]
    server.lms.exam(exam_id)
    return {
        "exam_id": exam_id,
        "results": [
            graded_to_dict(graded)
            for graded in server.lms.results_for(exam_id)
        ],
    }


def _merge_results(server, params, shards):
    # per-shard lists are in local submission order; the merged view
    # is put in canonical (learner id) order so it is a pure function
    # of who submitted, not of shard layout
    results = [graded for shard in shards for graded in shard["results"]]
    results.sort(key=lambda graded: graded["learner_id"])
    return {"exam_id": params["exam_id"], "results": results}


def _analysis(server, params, body, query):
    return analysis_to_dict(server.lms.live_analysis(params["exam_id"]))


def _analysis_partial(server, params, body, query):
    """This shard's columnar partial of the exam's cohort."""
    return server.lms.analysis_partial(params["exam_id"])


def _merge_analysis(server, params, partials):
    """Merge every shard's cohort partial: the merge (canonical learner
    order) analyzes bit-identically to a single process that held the
    whole cohort.  When the query time-travels, each read-model partial
    carries its shard's ``as_of`` coordinates, and this shard's wrap
    the answer."""
    from repro.core.columnar import merge_partials

    specs = server.lms.exam(params["exam_id"]).question_specs()
    payload = analysis_to_dict(merge_partials(specs, partials).analyze())
    return _with_as_of(payload, partials[0].get("as_of"))


def _report(server, params, body, query):
    if server.cluster is not None:
        raise ApiError(
            501,
            "not_implemented",
            "the full report is not yet available in sharded mode; "
            "use /exams/{exam_id}/analysis (scatter-gathered) instead",
        )
    return report_to_dict(server.lms.report_for(params["exam_id"]))


def _monitor_metrics(server, params, body, query):
    return server.lms.monitor.metrics()


# -- admin --------------------------------------------------------------------


def _checkpoint_now(server, params, body, query):
    if server.checkpointer is None:
        raise ApiError(
            409,
            "invalid_state",
            "server was started without a WAL directory (--wal-dir)",
        )
    result = server.checkpoint_now()
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


def _count_peers(payload, peers):
    # every shard compacts its own WAL; the admin call fans out
    return {**payload, "peers_checkpointed": peers}


def _calibration_reload(server, params, body, query):
    """Re-scan the calibration snapshot directory and hot-swap any exam
    whose newest persisted parameter set is newer than the installed one
    (the on-demand flavor of the boot-time pickup)."""
    if server.calibration_dir is None:
        raise ApiError(
            409,
            "invalid_state",
            "server was started without a WAL directory (--wal-dir), "
            "so there is no calibration snapshot directory to reload",
        )
    return server.reload_calibration()


# -- analytics (the read-model tier) ------------------------------------------


def _require_readmodel(server):
    if server.readmodel is None:
        raise ApiError(
            409,
            "invalid_state",
            "read models are not enabled (serve --readmodel)",
        )
    return server.readmodel


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


def _with_as_of(payload, as_of_info):
    """A time-travelled analysis names the journal position it reached."""
    if as_of_info is None:
        return payload
    return {"as_of": as_of_info, "analysis": payload}


def _analytics_overview(server, params, body, query):
    """One process's fold state (a shard's part of the fleet's)."""
    service = _require_readmodel(server)
    service.sync()
    with service.lock:
        payload = service.model.overview()
    payload["follower"] = service.info()
    payload["shard"] = server.cluster.shard if server.cluster else ""
    return payload


def _merge_overviews(server, params, shards):
    shards = sorted(shards, key=lambda entry: entry["shard"])
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


def _analytics_summary(server, params, body, query):
    """One process's exam aggregates."""
    service = _require_readmodel(server)
    service.sync()
    with service.lock:
        return service.model.exam(params["exam_id"]).summary()


def _merge_summaries(server, params, summaries):
    from repro.readmodel.model import merge_summaries

    return merge_summaries(summaries)


def _analytics_analysis(server, params, body, query):
    """The read-model cohort analysis, bit-identical to the live
    ``/exams/{exam_id}/analysis`` over the same journaled history.

    ``?as_of_lsn=N`` / ``?as_of_ts=T`` time-travels: the answer is the
    fold at that journal position, built from the nearest read-model
    checkpoint plus a bounded suffix replay.  LSNs are per-shard
    coordinates, so a sharded deployment only accepts ``as_of_ts``
    (one wall clock spans the fleet; see :func:`_analytics_partial`).
    """
    service = _require_readmodel(server)
    model, as_of_info = _readmodel_at(service, *_as_of_target(query))
    with service.lock:
        payload = analysis_to_dict(model.exam(params["exam_id"]).analysis())
    return _with_as_of(payload, as_of_info)


def _analytics_partial(server, params, body, query):
    """One shard's read-model partial, with its ``as_of`` coordinates
    when the query time-travels (the sharded analysis merges these)."""
    service = _require_readmodel(server)
    lsn, ts = _as_of_target(query)
    if lsn is not None:
        raise ApiError(
            400,
            "bad_request",
            "as_of_lsn is a per-shard coordinate; use as_of_ts "
            "against a cluster",
        )
    model, as_of_info = _readmodel_at(service, None, ts)
    with service.lock:
        partial = model.exam(params["exam_id"]).cohort.partial()
    if as_of_info is not None:
        partial["as_of"] = as_of_info
    return partial


def _blueprint(summary):
    return {"exam_id": summary["exam_id"], "blueprint": summary["blueprint"]}


def _analytics_blueprint(server, params, body, query):
    return _blueprint(_analytics_summary(server, params, body, query))


def _merge_blueprints(server, params, summaries):
    return _blueprint(_merge_summaries(server, params, summaries))


def _analytics_spec_table(server, params, body, query):
    """The static concept × level aggregate (replicated catalog: any
    shard's copy is the fleet's)."""
    service = _require_readmodel(server)
    service.sync()
    with service.lock:
        payload = service.model.exam(params["exam_id"]).spec_table()
    payload["exam_id"] = params["exam_id"]
    return payload


# -- cluster ------------------------------------------------------------------


def _shard_lsns(server, params, body, query):
    """One shard's WAL coordinates for the topology payload."""
    payload = {"shard": server.cluster.shard if server.cluster else ""}
    if server.journal is not None:
        payload["last_lsn"] = server.journal.last_lsn
        payload["durable_lsn"] = server.journal.durable_lsn
    if server.readmodel is not None:
        payload["readmodel_lsn"] = server.readmodel.info()["applied_lsn"]
    return payload


def _not_clustered(server, params, body, query):
    raise ApiError(
        409,
        "invalid_state",
        "this server is not part of a cluster (serve --workers N)",
    )


def _merge_topology(server, params, shards):
    payload = server.cluster.describe()
    lsns = {shard["shard"]: shard for shard in shards}
    for entry in payload["shards"]:
        entry.update(lsns[entry["shard"]])
    return payload


def build_router() -> Router:
    """The service's full route table.

    A *fleet route* is one whose answer or effect spans every shard of
    a cluster.  Each is declared once, by ``fleet`` (cohort reads) or
    ``replicated`` (catalog and admin writes), which also register the
    route's peer leg at ``"/internal" + template``.  Peer legs carry no
    learner affinity (never proxied) and never fan out themselves,
    which is what keeps a scatter from recursing.
    """
    router = Router()

    def fleet(template, name, local, merge, single=None):
        """A cohort read.  One process answers with ``single`` (default
        ``local``).  A shard of a cluster answers with ``merge(server,
        params, payloads)`` over its own ``local`` payload followed by
        every peer's, gathered from the peer leg with the request's
        query string."""
        internal = "/internal" + template
        alone = single or local

        def handler(server, params, body, query):
            if server.cluster is None:
                return alone(server, params, body, query)
            payloads = [local(server, params, body, query)]
            path = internal.format_map(params)
            payloads += server.cluster.gather(
                f"{path}?{query}" if query else path
            )
            return merge(server, params, payloads)

        router.add("GET", template, handler, name)
        router.add("GET", internal, local, "internal." + name)

    def replicated(template, name, apply, merge=None, held=None):
        """A catalog or admin write: ``apply`` it here, then broadcast
        it to every peer's leg.  ``merge(result, peers)`` may fold the
        peer count into a cluster's answer.  ``held(server, body)`` gives
        the record this shard holds when ``apply`` finds the id taken
        (default ``body``): an earlier try applied it here, and its
        broadcast may have failed partway."""
        internal = "/internal" + template

        def handler(server, params, body, query):
            if server.cluster is None:
                return apply(server, params, body, query)
            path = internal.format_map(params)
            raw = json.dumps(body).encode("utf-8")
            try:
                result = apply(server, params, body, query)
            except DuplicateIdError:
                # applied here by an earlier try whose broadcast failed
                # partway: reach the peers it missed with what it
                # applied, which this body may not match (a peer's 409
                # counts as applied), then answer 409 as one process
                # would
                if held is not None:
                    raw = json.dumps(held(server, body)).encode("utf-8")
                server.cluster.broadcast("POST", path, raw)
                raise
            peers = server.cluster.broadcast("POST", path, raw)
            return result if merge is None else merge(result, peers)

        router.add("POST", template, handler, name)
        router.add("POST", internal, apply, "internal." + name)

    router.add("GET", "/healthz", _healthz, "healthz")
    router.add("GET", "/metrics", _metrics, "metrics")
    router.add("GET", "/exams", _list_exams, "exams.list")
    # the catalog is replicated: every shard must know an exam before
    # its learners' requests arrive
    replicated("/exams", "exams.offer", _offer_exam, held=_offered_record)
    router.add("GET", "/exams/{exam_id}", _get_exam, "exams.get")
    router.add("POST", "/learners", _register_learner, "learners.register")
    router.add("GET", "/learners/{learner_id}", _get_learner, "learners.get")
    router.add(
        "POST", "/exams/{exam_id}/enrollments", _enroll, "enrollments.create"
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
    fleet(
        "/exams/{exam_id}/enrollments",
        "enrollments.list",
        _roster,
        _merge_rosters,
    )
    fleet("/exams/{exam_id}/results", "results", _results, _merge_results)
    fleet(
        "/exams/{exam_id}/analysis",
        "analysis",
        _analysis_partial,
        _merge_analysis,
        single=_analysis,
    )
    router.add("GET", "/exams/{exam_id}/report", _report, "report")
    router.add(
        "GET", "/monitor/metrics", _monitor_metrics, "monitor.metrics"
    )
    replicated(
        "/admin/checkpoint", "admin.checkpoint", _checkpoint_now, _count_peers
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
    fleet(
        "/admin/analytics",
        "analytics.overview",
        _analytics_overview,
        _merge_overviews,
    )
    analytics = "/admin/analytics/exams/{exam_id}"
    fleet(analytics, "analytics.summary", _analytics_summary, _merge_summaries)
    fleet(
        analytics + "/analysis",
        "analytics.analysis",
        _analytics_partial,
        _merge_analysis,
        single=_analytics_analysis,
    )
    fleet(
        analytics + "/blueprint",
        "analytics.blueprint",
        _analytics_summary,
        _merge_blueprints,
        single=_analytics_blueprint,
    )
    router.add(
        "GET",
        analytics + "/spec-table",
        _analytics_spec_table,
        "analytics.spec_table",
    )
    fleet(
        "/cluster/topology",
        "cluster.topology",
        _shard_lsns,
        _merge_topology,
        single=_not_clustered,
    )
    return router
