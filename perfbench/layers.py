"""Per-layer metrics of a traced run: spans plus ``/metrics`` counters.

Spans come from ``tracer.py`` in each server process; counters are the
difference between the ``/metrics`` snapshots taken at the start of the
timed window and after it drained.  Server-layer times are for the
workload's answer route (``sittings.answer``; ``sittings.answers_batch``
in ``bulk_sync``), the hot path the learner waits on.  A metric whose
layer the workload never enters reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

US = 1e6
MS = 1e3


class Span:
    __slots__ = ("id", "parent", "rid", "name", "start", "end", "n",
                 "children", "up")

    def __init__(self, row) -> None:
        (self.id, self.parent, self.rid, self.name, self.start, self.end,
         self.n) = row
        self.children: List["Span"] = []
        #: the enclosing span, when it was recorded
        self.up: "Span | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def route(self) -> str:
        return self.rid.split("|", 1)[0]

    def covered(self) -> float:
        """Time within this span that its child spans cover."""
        intervals = sorted((max(c.start, self.start), min(c.end, self.end))
                           for c in self.children)
        total, reach = 0.0, self.start
        for begin, end in intervals:
            begin = max(begin, reach)
            if end > begin:
                total += end - begin
                reach = end
        return total

    def self_time(self) -> float:
        return self.duration - self.covered()


def load_spans(paths: List[str]) -> List[Span]:
    """Every span of every file, children linked within each process."""
    spans: List[Span] = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            document = json.load(stream)
        by_id = {}
        for row in document["spans"]:
            span = Span(row)
            by_id[span.id] = span
            spans.append(span)
        for span in by_id.values():
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.children.append(span)
                span.up = parent
    return spans


def _mean(values) -> Tuple[float, int]:
    values = list(values)
    return (sum(values) / len(values) if values else 0.0), len(values)


def _counter_delta(before, after, prefix: str) -> float:
    total = 0.0
    for conn, snapshot in after.items():
        old = before.get(conn, {}).get("counters", {})
        for key, value in snapshot.get("counters", {}).items():
            if key == prefix or key.startswith(prefix + "{"):
                total += value - old.get(key, 0)
    return total


def _lock_delta(before, after, scope: str, field: str) -> float:
    total = 0.0
    for conn, snapshot in after.items():
        new = snapshot.get("locks", {}).get("scopes", {}).get(scope, {})
        old = before.get(conn, {}).get("locks", {}).get("scopes", {}).get(
            scope, {})
        total += new.get(field, 0) - old.get(field, 0)
    return total


def layer_metrics(name, traffic, timed, window, before, after, answers,
                  span_files, recovery_files) -> Dict[str, tuple]:
    """name -> (value, unit, samples) for every per-layer metric."""
    spans = load_spans(span_files)
    end = max([r.done for r in timed] + [window[1]])
    inside = [s for s in spans if window[0] <= s.start <= end]
    named = defaultdict(list)
    for span in inside:
        named[span.name].append(span)
    answers = answers or 1
    out: Dict[str, tuple] = {}

    def put(metric, value, unit, count):
        out[metric] = (value, unit, count)

    def mean_of(metric, span_name, scale, unit):
        value, count = _mean(s.duration * scale for s in named[span_name])
        put(metric, value, unit, count)

    # server: the answer route's handler and what wraps it
    answer_route = ("sittings.answers_batch" if name == "bulk_sync"
                    else "sittings.answer")
    handlers = [s for s in named["server.handler"]
                if s.route == answer_route]
    value, count = _mean(s.duration * US for s in handlers)
    put("server.handler_us", value, "us", count)
    rids = {s.rid for s in handlers}
    parse = defaultdict(float)
    serialize = defaultdict(float)
    for span in inside:
        if span.rid not in rids:
            continue
        # a body spec validates each element of a list with a nested
        # call: only the outermost validation counts
        if span.name == "server.parse" or (
                span.name == "server.validate"
                and not (span.up and span.up.name == "server.validate")):
            parse[span.rid] += span.duration
        if span.name == "server.serialize":
            serialize[span.rid] += span.duration
    put("server.parse_us", _mean(v * US for v in parse.values())[0], "us",
        len(parse))
    put("server.serialize_us", _mean(v * US for v in serialize.values())[0],
        "us", len(serialize))
    handler_by_rid = defaultdict(list)
    for span in named["server.handler"]:
        handler_by_rid[span.rid].append(span)
    gaps = []
    client_by_rid = defaultdict(list)
    for request in timed:
        if request.rid and request.ok:
            client_by_rid[request.rid].append(request)
    for rid, requests in client_by_rid.items():
        if rid.split("|", 1)[0] != answer_route:
            continue
        served = sorted(handler_by_rid.get(rid, []), key=lambda s: s.start)
        for request, span in zip(sorted(requests, key=lambda r: r.sent),
                                 served):
            gaps.append((request.done - request.sent - span.duration) * US)
    value, count = _mean(gaps)
    put("server.wire_gap_us", value, "us", count)
    put("server.requests_per_answer",
        _counter_delta(before, after, "server.requests") / answers, "count",
        answers)

    # cluster
    requests_total = _counter_delta(before, after, "server.requests")
    proxied = _counter_delta(before, after, "server.proxied")
    put("cluster.proxied_share",
        proxied / requests_total if requests_total else 0.0, "share",
        int(requests_total))
    hops = []
    for span in named["cluster.forward"]:
        owner = [s for s in handler_by_rid.get(span.rid, [])
                 if s.start >= span.start and s.end <= span.end]
        if owner:
            hops.append((span.duration - owner[0].duration) * US)
    value, count = _mean(hops)
    put("cluster.forward_us", value, "us", count)
    mean_of("cluster.gather_ms", "cluster.gather", MS, "ms")
    mean_of("cluster.merge_ms", "cluster.merge", MS, "ms")

    # lms
    answer_span = "lms.answer_batch" if name == "bulk_sync" else "lms.answer"
    value, count = _mean(s.self_time() * US for s in named[answer_span])
    put("lms.answer_self_us", value, "us", count)
    value, count = _mean(s.self_time() * US for s in named["lms.submit"])
    put("lms.submit_self_us", value, "us", count)
    mean_of("lms.start_us", "lms.start", US, "us")
    mean_of("lms.report_ms", "lms.report", MS, "ms")
    for scope, metric in (("shard.exclusive", "shard_exclusive"),
                          ("shard.shared", "shard_shared"),
                          ("sitting", "sitting")):
        put(f"lms.lock_wait_ms.{metric}",
            _lock_delta(before, after, scope, "wait_ms_total"), "ms",
            int(_lock_delta(before, after, scope, "acquisitions")))
    acquired = sum(_lock_delta(before, after, scope, "acquisitions")
                   for scope in ("shard.exclusive", "shard.shared",
                                 "sitting"))
    contended = sum(_lock_delta(before, after, scope, "contended")
                    for scope in ("shard.exclusive", "shard.shared",
                                  "sitting"))
    put("lms.lock_contended_share", contended / acquired if acquired else 0.0,
        "share", int(acquired))

    # delivery, scorm
    mean_of("delivery.grade_us", "delivery.grade", US, "us")
    set_values = named["scorm.set_value"]
    put("scorm.set_value_calls_per_answer", len(set_values) / answers,
        "count", len(set_values))
    put("scorm.us_per_answer",
        sum(s.duration for s in set_values) * US / answers, "us", answers)

    # adaptive
    mean_of("adaptive.record_us", "adaptive.record", US, "us")
    mean_of("adaptive.status_us", "adaptive.status", US, "us")
    lengths = [len(traffic.sequences[learner])
               for learner in traffic.submitted if learner in traffic.sequences]
    value, count = _mean(lengths)
    put("adaptive.items_per_sitting", value, "count", count)

    # core
    folds = named["core.add_sitting"]
    fold_time = sum(s.duration for s in folds + named["core.invalidate"])
    put("core.fold_us", fold_time * US / len(folds) if folds else 0.0, "us",
        len(folds))
    mean_of("core.analysis_ms", "core.analysis", MS, "ms")
    analyses = named["core.analysis"]
    recomputes = sum(1 for s in analyses for c in s.children
                     if c.name == "core.matrix_analyze")
    put("core.analysis_recompute_share",
        recomputes / len(analyses) if analyses else 0.0, "share",
        len(analyses))

    # store
    appends = named["store.append"] + named["store.append_batch"]
    records = sum(s.n for s in appends)
    put("store.append_us_per_record",
        sum(s.duration for s in appends) * US / records if records else 0.0,
        "us", records)
    store = {key: sum(after[c].get("store", {}).get(key, 0)
                      - before.get(c, {}).get("store", {}).get(key, 0)
                      for c in after)
             for key in ("bytes_appended", "records_appended", "fsyncs")}
    put("store.bytes_per_record",
        store["bytes_appended"] / store["records_appended"]
        if store["records_appended"] else 0.0, "B",
        int(store["records_appended"]))
    put("store.fsyncs_per_answer", store["fsyncs"] / answers, "count",
        int(store["fsyncs"]))
    put("store.records_per_fsync",
        store["records_appended"] / store["fsyncs"] if store["fsyncs"]
        else 0.0, "count", int(store["fsyncs"]))
    stalls = [c.duration * MS for s in named["store.checkpoint"]
              for c in s.children if c.name == "store.save_lms"]
    value, count = _mean(stalls)
    put("store.checkpoint_stall_ms", value, "ms", count)
    recoveries = [s for s in load_spans(recovery_files)
                  if s.name == "store.recover"]
    decode, replay, replayed = [], [], []
    for span in recoveries:
        decode.append(sum(c.duration for c in span.children if c.name in (
            "store.load_payload", "store.lms_from_payload")) * MS)
        applied = [c for c in span.children if c.name == "store.apply_event"]
        replay.append(sum(c.duration for c in applied) * MS)
        replayed.append(len(applied))
    put("store.recover_decode_ms", _mean(decode)[0], "ms", len(decode))
    put("store.replay_ms", _mean(replay)[0], "ms", len(replay))
    put("store.replay_records", _mean(replayed)[0], "count", len(replayed))

    # readmodel
    mean_of("readmodel.apply_us", "readmodel.apply", US, "us")
    mean_of("readmodel.sync_ms", "readmodel.sync", MS, "ms")
    lags = [snapshot["readmodel"]["lag"] for snapshot in before.values()
            if snapshot.get("readmodel", {}).get("lag") is not None]
    value, count = _mean(lags)
    put("readmodel.lag_events", value, "count", count)
    select, load, replay_asof = [], [], []
    for span in named["readmodel.as_of"]:
        loads = [c for c in span.children if c.name == "readmodel.load"]
        if loads:
            select.append((loads[0].start - span.start) * MS)
            load.append(loads[0].duration * MS)
            replay_asof.append((span.end - loads[0].end) * MS)
        else:
            select.append(0.0)
            load.append(0.0)
            replay_asof.append(span.duration * MS)
    for metric, values in (("readmodel.asof_select_ms", select),
                           ("readmodel.asof_load_ms", load),
                           ("readmodel.asof_replay_ms", replay_asof)):
        put(metric, _mean(values)[0], "ms", len(values))
    replayed_events = [r.json()["as_of"]["replayed"] for r in timed
                       if r.route == "asof" and r.ok]
    value, count = _mean(replayed_events)
    put("readmodel.asof_replayed_events", value, "count", count)
    mean_of("readmodel.checkpoint_ms", "readmodel.checkpoint", MS, "ms")

    # the outside-in baseline: handler time no layer span accounts for
    for label, route in (("answer", "sittings.answer"),
                         ("next_item", "sittings.next_item"),
                         ("submit", "sittings.submit"),
                         ("upload", "sittings.answers_batch")):
        chosen = [s for s in named["server.handler"] if s.route == route]
        total = sum(s.duration for s in chosen)
        uncovered = sum(s.self_time() for s in chosen)
        put(f"trace.unattributed_share.{label}",
            uncovered / total if total else 0.0, "share", len(chosen))
    return out
