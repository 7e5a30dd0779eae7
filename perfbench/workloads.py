"""The benchmark's three workloads: fixed parameters, traffic, checks.

Every rate, cohort size, K and cadence below was chosen once, on a
2-CPU host, and is never derived at run time: a faster program is
offered exactly the same open-loop load.  Inputs come from the
``repro.sim`` generators and ``--seed``; the server sees only the HTTP
requests built here.

* ``classroom`` (open loop): one ``serve`` process, WAL at the default
  ``fsync=interval``, fixed-form ``classroom_exam(20)``.  Learners
  start in waves and post one answer per item, then submit, pipelined
  on one connection; on the other an instructor reads the live item
  analysis and the full §4 report.
* ``adaptive_fleet`` (open loop): ``serve --workers 2``.  Learners run
  ``next-item`` -> ``answer`` until done, then submit.  One connection
  per worker's direct port, learners split across them by index, so the
  hash ring (not the kernel) decides the proxied share (about 1/2).
* ``bulk_sync`` (closed loop): ``serve --fsync always --group-commit
  --readmodel``.  Two uploaders post whole sittings as ``answers:batch``
  chunks of K (``submit: true`` on the last), an admin checkpoint runs
  every ``checkpoint_every`` sittings, and the instructor reads the
  read-model analysis and ``as_of_ts`` analyses of instants recorded
  earlier in the same checkpoint cycle.  A closed loop finishes
  sittings as fast as the server acknowledges them, so uploaders cycle
  through the cohort and a learner may re-sit; the cohort analysis
  counts each learner's latest sitting, as the LMS does.  The
  uploaders' other chunks overlap, but their submitting chunks take
  turns: the program journals a submit only after committing it to the
  live cohort, so two in flight at once may be journaled in the other
  order, and the journal-fed analyses then differ from the live one
  (NOTES.md, "What the checks found").
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from typing import Dict, List, Optional, Tuple

from client import Request, clock

# The open-loop rates sit well under what each connection layout
# carries.  ``capacity.py`` measured it closed loop, same layout and
# instructor reads, three times on a 2-vCPU host: 1813-2395 answers/s
# for classroom, which is offered 240 (at most 0.13 of it), and 273-610
# answers/s for adaptive_fleet, which is offered 60 (at most 0.22).
CLASSROOM = {
    "kind": "open",
    "items": 20,
    "cohort": 240,
    "wave_size": 12,
    "wave_every_s": 1.0,
    "stagger_s": 0.01,
    "answer_every_s": 0.16,
    "learner_connections": 1,
    "analysis_every_s": 0.125,
    "report_every_s": 0.125,
    "warmup_s": 4.0,
    "recoveries": 3,
    "fsync": "interval",
}

ADAPTIVE_FLEET = {
    "kind": "open",
    "pool": 40,
    "max_items": 10,
    "workers": 2,
    "cohort": 240,
    "wave_size": 6,
    "wave_every_s": 1.0,
    "stagger_s": 0.02,
    "step_every_s": 0.2,
    "analysis_every_s": 0.125,
    "warmup_s": 4.0,
    # the watchdog looks for dead workers every 0.25 s: more kills
    # keep that phase out of the median
    "recoveries": 9,
    "fsync": "interval",
}

BULK_SYNC = {
    "kind": "closed",
    "items": 20,
    "batch": 5,
    "uploaders": 2,
    "cohort": 200,
    "checkpoint_every": 50,
    "analytics_every": 3,
    "instant_at": 10,
    "asof_at": (20, 24, 28, 32, 36, 40, 44),
    # long enough for every learner of the cohort to have submitted,
    # so read-model and checkpoint sizes have levelled off
    "warmup_s": 4.0,
    # a closed loop's memory grows with the sittings it finishes, so its
    # peak is read after a fixed number of them, not at the end
    "rss_at_sittings": 200,
    "recoveries": 3,
    "fsync": "always",
    "group_commit": True,
}

WORKLOADS = {
    "classroom": CLASSROOM,
    "adaptive_fleet": ADAPTIVE_FLEET,
    "bulk_sync": BULK_SYNC,
}


def offered_rate(name: str) -> Optional[float]:
    """Answers per second the open-loop schedule offers, at most
    (None for the closed loop, which offers what the server takes)."""
    params = WORKLOADS[name]
    if name == "classroom":
        return params["wave_size"] * params["items"] / params["wave_every_s"]
    if name == "adaptive_fleet":
        return params["wave_size"] * params["max_items"] / params[
            "wave_every_s"]
    return None


class Traffic:
    """Inputs and client-side record of one workload run."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.sim.population import make_population
        from repro.sim.workloads import (
            classroom_adaptive_exam,
            classroom_exam,
            classroom_parameters,
        )

        self.name = name
        self.params = WORKLOADS[name]
        self.seed = seed
        if name == "adaptive_fleet":
            pool = self.params["pool"]
            self.exam = classroom_adaptive_exam(
                pool, max_items=self.params["max_items"]
            )
            self.item_parameters = classroom_parameters(pool)
        else:
            self.exam = classroom_exam(self.params["items"])
            self.item_parameters = classroom_parameters(self.params["items"])
        self.exam_id = self.exam.exam_id
        self.cohort = make_population(self.params["cohort"], seed=seed)
        self.by_id = {learner.learner_id: learner for learner in self.cohort}
        #: learner -> attempt -> {item: selection}
        self._scripts: Dict[Tuple[str, int], Dict[str, str]] = {}
        #: learner -> items whose answer was acknowledged, open sitting
        self.acked: Dict[str, List[str]] = {}
        #: learner -> attempt of its latest acknowledged submit
        self.submitted: Dict[str, int] = {}
        #: learner -> attempt in progress
        self.attempt: Dict[str, int] = {}
        #: learner -> items the server chose, in order (adaptive)
        self.sequences: Dict[str, List[str]] = {}
        #: (LMS-clock instant, live analysis at that instant)
        self.instants: List[Tuple[float, object]] = []
        #: (instant, served as_of analysis)
        self.asof_answers: List[Tuple[float, object]] = []
        #: set by the runner: resumes an agent that yielded None
        self.wake = None
        #: set by the runner: the journal directory of the loaded server
        self.wal_dir = None
        #: set by the runner: asks the server for its peak memory so far
        self.rss_point = None
        self._read_lsn = 0
        self._high_water = 0.0
        #: learners of the journal's submit events, in log order, and
        #: whether every record was read (none retired unread)
        self._journal_submits: List[str] = []
        self._journal_whole = True
        #: instant -> submits in the journal at that instant
        self.instant_submits: Dict[float, int] = {}
        #: (start, end) of each span during which every uploader was
        #: parked while an instant was recorded (bulk_sync)
        self.pauses: List[Tuple[float, float]] = []

    # -- inputs ----------------------------------------------------------------

    def script(self, learner_id: str, attempt: int = 0) -> Dict[str, str]:
        """The learner's selection for every item, seeded per attempt."""
        key = (learner_id, attempt)
        script = self._scripts.get(key)
        if script is None:
            from repro.sim.learner_model import ItemParameters, sample_selection

            rng = random.Random(f"{self.seed}:{learner_id}:{attempt}")
            learner = self.by_id[learner_id]
            script = {}
            for item, spec in zip(
                self.exam.analyzable_items(), self.exam.question_specs()
            ):
                script[item.item_id] = sample_selection(
                    rng, learner,
                    self.item_parameters.get(item.item_id, ItemParameters()),
                    spec.options, spec.correct,
                )
            self._scripts[key] = script
        return script

    def journal_high_water(self) -> float:
        """The newest event stamp in the server's journal: an instant on
        the LMS clock (which starts near 0 at boot) after every write
        acknowledged so far.  Reads only the records after the last
        call's."""
        from repro.store.events import event_timestamp
        from repro.store.journal import read_records

        for record in read_records(self.wal_dir, start_lsn=self._read_lsn):
            if record.lsn != self._read_lsn + 1:
                self._journal_whole = False
            self._read_lsn = record.lsn
            self._high_water = max(self._high_water, event_timestamp(
                record.type, record.data))
            if record.type == "submit":
                self._journal_submits.append(record.data["learner_id"])
        return self._high_water

    def sitting(self, learner_id: str) -> str:
        return f"/exams/{self.exam_id}/sittings/{learner_id}"

    # -- set-up ----------------------------------------------------------------

    def setup_agents(self, connections: int):
        """Register and enroll the cohort, 4 requests deep per connection."""
        lanes = connections * 4

        def lane(index: int):
            for learner in self.cohort[index::lanes]:
                body = {"learner_id": learner.learner_id}
                for path in ("/learners", f"/exams/{self.exam_id}/enrollments"):
                    done = yield Request(
                        "POST", path, body, route="setup",
                        conn=index % connections,
                    )
                    if done.status != 201:
                        raise RuntimeError(
                            f"set-up {path} answered {done.status}"
                        )

        return [lane(index) for index in range(lanes)]

    # -- load ------------------------------------------------------------------

    def load_agents(self, t0: float, connections: int) -> list:
        if self.params["kind"] == "open":
            return self._waves(t0, connections)
        return self._bulk(connections)

    def _acknowledge(self, learner_id: str, request: Request,
                     items: List[str]) -> None:
        if request.ok:
            self.acked.setdefault(learner_id, []).extend(items)

    def _submitted(self, learner_id: str, request: Request) -> None:
        if request.ok:
            self.submitted[learner_id] = self.attempt.get(learner_id, 0)
            self.acked.pop(learner_id, None)

    def classroom_learner(self, learner_id: str, conn: int,
                          start: Optional[float], attempt: int = 0):
        """One fixed-form sitting: start, one answer per item, submit.
        Paced from ``start`` (open loop), or with ``start=None`` each
        step sent as soon as the previous one is answered."""
        every = self.params["answer_every_s"]

        def due(step: int) -> Optional[float]:
            return None if start is None else start + step * every

        base = self.sitting(learner_id)
        script = self.script(learner_id, attempt)
        self.attempt[learner_id] = attempt
        items = [item.item_id for item in self.exam.analyzable_items()]
        done = yield Request("POST", base + "/start", route="start",
                             rid=f"sittings.start|{learner_id}|#{attempt}",
                             conn=conn, due=due(0))
        if not done.ok:
            return
        for step, item_id in enumerate(items, 1):
            done = yield Request(
                "POST", base + "/answer",
                {"item_id": item_id, "response": script[item_id]},
                route="answer",
                rid=f"sittings.answer|{learner_id}|{item_id}#{attempt}",
                conn=conn, due=due(step),
            )
            self._acknowledge(learner_id, done, [item_id])
        done = yield Request(
            "POST", base + "/submit", route="submit",
            rid=f"sittings.submit|{learner_id}|#{attempt}",
            conn=conn, due=due(len(items) + 1),
        )
        self._submitted(learner_id, done)

    def fleet_learner(self, learner_id: str, conn: int,
                      start: Optional[float], attempt: int = 0):
        """One adaptive sitting: start, ``next-item`` -> ``answer`` until
        done, submit.  Each step is due ``step_every_s`` after the last
        (open loop), or with ``start=None`` sent when ready."""
        every = self.params["step_every_s"]
        base = self.sitting(learner_id)
        script = self.script(learner_id, attempt)
        self.attempt[learner_id] = attempt
        sequence = self.sequences[learner_id] = []
        done = yield Request("POST", base + "/start", route="start",
                             rid=f"sittings.start|{learner_id}|#{attempt}",
                             conn=conn, due=start)
        if not done.ok:
            return
        for step in range(len(script) + 1):
            done = yield Request(
                "GET", base + "/next-item", route="next_item",
                rid=f"sittings.next_item|{learner_id}|#{step}",
                conn=conn,
                due=None if start is None else start + (step + 1) * every,
            )
            if not done.ok:
                return
            status = done.json()
            if status["done"]:
                break
            item_id = status["item_id"]
            sequence.append(item_id)
            done = yield Request(
                "POST", base + "/answer",
                {"item_id": item_id, "response": script[item_id]},
                route="answer",
                rid=f"sittings.answer|{learner_id}|{item_id}#{attempt}",
                conn=conn,
            )
            self._acknowledge(learner_id, done, [item_id])
            if not done.ok:
                return
        done = yield Request("POST", base + "/submit", route="submit",
                             rid=f"sittings.submit|{learner_id}|#{attempt}",
                             conn=conn)
        self._submitted(learner_id, done)

    def learner_conn(self, index: int, connections: int) -> int:
        """The connection learner ``index`` of the cohort uses."""
        return index % self.params.get("learner_connections", connections)

    def instructor(self, t0: float, connections: int):
        """The instructor's periodic reads, from ``t0`` on, for ever."""
        p = self.params
        if self.name == "classroom":
            return self._instructor(t0, conn=1, reads=[
                ("analysis", f"/exams/{self.exam_id}/analysis",
                 p["analysis_every_s"], 0.05),
                ("report", f"/exams/{self.exam_id}/report",
                 p["report_every_s"], 0.1125),
            ])
        return self._instructor(
            t0, conn=lambda index: index % connections,
            reads=[("analysis", f"/exams/{self.exam_id}/analysis",
                    p["analysis_every_s"], 0.1)],
        )

    def _instructor(self, t0: float, conn, reads):
        """Periodic reads, merged in due order into one sequential agent.

        ``reads`` holds ``(route, path, every_s, offset_s)``; ``conn`` is
        a connection index or a function of the read's position.
        """
        def periodic(route, path, every, offset):
            for k in itertools.count():
                yield t0 + offset + k * every, route, path

        def agent():
            schedule = heapq.merge(*(periodic(*read) for read in reads))
            for index, (due, route, path) in enumerate(schedule):
                yield Request(
                    "GET", path, route=route,
                    conn=conn if isinstance(conn, int) else conn(index),
                    due=due,
                )

        return agent()

    def _waves(self, t0: float, connections: int) -> list:
        """The open-loop cohort: learners start in waves, plus the
        instructor."""
        p = self.params
        learner = (self.classroom_learner if self.name == "classroom"
                   else self.fleet_learner)
        agents = []
        for index, member in enumerate(self.cohort):
            wave, slot = divmod(index, p["wave_size"])
            start = t0 + wave * p["wave_every_s"] + slot * p["stagger_s"]
            agents.append(learner(member.learner_id,
                                  self.learner_conn(index, connections),
                                  start))
        agents.append(self.instructor(t0, connections))
        return agents

    def _bulk(self, connections: int) -> list:
        p = self.params
        items = [item.item_id for item in self.exam.analyzable_items()]
        k = p["batch"]
        analytics = f"/admin/analytics/exams/{self.exam_id}/analysis"
        live = f"/exams/{self.exam_id}/analysis"
        state = {"pause": False, "parked": [], "waiter": None, "count": 0,
                 "submitting": None, "queued": []}
        agents: list = []

        def park(me) -> bool:
            """While an instant is being recorded, uploaders hold still."""
            if not state["pause"] or state["waiter"] is me:
                return False
            state["parked"].append(me)
            if len(state["parked"]) == len(agents) - 1 and state["waiter"]:
                self.wake(state["waiter"])
            return True

        def submit_taken(me) -> bool:
            """One submitting chunk in flight at a time (see NOTES.md:
            the program journals a submit after committing it live)."""
            if state["submitting"] is None:
                state["submitting"] = me
                return False
            state["queued"].append(me)
            return True

        def submit_done() -> None:
            state["submitting"] = None
            if state["queued"]:
                self.wake(state["queued"].pop(0))

        def uploader(index: int):
            me = agents[index]
            lane = self.cohort[index::connections]
            turn = 0
            while True:
                learner_id = lane[turn % len(lane)].learner_id
                attempt = turn // len(lane)
                turn += 1
                self.attempt[learner_id] = attempt
                script = self.script(learner_id, attempt)
                base = self.sitting(learner_id)
                if park(me):
                    yield None
                done = yield Request("POST", base + "/start", route="start",
                                     rid=f"sittings.start|{learner_id}|#"
                                         f"{attempt}", conn=index)
                if not done.ok:
                    return
                for begin in range(0, len(items), k):
                    chunk = items[begin:begin + k]
                    last = begin + k >= len(items)
                    body = {"answers": [
                        {"item_id": item_id, "response": script[item_id]}
                        for item_id in chunk
                    ]}
                    if last:
                        body["submit"] = True
                    if park(me):
                        yield None
                    while last and submit_taken(me):
                        yield None
                    done = yield Request(
                        "POST", base + "/answers:batch", body,
                        route="chunk_submit" if last else "chunk",
                        rid=f"sittings.answers_batch|{learner_id}|{chunk[0]}"
                            f"#{attempt}",
                        conn=index,
                    )
                    if last:
                        submit_done()
                    if not done.ok:
                        return
                    self._acknowledge(learner_id, done, chunk)
                self._submitted(learner_id, done)
                state["count"] += 1
                if state["count"] == p["rss_at_sittings"]:
                    self.rss_point()
                position = state["count"] % p["checkpoint_every"]
                if park(me):
                    yield None
                if state["count"] % p["analytics_every"] == 0:
                    yield Request("GET", analytics, route="analysis",
                                  conn=index)
                if position == 0:
                    yield Request("POST", "/admin/checkpoint",
                                  route="checkpoint", conn=index)
                elif position == p["instant_at"]:
                    # quiesce the other uploaders, then read the live
                    # analysis at an instant after every acknowledged
                    # write and before any later one
                    state["pause"] = True
                    state["waiter"] = me
                    if len(state["parked"]) < len(agents) - 1:
                        yield None
                    paused = clock()
                    instant = self.journal_high_water()
                    done = yield Request("GET", live, route="live_analysis",
                                         conn=index)
                    if done.ok:
                        self.instants.append((instant, done.json()))
                        self.instant_submits[instant] = len(
                            self._journal_submits)
                    state["pause"] = False
                    state["waiter"] = None
                    parked, state["parked"] = state["parked"], []
                    self.pauses.append((paused, clock()))
                    for agent in parked:
                        self.wake(agent)
                elif position in p["asof_at"] and self.instants:
                    instant, _ = self.instants[-1]
                    done = yield Request(
                        "GET", f"{analytics}?as_of_ts={instant!r}",
                        route="asof", conn=index,
                    )
                    if done.ok:
                        self.asof_answers.append((instant, done.json()))

        agents.extend([None] * connections)
        for index in range(connections):
            agents[index] = uploader(index)
        return agents

    # -- checks ----------------------------------------------------------------

    def expected_analysis(self, results: List[dict], canonical: bool):
        """Local ``analyze_cohort`` over the posted selections, in the
        server's submission order (latest sitting per learner), or in
        learner-id order for a scatter-gathered cohort."""
        from repro.core.question_analysis import ExamineeResponses, analyze_cohort
        from repro.server.serialize import analysis_to_dict

        latest: Dict[str, None] = {}
        for graded in results:
            latest.pop(graded["learner_id"], None)
            latest[graded["learner_id"]] = None
        order = sorted(latest) if canonical else list(latest)
        item_ids = [item.item_id for item in self.exam.analyzable_items()]
        responses = []
        for learner_id in order:
            script = self.script(learner_id, self.submitted.get(learner_id, 0))
            administered = self.sequences.get(learner_id)
            responses.append(ExamineeResponses.of(learner_id, [
                script[item_id]
                if administered is None or item_id in administered else None
                for item_id in item_ids
            ]))
        local = analyze_cohort(responses, self.exam.question_specs())
        return json.loads(json.dumps(analysis_to_dict(local)))

    def check_results(self, results: List[dict], statuses) -> List[str]:
        """Every acknowledged submit and answer is in the served state.

        ``statuses(learner_id)`` returns the served sitting status of a
        learner whose sitting was still open when load stopped.
        """
        failures = []
        latest = {}
        for graded in results:
            latest[graded["learner_id"]] = graded
        for learner_id, attempt in self.submitted.items():
            graded = latest.get(learner_id)
            if graded is None:
                failures.append(f"acknowledged submit of {learner_id} lost")
                continue
            script = self.script(learner_id, attempt)
            administered = self.sequences.get(learner_id)
            for item_id, score in graded["scores"].items():
                if administered is not None and item_id not in administered:
                    continue
                if score["selected"] != script[item_id]:
                    failures.append(
                        f"{learner_id} {item_id}: served "
                        f"{score['selected']!r}, posted {script[item_id]!r}"
                    )
                    break
        if len(latest) != len(self.submitted):
            failures.append(
                f"{len(latest)} learners graded, {len(self.submitted)} "
                f"submits acknowledged"
            )
        for learner_id, items in self.acked.items():
            answered = statuses(learner_id)
            if answered is None or not set(items) <= set(answered):
                failures.append(
                    f"acknowledged answers of open sitting {learner_id} lost"
                )
        return failures

    def check_sequences(self) -> List[str]:
        """Each adaptive item sequence equals a local replay of the
        learner's responses over the exam's information table."""
        from repro.adaptive.online import AdaptiveSession, ItemInformationTable

        policy = self.exam.adaptive
        table = ItemInformationTable.build(
            policy.pool_for(self.exam),
            grid_points=policy.grid_points,
            grid_half_width=policy.grid_half_width,
            prior_sd=policy.prior_sd,
        )
        keys = {item.item_id: item.correct_label
                for item in self.exam.analyzable_items()}
        failures = []
        for learner_id, served in self.sequences.items():
            session = AdaptiveSession.for_exam(table, policy)
            script = self.script(learner_id)
            replayed = []
            for item_id in served:
                expected = session.next_item()
                replayed.append(expected)
                if expected is None:
                    break
                session.record(expected, script[expected] == keys[expected])
            if learner_id in self.submitted:
                replayed.append(session.next_item())
                served = served + [None]
            if replayed != served:
                failures.append(
                    f"{learner_id}: served {served}, replay {replayed}"
                )
        return failures

    def check_instants(self, results: List[dict]) -> List[str]:
        """``as_of_ts`` at each recorded instant equals the live
        analysis read at that instant.

        A mismatch also says whether the journal logged the submits up
        to the instant in the order the live cohort committed them
        (``results``, the served graded sittings, is in commit order).
        """
        live = dict(self.instants)
        committed = [graded["learner_id"] for graded in results]
        failures = []
        for instant in sorted({instant for instant, served
                               in self.asof_answers
                               if served.get("analysis") != live[instant]}):
            note = ""
            if self._journal_whole:
                journaled = self._journal_submits[
                    :self.instant_submits[instant]]
                note = "; journal and commit order of submits agree"
                for k, (logged, made) in enumerate(zip(journaled, committed)):
                    if logged != made:
                        note = (f"; submit {k}: journal has {logged}, "
                                f"commit order {made}")
                        break
            failures.append(f"as_of_ts={instant!r} differs from live{note}")
        return failures
