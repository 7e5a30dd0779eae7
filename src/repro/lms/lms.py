"""The learning management system (paper §2.4, §5).

The LMS glues the substrate together: course (exam) offerings and
enrollment, the SCORM run-time environment and API, the delivery session
machine, the tracking service, and the on-line exam monitor.  A sitting
driven through :class:`LmsSitting` exercises the same call sequence a
browser SCO would: launch → ``LMSInitialize`` → answers recorded both in
the session and as ``cmi.interactions.n.*`` → ``LMSCommit`` →
``LMSFinish``, with monitor captures along the way.  Each step is coded
once: :meth:`Lms._open_sitting` opens every sitting, for
:meth:`Lms.start_exam` and checkpoint restore alike, and
:meth:`Lms.answer` is the one-answer case of the loop
:meth:`Lms.answer_batch` runs, whose checks live only in
:meth:`~repro.delivery.session.ExamSession.answer_all`.

**Durability** (:mod:`repro.store`): when a :class:`~repro.store.
journal.Journal` is attached (``Lms(journal=...)`` or
:meth:`Lms.attach_journal`), every public mutator appends one event to
the write-ahead log while still holding its sitting's lock, after the
mutation succeeded — so the log's per-sitting LSN order *is* the
serialization of that sitting's history (events on different sittings
commute), and :func:`repro.store.recover` can rebuild this exact state
by replaying it.  To make replay bit-identical, each mutator samples
the clock **once** and threads that timestamp through every clock-
dependent effect (session timing, tracking, monitor schedule).

**Concurrency** (:mod:`repro.lms.locks`): the old coarse ``RLock`` is
now a :class:`~repro.lms.locks.ShardLock`.  ``with lms.lock:`` still
quiesces the whole LMS (snapshots, checkpoints, fingerprints), but the
per-learner hot paths — answer, batch, suspend, resume, submit — take
it in *shared* mode plus the sitting's own lock, so a slow submit
cannot stall unrelated learners.  Structural mutations (offer,
register, enroll, start) stay exclusive.  Shared result structures
(``_results``, the exams' cohort folds, learner records) are guarded
by a small ``_commit_lock`` held only for the final appends of a submit
and its journal write, so the log holds submits in the order they
committed; a group commit's fsync wait comes after the lock is released.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.errors import (
    DuplicateIdError,
    NotFoundError,
    ResponseError,
    SessionStateError,
)
from repro.core.grouping import GroupSplit
from repro.core.rules import DEFAULT_SPREAD_THRESHOLD
from repro.core.signals import DEFAULT_POLICY, SignalPolicy
from repro.core.question_analysis import (
    CohortAnalysis,
    ExamineeResponses,
    analyze_cohort,
)
from repro.core.report import AssessmentReport, build_report
from repro.delivery.clock import Clock, WallClock
from repro.delivery.scoring import (
    ExamCohort,
    GradedSitting,
    grade_session,
    sittings_to_responses,
)
from repro.delivery.session import ExamSession, SessionState
from repro.exams.exam import Exam
from repro.items.responses import ScoredResponse
from repro.lms.learners import Learner, LearnerRegistry
from repro.lms.locks import InstrumentedRLock, LockStats, ShardLock
from repro.lms.monitor import ExamMonitor
from repro.lms.tracking import EventKind, TrackingService
from repro.scorm.api import ApiAdapter
from repro.scorm.rte import RunTimeEnvironment
from repro.store import events as store_events

if TYPE_CHECKING:  # pragma: no cover - adaptive imports stay lazy at runtime
    from repro.adaptive.online import AdaptiveSession, ItemInformationTable
    from repro.sim.learner_model import ItemParameters

__all__ = ["Lms", "LmsSitting"]


@dataclass
class LmsSitting:
    """A learner's in-flight sitting: the delivery session plus its SCORM
    API instance, managed by the LMS, which builds every one in
    :meth:`Lms._open_sitting`."""

    session: ExamSession
    api: ApiAdapter
    #: this sitting's own lock, counted in the LMS's ``LockStats``: two
    #: requests for the *same* sitting serialize here while unrelated
    #: sittings proceed concurrently
    lock: InstrumentedRLock = field(repr=False, compare=False)
    interaction_count: int = 0
    #: item ids in this learner's presentation order (set at start)
    item_order: List[str] = field(default_factory=list)
    #: the online CAT state machine when the exam carries an adaptive
    #: policy; None for fixed exams.  Holds a reference to the
    #: information table it was started with, so an in-flight sitting is
    #: never switched mid-exam by a calibration swap.
    adaptive: "Optional[AdaptiveSession]" = None

    @property
    def learner_id(self) -> str:
        """The sitting learner's id."""
        return self.session.learner_id

    @property
    def exam_id(self) -> str:
        """The exam being sat."""
        return self.session.exam.exam_id


class Lms:
    """The learning management system."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        monitor: Optional[ExamMonitor] = None,
        journal=None,
    ) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.learners = LearnerRegistry()
        self.tracking = TrackingService()
        self.monitor = monitor if monitor is not None else ExamMonitor()
        self.rte = RunTimeEnvironment()
        #: optional :class:`repro.store.journal.Journal`; when set, every
        #: public mutator appends one event under :attr:`lock` (see
        #: :meth:`attach_journal`)
        self.journal = journal
        #: per-scope lock contention counters, served under ``"locks"``
        #: in the server's ``/metrics``
        self.lock_stats = LockStats()
        #: the shard-level lock guarding the LMS's shared structures.
        #: ``with lms.lock:`` takes it **exclusively** — the world is
        #: quiesced, exactly the old coarse-``RLock`` semantics (hold it
        #: yourself to make a multi-call sequence atomic, e.g. reading
        #: the journal LSN and :func:`repro.lms.persistence.collect_payload`
        #: in one critical section, as checkpoints do).
        #: Hot paths take :meth:`ShardLock.shared` plus the sitting's
        #: own lock instead, so unrelated learners proceed in parallel.
        self.lock = ShardLock(self.lock_stats)
        #: guards _results, _cohorts, and learner progress records during
        #: shared-mode submits (exclusive holders exclude it implicitly)
        self._commit_lock = threading.Lock()
        self._exams: Dict[str, Exam] = {}
        self._enrollment: Dict[str, set] = {}  # exam_id -> learner ids
        #: per adaptive exam: the current precomputed information table
        #: (built at offer time, rebuilt by a calibration swap) — the
        #: online hot path does zero IRT math, only table lookups
        self._adaptive_tables: Dict[str, "ItemInformationTable"] = {}
        #: per adaptive exam: (version, parameter overlay) of the newest
        #: applied calibration; version 0 = authored/seeded parameters
        self._calibrations: Dict[
            str, Tuple[int, Dict[str, "ItemParameters"]]
        ] = {}
        self._sittings: Dict[Tuple[str, str], LmsSitting] = {}
        self._results: Dict[str, List[GradedSitting]] = {}
        #: per exam: the cohort aggregates every submit folds into
        self._cohorts: Dict[str, ExamCohort] = {}

    # -- durability ---------------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Start journaling every mutation to ``journal``.

        Recovery replays a WAL into a journal-less LMS first, then
        attaches — otherwise every replayed event would be re-logged.
        """
        with self.lock:
            self.journal = journal

    def _emit(self, type_: str, *values: object) -> None:
        """Append one ``type_`` event of ``values`` (see
        :func:`repro.store.events.event`) to the attached journal (no-op
        without one).

        Called after the mutation succeeded, while still holding the
        locks that serialized it, so per-sitting LSN order is the
        authoritative serialization of that sitting's history.  Batches
        and submits go through :meth:`_write_submit` or
        :meth:`~repro.store.journal.Journal.append_batch` instead.
        """
        if self.journal is not None:
            self.journal.append(type_, store_events.event(type_, *values))

    def _log(
        self,
        kind: EventKind,
        type_: str,
        learner_id: str,
        exam_id: str,
        now: float,
    ) -> None:
        """Track ``kind`` and journal ``type_`` for one learner, exam and
        instant: the last step of enroll, start, suspend, resume and
        capture_frame."""
        self.tracking.record(kind, learner_id, exam_id, now)
        self._emit(type_, learner_id, exam_id, now)

    def _write_submit(self, events: List[Tuple[str, dict]]) -> int:
        """Write ``events``, which end with a ``submit``, to the journal
        now as one write; returns the last LSN (0 without a journal).

        Called under ``_commit_lock``, so the log holds submits in the
        order they joined ``_results``.  The caller passes the LSN to
        :meth:`~repro.store.journal.Journal.commit` after releasing the
        lock, so under ``fsync="always"`` no reader of the results waits
        on a disk flush.
        """
        if self.journal is None:
            return 0
        return self.journal.write(events)

    # -- catalog & enrollment ---------------------------------------------------

    def offer_exam(self, exam: Exam) -> None:
        """Publish an exam as a course offering."""
        with self.lock:
            if exam.exam_id in self._exams:
                raise DuplicateIdError(
                    f"exam {exam.exam_id!r} already offered"
                )
            exam.validate()
            self._exams[exam.exam_id] = exam
            self._enrollment[exam.exam_id] = set()
            # fold the results already held: those of a withdrawn exam
            # offered again, or those a checkpoint restored
            cohort = self._cohorts[exam.exam_id] = ExamCohort(exam)
            for graded in self._results.get(exam.exam_id, ()):
                cohort.fold(graded.learner_id, graded.scores)
            if exam.adaptive is not None:
                # install-time precompute: every per-request selection and
                # ability update from here on is a table lookup
                self._adaptive_tables[exam.exam_id] = self._build_table(
                    exam, version=0, overlay=None
                )
            if self.journal is not None:
                from repro.bank.exambank import exam_to_record

                self._emit("offer", exam_to_record(exam))

    def exam(self, exam_id: str) -> Exam:
        """The offered exam with this id; NotFoundError otherwise."""
        with self.lock.shared():
            try:
                return self._exams[exam_id]
            except KeyError:
                raise NotFoundError(f"no exam {exam_id!r} offered") from None

    def offered_exams(self) -> List[str]:
        """Every offered exam id, in offering order."""
        with self.lock.shared():
            return list(self._exams)

    def register_learner(self, learner: Learner) -> None:
        """Add a learner to the registry."""
        with self.lock:
            self.learners.register(learner)
            self._emit(
                "register", learner.learner_id, learner.name, learner.email
            )

    def enroll(self, learner_id: str, exam_id: str) -> None:
        """Enroll a registered learner in an offered exam."""
        with self.lock:
            now = self.clock.now()
            learner = self.learners.get(learner_id)  # existence check
            exam = self.exam(exam_id)
            learner_id, exam_id = learner.learner_id, exam.exam_id
            self._enrollment[exam_id].add(learner_id)
            self._log(EventKind.ENROLLED, "enroll", learner_id, exam_id, now)

    def enrolled(self, exam_id: str) -> List[str]:
        """Sorted learner ids enrolled in an exam."""
        with self.lock.shared():
            return sorted(self._enrollment.get(exam_id, ()))

    # -- adaptive testing ---------------------------------------------------------

    def _build_table(
        self,
        exam: Exam,
        version: int,
        overlay: "Optional[Dict[str, ItemParameters]]",
    ) -> "ItemInformationTable":
        """The exam's information table: seeded pool + calibration overlay."""
        from repro.adaptive.online import ItemInformationTable

        policy = exam.adaptive
        pool = policy.pool_for(exam)
        if overlay:
            pool.update(overlay)
        return ItemInformationTable.build(
            pool,
            grid_points=policy.grid_points,
            grid_half_width=policy.grid_half_width,
            prior_sd=policy.prior_sd,
            version=version,
        )

    def next_item(self, learner_id: str, exam_id: str) -> Dict[str, object]:
        """The adaptive policy's choice for this sitting, as a payload.

        Read-only (derived state — not journaled): the selection is a
        deterministic function of the sitting's recorded answers, so
        replay re-derives it.  Raises ``SessionStateError`` for fixed
        exams — the route 409s instead of pretending an order exists.
        """
        with obs.span("lms.next_item", exam_id=exam_id), self.lock.shared():
            sitting = self.sitting(learner_id, exam_id)
            with sitting.lock:
                if sitting.adaptive is None:
                    raise SessionStateError(
                        f"exam {exam_id!r} is not adaptive: it has no "
                        f"adaptive policy"
                    )
                return sitting.adaptive.status()

    def calibration_version(self, exam_id: str) -> int:
        """The installed calibration version (0 = authored seeds)."""
        with self.lock.shared():
            return self._calibrations.get(exam_id, (0, None))[0]

    def apply_calibration(
        self,
        exam_id: str,
        version: int,
        parameters: "Dict[str, ItemParameters]",
    ) -> None:
        """Hot-swap an adaptive exam's item parameters (journaled).

        The new table takes effect for sittings **started after** the
        swap.  To keep recovery bit-identical the swap is refused while
        the exam has open adaptive sittings — a sitting must never see
        two tables — and versions must be strictly increasing (replay
        applies the same swaps in the same order, rebuilding the same
        tables).
        """
        from repro.adaptive import online

        with self.lock:
            now = self.clock.now()
            exam = self.exam(exam_id)
            if exam.adaptive is None:
                raise SessionStateError(
                    f"exam {exam_id!r} has no adaptive policy to calibrate"
                )
            current = self._calibrations.get(exam_id, (0, None))[0]
            if int(version) <= current:
                raise SessionStateError(
                    f"calibration v{version} of {exam_id!r} is not newer "
                    f"than the installed v{current}"
                )
            pool_ids = set(exam.adaptive.pool_for(exam))
            unknown = sorted(set(parameters) - pool_ids)
            if unknown:
                raise SessionStateError(
                    f"calibration of {exam_id!r} names items outside the "
                    f"adaptive pool: {unknown}"
                )
            open_sittings = sorted(
                learner_id
                for (learner_id, sat_exam), sitting in self._sittings.items()
                if sat_exam == exam_id
                and sitting.adaptive is not None
                and sitting.session.state
                in (SessionState.IN_PROGRESS, SessionState.SUSPENDED)
            )
            if open_sittings:
                raise SessionStateError(
                    f"cannot hot-swap calibration of {exam_id!r}: "
                    f"{len(open_sittings)} adaptive sitting(s) still open "
                    f"(drain or submit them first)"
                )
            self._install_calibration(exam_id, int(version), parameters)
            self._emit(
                "calibrate",
                exam_id,
                int(version),
                online.parameters_to_record(parameters),
                now,
            )
        obs.count("lms.calibrations.applied")

    def _install_calibration(
        self,
        exam_id: str,
        version: int,
        parameters: "Dict[str, ItemParameters]",
    ) -> None:
        """Record the overlay and rebuild the table (caller validated)."""
        exam = self._exams[exam_id]
        self._calibrations[exam_id] = (version, dict(parameters))
        self._adaptive_tables[exam_id] = self._build_table(
            exam, version, parameters
        )

    # -- delivery ------------------------------------------------------------------

    def start_exam(self, learner_id: str, exam_id: str) -> LmsSitting:
        """Launch a sitting: SCORM launch + API initialize + session start."""
        with obs.span("lms.start_exam", exam_id=exam_id), self.lock:
            sitting = self._start_exam(learner_id, exam_id)
        obs.count("lms.sittings.started")
        return sitting

    def _start_exam(self, learner_id: str, exam_id: str) -> LmsSitting:
        now = self.clock.now()
        exam = self.exam(exam_id)
        learner = self.learners.get(learner_id)
        # the sitting, the attempt record, tracking and the monitor all
        # keep the registry's and the catalog's id objects, not the
        # request's equal copies
        learner_id, exam_id = learner.learner_id, exam.exam_id
        if learner_id not in self._enrollment[exam_id]:
            raise SessionStateError(
                f"learner {learner_id!r} is not enrolled in {exam_id!r}"
            )
        key = (learner_id, exam_id)
        existing = self._sittings.get(key)
        if existing is not None and existing.session.state in (
            SessionState.IN_PROGRESS,
            SessionState.SUSPENDED,
        ):
            raise SessionStateError(
                f"learner {learner_id!r} already has an open sitting of "
                f"{exam_id!r}"
            )
        session = ExamSession(exam, learner_id, clock=self.clock)
        sitting = self._open_sitting(session, learner, session.start(now))
        self.monitor.poll(learner_id, exam_id, session.elapsed_seconds(now))
        self._log(EventKind.LAUNCHED, "start", learner_id, exam_id, now)
        return sitting

    def _open_sitting(
        self, session: ExamSession, learner: Learner, item_order: List[str]
    ) -> LmsSitting:
        """Open and hold the sitting of ``session``, new or restored:
        launch the SCO and ``LMSInitialize`` it, give the sitting a lock
        counted in :attr:`lock_stats` under ``learner:exam``, and pin an
        adaptive exam's sitting to the exam's *current* table, so a later
        calibration swap never changes its selections mid-exam.

        :meth:`start_exam` and checkpoint restore both open sittings
        here.  A restored session's answers then go through the step a
        live answer takes (selection is deterministic, so the adaptive
        state comes back bit-identical), and its suspend or finish is
        re-issued on the CMI.
        """
        exam = session.exam
        learner_id, exam_id = learner.learner_id, exam.exam_id
        api = self.rte.launch(learner_id, exam_id, learner_name=learner.name)
        if api.LMSInitialize("") != "true":
            raise SessionStateError("SCORM API failed to initialize")
        sitting = LmsSitting(
            session=session,
            api=api,
            item_order=item_order,
            lock=InstrumentedRLock(self.lock_stats, f"{learner_id}:{exam_id}"),
        )
        if exam.adaptive is not None:
            from repro.adaptive.online import AdaptiveSession

            sitting.adaptive = AdaptiveSession.for_exam(
                self._adaptive_tables[exam_id], exam.adaptive
            )
        for event in session.answer_events():
            item = exam.item(event.item_id)
            self._record_interaction(sitting, item, item.score(event.response))
        if session.state is SessionState.SUSPENDED:
            self._cmi_suspend(sitting)
        elif session.state is SessionState.SUBMITTED:
            self._cmi_finish(sitting, grade_session(session))
        self._sittings[(learner_id, exam_id)] = sitting
        return sitting

    def sitting(self, learner_id: str, exam_id: str) -> LmsSitting:
        """The in-flight sitting; NotFoundError when none exists."""
        with self.lock.shared():
            try:
                return self._sittings[(learner_id, exam_id)]
            except KeyError:
                raise NotFoundError(
                    f"no sitting of {exam_id!r} by {learner_id!r}"
                ) from None

    def answer(
        self, learner_id: str, exam_id: str, item_id: str, response: object
    ) -> ScoredResponse:
        """Record an answer: session event + CMI interaction + monitor poll."""
        with obs.span("lms.answer", exam_id=exam_id), self.lock.shared():
            scored = self._answer(learner_id, exam_id, item_id, response)
        obs.count("lms.answers.recorded")
        return scored

    def _answer(
        self, learner_id: str, exam_id: str, item_id: str, response: object
    ) -> ScoredResponse:
        sitting = self.sitting(learner_id, exam_id)
        with sitting.lock:
            learner_id, exam_id = sitting.learner_id, sitting.exam_id
            now = self.clock.now()
            adaptive = sitting.adaptive
            if adaptive is not None:
                # policy enforcement: only the table's current choice is
                # answerable — out-of-policy items 409 before any state,
                # CMI, or journal effect
                expected = adaptive.next_item()
                if expected is None:
                    raise SessionStateError(
                        f"adaptive sitting of {exam_id!r} is complete "
                        f"({adaptive.stop_reason()}); submit it"
                    )
                if item_id != expected:
                    raise SessionStateError(
                        f"adaptive policy expects item {expected!r} next, "
                        f"not {item_id!r}"
                    )
            (scored,) = self._record_answers(
                sitting, [(item_id, response)], now
            )
            self._emit("answer", learner_id, exam_id, item_id, response, now)
        return scored

    def answer_batch(
        self,
        learner_id: str,
        exam_id: str,
        answers: "List[Tuple[str, object]]",
        submit: bool = False,
    ) -> Tuple[List[ScoredResponse], Optional[GradedSitting]]:
        """Record K answers atomically under one lock acquisition.

        ``answers`` is a sequence of ``(item_id, response)`` pairs.  The
        whole batch is validated **before** anything is applied — the
        first invalid answer raises its domain error (message prefixed
        with ``answers[i]``) and the sitting, tracking, monitor, and
        journal are all untouched.  On success every answer is applied
        exactly as :meth:`answer` would, sharing one clock sample, and
        the journal receives the batch as a single ``answers`` event in
        one group-committed append — K answers, one fsync.

        With ``submit=True`` the sitting is also submitted and graded
        in the same critical section, and its ``submit`` event rides
        the same durable append.  Returns ``(scored, graded)`` where
        ``graded`` is None unless ``submit`` was requested.
        """
        with obs.span("lms.answer_batch", exam_id=exam_id), \
                self.lock.shared():
            scored, graded = self._answer_batch(
                learner_id, exam_id, answers, submit
            )
        obs.count("lms.answers.recorded", len(scored))
        obs.count("lms.answer_batches")
        if graded is not None:
            obs.count("lms.sittings.submitted")
        return scored, graded

    def _answer_batch(
        self,
        learner_id: str,
        exam_id: str,
        answers: "List[Tuple[str, object]]",
        submit: bool,
    ) -> Tuple[List[ScoredResponse], Optional[GradedSitting]]:
        pairs = [(item_id, response) for item_id, response in answers]
        if not pairs:
            raise ResponseError("answers batch is empty")
        sitting = self.sitting(learner_id, exam_id)
        if sitting.adaptive is not None:
            # the adaptive protocol is strictly per-response: the next
            # item depends on the previous answer, so a batch cannot be
            # validated up front
            raise SessionStateError(
                f"adaptive sittings of {exam_id!r} take one answer at a "
                f"time; answers:batch is not allowed"
            )
        with sitting.lock:
            learner_id, exam_id = sitting.learner_id, sitting.exam_id
            now = self.clock.now()
            scored = self._record_answers(sitting, pairs, now, numbered=True)
            batch = (
                "answers",
                store_events.event(
                    "answers",
                    learner_id,
                    exam_id,
                    [[item_id, response] for item_id, response in pairs],
                    now,
                ),
            )
            graded = None
            if submit:
                # the answers ride in the submit's write
                graded = self._submit(learner_id, exam_id, events=(batch,))
            elif self.journal is not None:
                # still under the sitting lock: the journal's LSN order
                # for this sitting must match the order batches applied
                self.journal.append_batch([batch])
        return scored, graded

    def _record_answers(
        self,
        sitting: LmsSitting,
        pairs: "List[Tuple[str, object]]",
        now: float,
        *,
        numbered: bool = False,
    ) -> List[ScoredResponse]:
        """The live answer step for one answer or a batch: the session
        checks and records ``pairs`` all or nothing (``numbered`` as in
        :meth:`ExamSession.answer_all`), then each answer gets its CMI
        interaction and adaptive record, an ``answered`` tracking event
        and a monitor poll.  The caller journals them."""
        session = sitting.session
        scored = session.answer_all(pairs, now, numbered=numbered)
        learner_id, exam_id = sitting.learner_id, sitting.exam_id
        elapsed = session.elapsed_seconds(now)
        for (item_id, _), one in zip(pairs, scored):
            item = session.exam.item(item_id)
            self._record_interaction(sitting, item, one)
            self.tracking.record(
                EventKind.ANSWERED, learner_id, exam_id, now,
                detail=item.item_id,
            )
            self.monitor.poll(learner_id, exam_id, elapsed)
        return scored

    def _record_interaction(
        self, sitting: LmsSitting, item, scored: ScoredResponse
    ) -> None:
        """One recorded answer's adaptive record and its
        ``cmi.interactions.n.*`` set (live path and snapshot restore)."""
        item_id = item.item_id
        if sitting.adaptive is not None:
            sitting.adaptive.record(item_id, bool(scored.correct))
        index = sitting.interaction_count
        api = sitting.api
        api.LMSSetValue(f"cmi.interactions.{index}.id", item_id)
        api.LMSSetValue(
            f"cmi.interactions.{index}.type", _interaction_type(item)
        )
        api.LMSSetValue(
            f"cmi.interactions.{index}.student_response",
            str(scored.selected) if scored.selected is not None else "",
        )
        if scored.correct is not None:
            api.LMSSetValue(
                f"cmi.interactions.{index}.result",
                "correct" if scored.correct else "wrong",
            )
        sitting.interaction_count += 1

    def suspend(self, learner_id: str, exam_id: str) -> None:
        """Pause a sitting; commits SCORM suspend data."""
        with obs.span("lms.suspend", exam_id=exam_id), self.lock.shared():
            self._suspend(learner_id, exam_id)
        obs.count("lms.sittings.suspended")

    def _suspend(self, learner_id: str, exam_id: str) -> None:
        sitting = self.sitting(learner_id, exam_id)
        with sitting.lock:
            learner_id, exam_id = sitting.learner_id, sitting.exam_id
            now = self.clock.now()
            sitting.session.suspend(now)
            self._cmi_suspend(sitting)
            self._log(EventKind.SUSPENDED, "suspend", learner_id, exam_id, now)

    def _cmi_suspend(self, sitting: LmsSitting) -> None:
        """Commit the SCORM suspend exit (live path and snapshot restore)."""
        api = sitting.api
        api.LMSSetValue("cmi.core.exit", "suspend")
        api.LMSSetValue(
            "cmi.suspend_data",
            f"answered={len(sitting.session.answered_item_ids())}",
        )
        api.LMSCommit("")

    def resume(self, learner_id: str, exam_id: str) -> None:
        """Continue a suspended sitting (resumable exams only)."""
        with obs.span("lms.resume", exam_id=exam_id), self.lock.shared():
            sitting = self.sitting(learner_id, exam_id)
            with sitting.lock:
                learner_id, exam_id = sitting.learner_id, sitting.exam_id
                now = self.clock.now()
                sitting.session.resume(now)
                self._log(
                    EventKind.RESUMED, "resume", learner_id, exam_id, now
                )
        obs.count("lms.sittings.resumed")

    def submit(self, learner_id: str, exam_id: str) -> GradedSitting:
        """Close and grade a sitting; updates CMI core and learner record."""
        with obs.span("lms.submit", exam_id=exam_id), self.lock.shared():
            graded = self._submit(learner_id, exam_id)
        obs.count("lms.sittings.submitted")
        return graded

    def _submit(
        self,
        learner_id: str,
        exam_id: str,
        events: Sequence[Tuple[str, dict]] = (),
    ) -> GradedSitting:
        """Submit and grade a sitting; ``events`` are journaled just
        before its ``submit``, in the same write."""
        sitting = self.sitting(learner_id, exam_id)
        with sitting.lock:
            learner_id, exam_id = sitting.learner_id, sitting.exam_id
            now = self.clock.now()
            sitting.session.submit(now)
            graded = grade_session(sitting.session)
            self._cmi_finish(sitting, graded)
            # shared result structures: hold the commit mutex only for
            # the appends, not for grading — a slow grade never blocks
            # another learner's submit from committing
            with self._commit_lock:
                self._results.setdefault(exam_id, []).append(graded)
                self.learners.get(learner_id).record_result(
                    exam_id, _lesson_status(graded), graded.percent
                )
                self.tracking.record(
                    EventKind.SUBMITTED, learner_id, exam_id, now
                )
                self.tracking.record(
                    EventKind.GRADED,
                    learner_id,
                    exam_id,
                    now,
                    detail=f"{graded.percent:.1f}%",
                )
                self._cohorts[exam_id].fold(learner_id, graded.scores)
                submitted = store_events.event(
                    "submit", learner_id, exam_id, now
                )
                lsn = self._write_submit([*events, ("submit", submitted)])
            if lsn:
                self.journal.commit(lsn)
        return graded

    def _cmi_finish(self, sitting: LmsSitting, graded: GradedSitting) -> None:
        """Write the final CMI score/status and finish the API session
        (live path and snapshot restore)."""
        api = sitting.api
        api.LMSSetValue("cmi.core.score.raw", f"{graded.percent:.1f}")
        api.LMSSetValue("cmi.core.score.min", "0")
        api.LMSSetValue("cmi.core.score.max", "100")
        api.LMSSetValue("cmi.core.lesson_status", _lesson_status(graded))
        api.LMSFinish("")

    # -- proctoring ---------------------------------------------------------------

    def capture_frame(self, learner_id: str, exam_id: str):
        """Proctor-triggered monitor capture of an open sitting.

        Unlike the passive per-interaction :meth:`ExamMonitor.poll`
        schedule, this captures unconditionally, records a
        ``MONITOR_CAPTURE`` tracking event, and journals it — so a
        recovered LMS reproduces proctor snapshots too.
        """
        with obs.span("lms.capture_frame", exam_id=exam_id), \
                self.lock.shared():
            sitting = self.sitting(learner_id, exam_id)
            with sitting.lock:
                learner_id, exam_id = sitting.learner_id, sitting.exam_id
                now = self.clock.now()
                frame = self.monitor.capture(
                    learner_id, exam_id, sitting.session.elapsed_seconds(now)
                )
                self._log(
                    EventKind.MONITOR_CAPTURE, "monitor", learner_id,
                    exam_id, now,
                )
        obs.count("lms.frames.captured")
        return frame

    # -- results & analysis -----------------------------------------------------

    def results_for(self, exam_id: str) -> List[GradedSitting]:
        """Every graded sitting of an exam, submission order."""
        with self.lock.shared(), self._commit_lock:
            return list(self._results.get(exam_id, ()))

    def questionnaire_summaries(self, exam_id: str):
        """Tabulate every questionnaire item's responses (§3.2 VI).

        Returns one :class:`~repro.core.questionnaire_analysis.
        QuestionnaireSummary` per questionnaire item, over all submitted
        sittings."""
        from repro.core.questionnaire_analysis import tabulate_questionnaire
        from repro.items.questionnaire import QuestionnaireItem

        with self.lock.shared():
            exam = self.exam(exam_id)
            sittings = self.results_for(exam_id)
        summaries = []
        for item in exam.items:
            if not isinstance(item, QuestionnaireItem):
                continue
            responses = [
                sitting.scores[item.item_id].selected
                if item.item_id in sitting.scores
                else None
                for sitting in sittings
            ]
            summaries.append(
                tabulate_questionnaire(item.question, responses, item.scale)
            )
        return summaries

    def _latest_sittings(self, exam_id: str) -> List[GradedSitting]:
        """Submitted sittings deduped to one per learner (latest wins).

        A learner who re-sat an exam appears once; previously duplicate
        learner ids silently mis-grouped the cohort (the score table kept
        the last sitting while the option matrices counted every sitting).
        """
        return _dedupe_latest(self.results_for(exam_id))

    def _cohort_responses(self, exam: Exam) -> List[ExamineeResponses]:
        """Analysis-ready responses, one per learner (latest sitting wins)."""
        return sittings_to_responses(
            exam, self._latest_sittings(exam.exam_id)
        )

    def analyze_exam(
        self,
        exam_id: str,
        split: GroupSplit = GroupSplit(),
        policy: SignalPolicy = DEFAULT_POLICY,
        spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
    ) -> CohortAnalysis:
        """Run the §4.1 analysis over every submitted sitting.

        ``split``, ``policy``, and ``spread_threshold`` are forwarded to
        :func:`~repro.core.question_analysis.analyze_cohort` (they used
        to be silently unreachable from the LMS, so an operator could not
        analyze with a non-default extreme-group fraction).
        """
        with obs.span("lms.analyze_exam", exam_id=exam_id), \
                self.lock.shared():
            exam = self.exam(exam_id)
            responses = self._cohort_responses(exam)
            return analyze_cohort(
                responses,
                exam.question_specs(),
                split=split,
                policy=policy,
                spread_threshold=spread_threshold,
            )

    def live_analysis(self, exam_id: str) -> CohortAnalysis:
        """The §4.1 analysis kept warm across submissions.

        Every :meth:`submit` folds its sitting into the exam's
        :class:`~repro.delivery.scoring.ExamCohort`, so serving the
        current analysis never re-walks the raw responses.
        """
        with obs.span("lms.live_analysis", exam_id=exam_id), \
                self.lock.shared():
            self.exam(exam_id)
            with self._commit_lock:
                return self._cohorts[exam_id].analysis()

    def analysis_partial(self, exam_id: str) -> Dict[str, object]:
        """This LMS's cohort as a scatter-gather partial.

        A sharded deployment calls this on every worker and merges the
        payloads with :func:`repro.core.columnar.merge_partials`; the
        merged matrix analyzes bit-identically to a single process that
        held all the sittings (see ``repro.cluster``).  An exam with no
        submissions yet returns an empty partial — the gather side
        treats that as zero rows, not an error.
        """
        with obs.span("lms.analysis_partial", exam_id=exam_id), \
                self.lock.shared():
            self.exam(exam_id)
            with self._commit_lock:
                return self._cohorts[exam_id].partial()

    def report_for(
        self,
        exam_id: str,
        concepts: Optional[List[str]] = None,
        split: GroupSplit = GroupSplit(),
    ) -> AssessmentReport:
        """The full §4 report: number/signal analysis, figures, spec table.

        ``split`` is forwarded to the cohort analysis.
        """
        with obs.span("lms.report_for", exam_id=exam_id), \
                self.lock.shared():
            return self._report_for(exam_id, concepts, split)

    def _report_for(
        self,
        exam_id: str,
        concepts: Optional[List[str]],
        split: GroupSplit,
    ) -> AssessmentReport:
        exam = self.exam(exam_id)
        # the same latest-sitting-per-learner set feeds the cohort, the
        # correctness flags, and the time figures, so a re-sitter is not
        # double-counted in any of them
        sittings = self._latest_sittings(exam_id)
        responses = sittings_to_responses(exam, sittings)
        specs = exam.question_specs()
        cohort = analyze_cohort(responses, specs, split=split)
        correct_flags = {
            response.examinee_id: [
                selection == spec.correct
                for selection, spec in zip(response.selections, specs)
            ]
            for response in responses
        }
        answer_times = [sitting.answer_times for sitting in sittings]
        return build_report(
            exam.title,
            cohort,
            correct_flags=correct_flags,
            answer_times=answer_times,
            time_limit_seconds=exam.time_limit_seconds,
            spec_table=exam.specification_table(concepts=concepts),
            specs=specs,
        )


def _dedupe_latest(sittings: List[GradedSitting]) -> List[GradedSitting]:
    """Dedupe graded sittings to one per learner, latest submission wins.

    pop-then-insert ranks a re-sitter at their most recent submission,
    matching :meth:`~repro.delivery.scoring.ExamCohort.fold` (boundary
    ties in the 25% split break by cohort order).
    """
    latest: Dict[str, GradedSitting] = {}
    for sitting in sittings:
        latest.pop(sitting.learner_id, None)
        latest[sitting.learner_id] = sitting
    return list(latest.values())


def _interaction_type(item) -> str:
    from repro.items.choice import MultipleChoiceItem
    from repro.items.completion import CompletionItem
    from repro.items.matching import MatchItem
    from repro.items.questionnaire import QuestionnaireItem
    from repro.items.truefalse import TrueFalseItem

    if isinstance(item, MultipleChoiceItem):
        return "choice"
    if isinstance(item, TrueFalseItem):
        return "true-false"
    if isinstance(item, CompletionItem):
        return "fill-in"
    if isinstance(item, MatchItem):
        return "matching"
    if isinstance(item, QuestionnaireItem):
        return "likert"
    return "performance"


def _lesson_status(graded: GradedSitting) -> str:
    if not graded.is_fully_graded():
        return "incomplete"
    return "passed" if graded.percent >= 60.0 else "failed"
