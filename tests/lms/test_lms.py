"""Tests for the LMS (repro.lms.lms) and learner registry."""

import gc
import tracemalloc
import weakref

import pytest

from repro.core.errors import (
    DuplicateIdError,
    NotFoundError,
    SessionStateError,
)
from repro.core.question_analysis import reference_analyze_cohort
from repro.delivery.clock import ManualClock
from repro.delivery.scoring import sittings_to_responses
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem
from repro.lms.learners import Learner, LearnerRegistry
from repro.lms.lms import Lms
from repro.lms.tracking import EventKind
from repro.scorm.api import ApiState
from repro.sim.workloads import classroom_exam


def two_question_exam(exam_id="ex1"):
    return (
        ExamBuilder(exam_id, "Exam")
        .add_item(
            MultipleChoiceItem.build("q1", "Pick A.", ["a", "b"], correct_index=0)
        )
        .add_item(
            MultipleChoiceItem.build("q2", "Pick B.", ["a", "b"], correct_index=1)
        )
        .time_limit(600)
        .build()
    )


def fresh_lms():
    lms = Lms(clock=ManualClock())
    lms.offer_exam(two_question_exam())
    lms.register_learner(Learner(learner_id="alice", name="Alice"))
    lms.enroll("alice", "ex1")
    return lms


class TestLearnerRegistry:
    def test_register_get(self):
        registry = LearnerRegistry()
        registry.register(Learner(learner_id="a", name="A"))
        assert registry.get("a").name == "A"
        assert "a" in registry and len(registry) == 1

    def test_duplicate_rejected(self):
        registry = LearnerRegistry()
        registry.register(Learner(learner_id="a", name="A"))
        with pytest.raises(DuplicateIdError):
            registry.register(Learner(learner_id="a", name="A2"))

    def test_missing_learner(self):
        with pytest.raises(NotFoundError):
            LearnerRegistry().get("ghost")

    def test_record_result_keeps_best_score(self):
        learner = Learner(learner_id="a", name="A")
        learner.record_result("c1", "failed", 40.0)
        learner.record_result("c1", "passed", 80.0)
        learner.record_result("c1", "passed", 60.0)
        assert learner.course_scores["c1"] == 80.0
        assert learner.status_for("c1") == "passed"
        assert learner.status_for("other") == "not attempted"


class TestOfferingAndEnrollment:
    def test_offer_and_enroll(self):
        lms = fresh_lms()
        assert lms.offered_exams() == ["ex1"]
        assert lms.enrolled("ex1") == ["alice"]

    def test_duplicate_offer_rejected(self):
        lms = fresh_lms()
        with pytest.raises(DuplicateIdError):
            lms.offer_exam(two_question_exam())

    def test_enroll_unknown_learner(self):
        lms = fresh_lms()
        with pytest.raises(NotFoundError):
            lms.enroll("ghost", "ex1")

    def test_enroll_unknown_exam(self):
        lms = fresh_lms()
        with pytest.raises(NotFoundError):
            lms.enroll("alice", "ghost")

    def test_enrollment_tracked(self):
        lms = fresh_lms()
        assert len(lms.tracking.events(kind=EventKind.ENROLLED)) == 1


class TestSittingFlow:
    def test_full_sitting(self):
        lms = fresh_lms()
        sitting = lms.start_exam("alice", "ex1")
        assert sitting.api.state is ApiState.RUNNING
        lms.answer("alice", "ex1", "q1", "A")
        lms.answer("alice", "ex1", "q2", "B")
        graded = lms.submit("alice", "ex1")
        assert graded.percent == 100.0
        assert sitting.api.state is ApiState.FINISHED

    def test_start_requires_enrollment(self):
        lms = fresh_lms()
        lms.register_learner(Learner(learner_id="bob", name="Bob"))
        with pytest.raises(SessionStateError):
            lms.start_exam("bob", "ex1")

    def test_cannot_open_two_sittings(self):
        lms = fresh_lms()
        lms.start_exam("alice", "ex1")
        with pytest.raises(SessionStateError):
            lms.start_exam("alice", "ex1")

    def test_cmi_interactions_recorded(self):
        lms = fresh_lms()
        lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        lms.answer("alice", "ex1", "q2", "A")  # wrong
        lms.submit("alice", "ex1")
        record = lms.rte.record("alice", "ex1")
        interactions = record.last_snapshot["interactions"]
        assert len(interactions) == 2
        assert interactions[0]["id"] == "q1"
        assert interactions[0]["result"] == "correct"
        assert interactions[1]["result"] == "wrong"

    def test_cmi_score_and_status(self):
        lms = fresh_lms()
        lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        lms.submit("alice", "ex1")
        record = lms.rte.record("alice", "ex1")
        assert record.score_raw == 50.0
        assert record.lesson_status == "failed"

    def test_passing_status(self):
        lms = fresh_lms()
        lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        lms.answer("alice", "ex1", "q2", "B")
        lms.submit("alice", "ex1")
        assert lms.rte.record("alice", "ex1").lesson_status == "passed"
        assert lms.learners.get("alice").course_scores["ex1"] == 100.0

    def test_suspend_resume_flow(self):
        lms = fresh_lms()
        lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        lms.suspend("alice", "ex1")
        lms.resume("alice", "ex1")
        lms.answer("alice", "ex1", "q2", "B")
        graded = lms.submit("alice", "ex1")
        assert graded.percent == 100.0
        kinds = [e.kind for e in lms.tracking.events(learner_id="alice")]
        assert EventKind.SUSPENDED in kinds
        assert EventKind.RESUMED in kinds

    def test_suspend_commits_suspend_data(self):
        lms = fresh_lms()
        sitting = lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        lms.suspend("alice", "ex1")
        snapshot = lms.rte.record("alice", "ex1").last_snapshot
        assert snapshot["suspend_data"] == "answered=1"

    def test_tracking_sequence(self):
        lms = fresh_lms()
        lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        lms.submit("alice", "ex1")
        kinds = [event.kind for event in lms.tracking]
        assert kinds == [
            EventKind.ENROLLED,
            EventKind.LAUNCHED,
            EventKind.ANSWERED,
            EventKind.SUBMITTED,
            EventKind.GRADED,
        ]

    def test_sitting_lookup(self):
        lms = fresh_lms()
        with pytest.raises(NotFoundError):
            lms.sitting("alice", "ex1")
        lms.start_exam("alice", "ex1")
        assert lms.sitting("alice", "ex1").learner_id == "alice"


def wire(text):
    """An equal copy of ``text``, as a server decodes it from a request."""
    return text.encode().decode()


class TestRetainedMemory:
    def test_submit_releases_the_cmi_data_model(self):
        lms = fresh_lms()
        sitting = lms.start_exam("alice", "ex1")
        lms.answer("alice", "ex1", "q1", "A")
        model = weakref.ref(sitting.api.datamodel)
        lms.submit("alice", "ex1")
        assert sitting.api.state is ApiState.FINISHED
        assert sitting.api.datamodel is None
        gc.collect()
        assert model() is None
        record = lms.rte.record("alice", "ex1")
        first, second = record.last_snapshot, record.last_snapshot
        assert first == second and first is not second
        assert first["interactions"][0]["id"] == "q1"

    def test_a_graded_sitting_retains_at_most_20_kib(self):
        """200 classroom sittings, every id an equal per-request copy as
        a server decodes it, retain at most 20 KiB each once graded: a
        finished sitting keeps no CMI data model, and the LMS keeps its
        own id objects rather than the copies."""
        clock = ManualClock(1000.0)
        lms = Lms(clock=clock)
        exam = classroom_exam(20)
        lms.offer_exam(exam)
        learner_ids = [f"s{index:03d}" for index in range(201)]
        for learner_id in learner_ids:
            lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
            lms.enroll(learner_id, exam.exam_id)

        def sit(learner_id, response):
            lms.start_exam(wire(learner_id), wire(exam.exam_id))
            for item in exam.items:
                clock.advance(1.0)
                lms.answer(
                    wire(learner_id),
                    wire(exam.exam_id),
                    wire(item.item_id),
                    response,
                )
            lms.submit(wire(learner_id), wire(exam.exam_id))

        sit(learner_ids[-1], "A")  # lazy imports and caches fill here
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index, learner_id in enumerate(learner_ids[:200]):
                sit(learner_id, "ABCDE"[index % 5])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(lms.results_for(exam.exam_id)) == 201
        assert retained / 200 <= 20 * 1024


class TestMonitorIntegration:
    def test_frames_captured_during_sitting(self):
        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        lms.register_learner(Learner(learner_id="alice", name="Alice"))
        lms.enroll("alice", "ex1")
        lms.start_exam("alice", "ex1")  # capture at t=0
        clock.advance(31)
        lms.answer("alice", "ex1", "q1", "A")  # capture due
        clock.advance(5)
        lms.answer("alice", "ex1", "q2", "B")  # too soon, no capture
        frames = lms.monitor.frames_for("alice", "ex1")
        assert len(frames) == 2


class TestAnalysisIntegration:
    def test_analyze_exam_over_cohort(self):
        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        for index in range(12):
            learner_id = f"s{index:02d}"
            lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
            lms.enroll(learner_id, "ex1")
            lms.start_exam(learner_id, "ex1")
            # top half answer both right; bottom half both wrong
            if index < 6:
                lms.answer(learner_id, "ex1", "q1", "A")
                lms.answer(learner_id, "ex1", "q2", "B")
            else:
                lms.answer(learner_id, "ex1", "q1", "B")
                lms.answer(learner_id, "ex1", "q2", "A")
            clock.advance(30)
            lms.submit(learner_id, "ex1")
        analysis = lms.analyze_exam("ex1")
        assert len(analysis.questions) == 2
        for question in analysis.questions:
            assert question.discrimination == 1.0

    def _run_cohort(self, lms, clock, count=12, start=0):
        for index in range(start, start + count):
            learner_id = f"s{index:02d}"
            lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
            lms.enroll(learner_id, "ex1")
            lms.start_exam(learner_id, "ex1")
            if index % 2 == 0:
                lms.answer(learner_id, "ex1", "q1", "A")
                lms.answer(learner_id, "ex1", "q2", "B")
            else:
                lms.answer(learner_id, "ex1", "q1", "B")
                lms.answer(learner_id, "ex1", "q2", "A")
            clock.advance(30)
            lms.submit(learner_id, "ex1")

    def test_analyze_exam_engines_agree(self):
        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        self._run_cohort(lms, clock)
        exam = lms.exam("ex1")
        responses = sittings_to_responses(exam, lms.results_for("ex1"))
        assert lms.analyze_exam("ex1") == reference_analyze_cohort(
            responses, exam.question_specs()
        )

    def test_live_analysis_tracks_submissions_incrementally(self):
        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        self._run_cohort(lms, clock)
        # seed the warm analyzer, then submit more sittings on top
        first = lms.live_analysis("ex1")
        assert first == lms.analyze_exam("ex1")
        self._run_cohort(lms, clock, count=8, start=12)
        warm = lms.live_analysis("ex1")
        assert warm == lms.analyze_exam("ex1")
        assert len(warm.scores) == 20

    def test_live_analysis_replaces_resubmitted_sittings(self):
        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        self._run_cohort(lms, clock)
        lms.live_analysis("ex1")  # warm it before the re-sit
        # s01 re-sits and aces the exam; the latest sitting must win in
        # both the warm path and the from-scratch path
        lms.start_exam("s01", "ex1")
        lms.answer("s01", "ex1", "q1", "A")
        lms.answer("s01", "ex1", "q2", "B")
        clock.advance(30)
        lms.submit("s01", "ex1")
        warm = lms.live_analysis("ex1")
        cold = lms.analyze_exam("ex1")
        assert warm == cold
        assert warm.scores["s01"] == 2
        assert len(warm.scores) == 12  # s01 still counted once

    @pytest.mark.parametrize("warm_before", [False, True])
    def test_live_analysis_survives_withdraw_and_reoffer(self, warm_before):
        from repro.lms.admin import Administrator

        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        self._run_cohort(lms, clock)
        lms.start_exam("s01", "ex1")  # a re-sit, latest sitting wins
        lms.answer("s01", "ex1", "q1", "A")
        lms.submit("s01", "ex1")
        if warm_before:
            lms.live_analysis("ex1")
        Administrator(lms).withdraw_exam("ex1")
        lms.offer_exam(two_question_exam())
        # the re-offered exam analyses the results it was withdrawn with
        assert lms.live_analysis("ex1") == lms.analyze_exam("ex1")
        self._run_cohort(lms, clock, count=4, start=12)
        warm = lms.live_analysis("ex1")
        assert warm == lms.analyze_exam("ex1")
        assert len(warm.scores) == 16

    def test_report_for_exam(self):
        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        for index in range(8):
            learner_id = f"s{index}"
            lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
            lms.enroll(learner_id, "ex1")
            lms.start_exam(learner_id, "ex1")
            clock.advance(10)
            lms.answer(learner_id, "ex1", "q1", "A" if index < 4 else "B")
            clock.advance(10)
            lms.answer(learner_id, "ex1", "q2", "B" if index < 4 else "A")
            lms.submit(learner_id, "ex1")
        report = lms.report_for("ex1")
        text = report.render()
        assert "Number representation" in text
        assert "Signal representation" in text
        assert "time limit 600" in text

    def test_report_time_figures_count_resitters_once(self):
        # regression: answer_times used every graded sitting while the
        # cohort kept only each learner's latest, so a re-sitter was
        # double-counted in the time figures
        from repro.core.exam_analysis import time_vs_answered

        clock = ManualClock()
        lms = Lms(clock=clock)
        lms.offer_exam(two_question_exam())
        for index in range(8):
            learner_id = f"s{index}"
            lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
            lms.enroll(learner_id, "ex1")
            lms.start_exam(learner_id, "ex1")
            clock.advance(10)
            lms.answer(learner_id, "ex1", "q1", "A" if index < 4 else "B")
            clock.advance(10)
            lms.answer(learner_id, "ex1", "q2", "B" if index < 4 else "A")
            lms.submit(learner_id, "ex1")
        # s0 re-sits on a different schedule; only the re-sit may count
        lms.start_exam("s0", "ex1")
        clock.advance(40)
        lms.answer("s0", "ex1", "q1", "A")
        clock.advance(40)
        lms.answer("s0", "ex1", "q2", "B")
        lms.submit("s0", "ex1")
        report = lms.report_for("ex1")
        expected = time_vs_answered(
            [[10.0, 20.0]] * 7 + [[40.0, 80.0]], time_limit_seconds=600
        )
        assert report.time_analysis == expected
        assert len(report.cohort.scores) == 8


class TestManualGrading:
    @pytest.mark.xfail(
        strict=True,
        reason="apply_manual_grade changes only the result object: no "
        "journaled Lms operation re-folds the sitting, so the learner "
        "record, the cohort and recovery keep the pre-grade percent",
    )
    def test_an_essay_grade_reaches_every_view_of_the_sitting(self, tmp_path):
        from repro.items.essay import EssayItem
        from repro.store import Journal, recover

        exam = (
            ExamBuilder("essay-exam", "Essay")
            .add_item(
                MultipleChoiceItem.build(
                    "q1", "Pick A.", ["a", "b"], correct_index=0
                )
            )
            .add_item(EssayItem(item_id="e1", question="Why?", max_points=4))
            .time_limit(600)
            .build()
        )
        journal = Journal.open(tmp_path, fsync="never")
        lms = Lms(clock=ManualClock(), journal=journal)
        lms.offer_exam(exam)
        lms.register_learner(Learner(learner_id="amy", name="Amy"))
        lms.enroll("amy", "essay-exam")
        lms.start_exam("amy", "essay-exam")
        lms.answer("amy", "essay-exam", "q1", "A")
        lms.answer("amy", "essay-exam", "e1", "Because.")
        graded = lms.submit("amy", "essay-exam")
        assert graded.percent == 20.0
        assert graded.scores["e1"].needs_manual_grading
        lms.results_for("essay-exam")[0].apply_manual_grade(exam, "e1", 3.0)
        journal.close()
        percents = {
            "result": lms.results_for("essay-exam")[0].percent,
            "learner": lms.learners.get("amy").course_scores["essay-exam"],
            "cohort": lms._cohorts["essay-exam"].percents["amy"],
            "recovered": recover(tmp_path)
            .lms.results_for("essay-exam")[0]
            .percent,
        }
        assert percents["result"] == 80.0
        assert set(percents.values()) == {80.0}, percents
