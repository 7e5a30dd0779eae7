"""Regression tests: pass-through wrappers must forward their kwargs.

PR 2 fixed ``pre_post_cohorts`` silently dropping ``omit_rate`` and
``base_seconds``; this file pins down the whole class of bug across the
simulation helpers, the ``analyze`` wrappers, and the LMS conveniences —
partly behaviorally (a forwarded knob must change the output), partly
with capture spies (the exact object must reach ``analyze_cohort``).
"""

import pytest

import repro.lms.lms as lms_module
from repro import (
    GroupSplit,
    classroom_exam,
    classroom_parameters,
    make_population,
    pre_post_cohorts,
    simulate_sitting_data,
)
from repro.core.columnar import ResponseMatrix
from repro.core.question_analysis import reference_analyze_cohort
from repro.core.signals import SignalPolicy
from repro.delivery.clock import ManualClock
from repro.delivery.scoring import sittings_to_responses
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.sim.vectorized import simulate_sitting_arrays

POLICY = SignalPolicy(green_min=0.5, yellow_min=0.25)
THRESHOLD = 0.123


#: both cohort generators, under their ``--sim-engine`` names
GENERATORS = pytest.mark.parametrize(
    "simulate",
    [simulate_sitting_data, simulate_sitting_arrays],
    ids=["scalar", "auto"],
)


def spy_on(monkeypatch, owner, name="analyze_cohort"):
    """Wrap ``owner.name`` (a module function or a class's method) so
    every call's kwargs are captured."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def small_setup(count=12):
    exam = classroom_exam(5)
    return exam, classroom_parameters(5), make_population(count, seed=11)


class TestSimulateSittingData:
    @GENERATORS
    def test_sigma_changes_answer_times(self, simulate):
        exam, params, learners = small_setup()
        tight = simulate(exam, params, learners, seed=5, sigma=0.0)
        loose = simulate(exam, params, learners, seed=5, sigma=0.9)
        assert tight.answer_times != loose.answer_times

    def test_base_seconds_scales_times(self):
        exam, params, learners = small_setup()
        slow = simulate_sitting_data(
            exam, params, learners, seed=5, base_seconds=90.0, sigma=0.0
        )
        fast = simulate_sitting_data(
            exam, params, learners, seed=5, base_seconds=30.0, sigma=0.0
        )

        def total(data):
            return sum(sum(times) for times in data.answer_times)

        assert total(slow) > total(fast)

    def test_pre_post_cohorts_forwards_sigma(self):
        exam, params, _ = small_setup()
        pre_a, post_a = pre_post_cohorts(
            exam, params, size=12, seed=3, sigma=0.0
        )
        pre_b, post_b = pre_post_cohorts(
            exam, params, size=12, seed=3, sigma=0.9
        )
        assert pre_a.answer_times != pre_b.answer_times
        assert post_a.answer_times != post_b.answer_times


class TestAnalyzeForwarding:
    @GENERATORS
    def test_sitting_data_analyze_forwards_everything(
        self, monkeypatch, simulate
    ):
        exam, params, learners = small_setup(16)
        data = simulate(exam, params, learners, seed=7)
        # both data shapes end in the columnar matrix's analysis
        calls = spy_on(monkeypatch, ResponseMatrix, "analyze")
        split = GroupSplit(fraction=0.5)
        data.analyze(split=split, policy=POLICY, spread_threshold=THRESHOLD)
        (kwargs,) = calls
        assert kwargs["split"] is split
        assert kwargs["policy"] is POLICY
        assert kwargs["spread_threshold"] == THRESHOLD

    def test_custom_policy_changes_signals(self):
        exam, params, learners = small_setup(16)
        data = simulate_sitting_data(exam, params, learners, seed=7)
        default = data.analyze()
        relaxed = data.analyze(
            policy=SignalPolicy(green_min=0.011, yellow_min=0.01)
        )
        assert default.signals != relaxed.signals


class TestLmsForwarding:
    def _lms_with_results(self):
        exam = (
            ExamBuilder("ex1", "Exam")
            .add_item(MultipleChoiceItem.build(
                "q1", "Pick A.", ["a", "b"], correct_index=0
            ))
            .add_item(MultipleChoiceItem.build(
                "q2", "Pick B.", ["a", "b"], correct_index=1
            ))
            .build()
        )
        lms = Lms(clock=ManualClock())
        lms.offer_exam(exam)
        for index in range(8):
            learner_id = f"s{index}"
            lms.register_learner(
                Learner(learner_id=learner_id, name=learner_id)
            )
            lms.enroll(learner_id, "ex1")
            lms.start_exam(learner_id, "ex1")
            lms.answer(learner_id, "ex1", "q1", "A" if index < 6 else "B")
            lms.answer(learner_id, "ex1", "q2", "B" if index < 3 else "A")
            lms.submit(learner_id, "ex1")
        return lms

    def test_analyze_exam_forwards_policy_split_threshold(self, monkeypatch):
        lms = self._lms_with_results()
        calls = spy_on(monkeypatch, lms_module)
        split = GroupSplit(fraction=0.5)
        lms.analyze_exam(
            "ex1", split=split, policy=POLICY, spread_threshold=THRESHOLD
        )
        (kwargs,) = calls
        assert kwargs["split"] is split
        assert kwargs["policy"] is POLICY
        assert kwargs["spread_threshold"] == THRESHOLD

    def _reference(self, lms, **kwargs):
        """The reference pipeline over the LMS's submitted cohort."""
        exam = lms.exam("ex1")
        responses = sittings_to_responses(exam, lms.results_for("ex1"))
        return reference_analyze_cohort(
            responses, exam.question_specs(), **kwargs
        )

    def test_analyze_exam_engine_parity(self):
        lms = self._lms_with_results()
        columnar = lms.analyze_exam("ex1")
        reference = self._reference(lms)
        assert [q.difficulty for q in columnar.questions] == [
            q.difficulty for q in reference.questions
        ]
        assert [q.discrimination for q in columnar.questions] == [
            q.discrimination for q in reference.questions
        ]

    def test_analyze_exam_split_changes_groups(self):
        lms = self._lms_with_results()
        narrow = lms.analyze_exam("ex1")  # 25% of 8 = 2 per group
        wide = lms.analyze_exam("ex1", split=GroupSplit(fraction=0.5))
        assert len(narrow.high_group) == 2
        assert len(wide.high_group) == 4

    def test_report_for_forwards_split_and_engine(self, monkeypatch):
        lms = self._lms_with_results()
        calls = spy_on(monkeypatch, lms_module)
        split = GroupSplit(fraction=0.5)
        report = lms.report_for("ex1", split=split)
        (kwargs,) = calls
        assert kwargs["split"] is split
        # the report's analysis is the reference engine's, to the field
        assert report.cohort == self._reference(lms, split=split)
