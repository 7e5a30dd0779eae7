"""Tests for the CAT session and learner feedback (repro.adaptive)."""

import random

import pytest

from repro.core.cognition import CognitionLevel
from repro.core.errors import AnalysisError, EstimationError
from repro.adaptive.cat import select_next_item
from repro.adaptive.feedback import build_feedback
from repro.adaptive.irt import ItemParameters, probability_correct
from repro.adaptive.online import AdaptiveSession, ItemInformationTable
from repro.delivery.clock import ManualClock
from repro.delivery.scoring import grade_session
from repro.delivery.session import ExamSession
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem


def calibrated_pool(size=40, seed=123):
    rng = random.Random(seed)
    return {
        f"item-{index:03d}": ItemParameters(
            a=rng.uniform(0.8, 2.2), b=rng.uniform(-3, 3)
        )
        for index in range(size)
    }


def oracle(true_ability, pool, seed=0):
    rng = random.Random(seed)

    def answer(item_id):
        return rng.random() < probability_correct(true_ability, pool[item_id])

    return answer


class TestSelectNextItem:
    def test_picks_most_informative(self):
        pool = {
            "far": ItemParameters(a=1.5, b=3.0),
            "near": ItemParameters(a=1.5, b=0.1),
        }
        assert select_next_item(0.0, pool, set()) == "near"

    def test_skips_administered(self):
        pool = {
            "near": ItemParameters(a=1.5, b=0.0),
            "far": ItemParameters(a=1.5, b=2.0),
        }
        assert select_next_item(0.0, pool, {"near"}) == "far"

    def test_exhausted_pool(self):
        pool = {"only": ItemParameters()}
        assert select_next_item(0.0, pool, {"only"}) is None


def session_over(pool, **rules):
    return AdaptiveSession(ItemInformationTable.build(pool), **rules)


class TestCatConfig:
    """The CAT stopping rules, checked when a session is built."""

    def test_defaults_valid(self):
        session_over(calibrated_pool(size=5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_items": 0},
            {"min_items": 0},
            {"min_items": 30, "max_items": 20},
            {"se_target": 0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(EstimationError):
            session_over(calibrated_pool(size=5), **kwargs)


class TestCatSession:
    """One CAT sitting over a calibrated pool (an AdaptiveSession)."""

    def test_empty_pool_rejected(self):
        with pytest.raises(EstimationError):
            session_over({})

    def test_session_runs_and_stops(self):
        pool = calibrated_pool()
        session = session_over(pool, max_items=15)
        ability, se = session.run(oracle(1.0, pool, seed=1))
        assert session.is_done()
        assert len(session.administered) <= 15
        assert se < float("inf")

    def test_recovers_true_ability(self):
        pool = calibrated_pool(size=80)
        errors = []
        for true_theta in (-1.5, 0.0, 1.5):
            estimates = []
            for seed in range(5):
                session = session_over(pool, max_items=25, se_target=0.3)
                estimate, _ = session.run(oracle(true_theta, pool, seed=seed))
                estimates.append(estimate)
            mean = sum(estimates) / len(estimates)
            errors.append(abs(mean - true_theta))
        assert max(errors) < 0.6

    def test_se_shrinks_as_items_administered(self):
        pool = calibrated_pool()
        session = session_over(pool, max_items=20, se_target=0.01)
        answer = oracle(0.0, pool, seed=2)
        ses = []
        while not session.is_done():
            item_id = session.next_item()
            session.record(item_id, answer(item_id))
            ses.append(session.standard_error)
        assert ses[-1] < ses[0]

    def test_stops_at_se_target(self):
        pool = calibrated_pool(size=100)
        session = session_over(
            pool, max_items=100, min_items=3, se_target=0.45
        )
        session.run(oracle(0.0, pool, seed=3))
        assert session.standard_error <= 0.45 or len(session.administered) == 100

    def test_min_items_respected(self):
        pool = calibrated_pool(size=30)
        session = session_over(pool, max_items=30, min_items=5, se_target=10.0)
        session.run(oracle(0.0, pool, seed=4))
        assert len(session.administered) >= 5

    def test_double_administration_rejected(self):
        pool = calibrated_pool(size=5)
        session = session_over(pool)
        item_id = session.next_item()
        session.record(item_id, True)
        with pytest.raises(EstimationError):
            session.record(item_id, False)

    def test_unknown_item_rejected(self):
        session = session_over(calibrated_pool(size=5))
        with pytest.raises(EstimationError):
            session.record("ghost", True)

    def test_next_item_none_when_done(self):
        pool = {"a": ItemParameters(), "b": ItemParameters()}
        session = session_over(pool, max_items=1, min_items=1)
        session.record("a", True)
        assert session.is_done()
        assert session.next_item() is None


def tagged_exam():
    return (
        ExamBuilder("e", "E")
        .add_item(
            MultipleChoiceItem.build(
                "q1", "Sorting?", ["a", "b"], correct_index=0,
                subject="sorting", cognition_level=CognitionLevel.KNOWLEDGE,
            )
        )
        .add_item(
            MultipleChoiceItem.build(
                "q2", "More sorting?", ["a", "b"], correct_index=0,
                subject="sorting", cognition_level=CognitionLevel.APPLICATION,
            )
        )
        .add_item(
            MultipleChoiceItem.build(
                "q3", "Hashing?", ["a", "b"], correct_index=0,
                subject="hashing", cognition_level=CognitionLevel.KNOWLEDGE,
            )
        )
        .build()
    )


def graded_sitting(answers):
    session = ExamSession(tagged_exam(), "lea", clock=ManualClock())
    session.start()
    for item_id, response in answers.items():
        session.answer(item_id, response)
    session.submit()
    return grade_session(session)


class TestFeedback:
    def test_mastery_per_concept(self):
        sitting = graded_sitting({"q1": "A", "q2": "B", "q3": "A"})
        feedback = build_feedback(tagged_exam(), sitting)
        by_concept = {m.concept: m for m in feedback.mastery}
        assert by_concept["sorting"].fraction == 0.5
        assert by_concept["hashing"].fraction == 1.0

    def test_weak_levels_identified(self):
        sitting = graded_sitting({"q1": "A", "q2": "B", "q3": "A"})
        feedback = build_feedback(tagged_exam(), sitting)
        assert CognitionLevel.APPLICATION in feedback.weak_levels
        assert CognitionLevel.KNOWLEDGE not in feedback.weak_levels

    def test_suggestions_for_weak_concepts(self):
        sitting = graded_sitting({"q1": "B", "q2": "B", "q3": "A"})
        feedback = build_feedback(tagged_exam(), sitting)
        assert any("sorting" in s for s in feedback.suggestions)

    def test_all_strong_gets_praise(self):
        sitting = graded_sitting({"q1": "A", "q2": "A", "q3": "A"})
        feedback = build_feedback(tagged_exam(), sitting)
        assert feedback.weak_levels == []
        assert "Solid performance" in feedback.suggestions[0]

    def test_render(self):
        sitting = graded_sitting({"q1": "A", "q2": "B", "q3": "A"})
        text = build_feedback(tagged_exam(), sitting).render()
        assert "lea" in text
        assert "sorting" in text
        assert "%" in text

    def test_bad_threshold_rejected(self):
        sitting = graded_sitting({"q1": "A"})
        with pytest.raises(AnalysisError):
            build_feedback(tagged_exam(), sitting, mastery_threshold=0)

    def test_mastery_sorted_weakest_first(self):
        sitting = graded_sitting({"q1": "B", "q2": "B", "q3": "A"})
        feedback = build_feedback(tagged_exam(), sitting)
        fractions = [m.fraction for m in feedback.mastery]
        assert fractions == sorted(fractions)
