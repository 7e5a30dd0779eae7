"""Tests for the vectorized adaptive-cohort engine
(:mod:`repro.sim.adaptive_cohort`)."""

import pytest

import repro.sim.adaptive_cohort as adaptive_cohort
from repro.core.errors import AnalysisError
from repro.sim.adaptive_cohort import simulate_adaptive_cohort
from repro.sim.population import make_population
from repro.sim.vectorized import HAVE_NUMPY
from repro.sim.workloads import classroom_adaptive_exam, classroom_exam


@pytest.fixture(scope="module")
def exam():
    return classroom_adaptive_exam(question_count=10)


@pytest.fixture(scope="module")
def learners():
    return make_population(30, seed=11)


class TestEngineParity:
    def test_scalar_and_vectorized_are_identical(
        self, exam, learners, monkeypatch
    ):
        """Both drivers consume the same pre-drawn randomness, so the
        administered item order, correctness, stop reasons, and commit
        times must agree exactly — not approximately."""
        if not HAVE_NUMPY:
            pytest.skip("numpy unavailable; only the scalar driver runs")
        vector = simulate_adaptive_cohort(exam, learners, seed=5)
        # the scalar driver is the one that runs where numpy is missing
        monkeypatch.setattr(adaptive_cohort, "HAVE_NUMPY", False)
        scalar = simulate_adaptive_cohort(exam, learners, seed=5)
        assert scalar.item_sequences == vector.item_sequences
        assert scalar.response_flags == vector.response_flags
        assert scalar.stop_reasons == vector.stop_reasons
        assert scalar.answer_times == vector.answer_times
        for left, right in zip(scalar.thetas, vector.thetas):
            assert left == pytest.approx(right, abs=1e-9)

    def test_same_seed_reproduces(self, exam, learners):
        first = simulate_adaptive_cohort(exam, learners, seed=3)
        again = simulate_adaptive_cohort(exam, learners, seed=3)
        assert first.item_sequences == again.item_sequences
        assert first.response_flags == again.response_flags

    def test_different_seeds_differ(self, exam, learners):
        first = simulate_adaptive_cohort(exam, learners, seed=1)
        other = simulate_adaptive_cohort(exam, learners, seed=2)
        assert first.response_flags != other.response_flags


class TestValidation:
    def test_requires_adaptive_policy(self, learners):
        with pytest.raises(AnalysisError, match="adaptive"):
            simulate_adaptive_cohort(classroom_exam(5), learners)

    def test_rejects_bad_noise_and_pace(self, exam, learners):
        with pytest.raises(AnalysisError, match="sigma"):
            simulate_adaptive_cohort(exam, learners, sigma=-0.1)
        with pytest.raises(AnalysisError):
            simulate_adaptive_cohort(exam, learners, base_seconds=0.0)


class TestCohortData:
    def test_policy_is_respected(self, exam, learners):
        data = simulate_adaptive_cohort(exam, learners, seed=7)
        policy = exam.adaptive
        assert len(data) == len(learners)
        for sequence, flags, reason in zip(
            data.item_sequences, data.response_flags, data.stop_reasons
        ):
            assert len(sequence) == len(flags)
            assert policy.min_items <= len(sequence) <= policy.max_items
            assert len(set(sequence)) == len(sequence)  # no repeats
            assert reason in ("max_items", "pool_exhausted", "se_target")

    def test_unadministered_items_are_none(self, exam, learners):
        data = simulate_adaptive_cohort(exam, learners, seed=7)
        item_ids = [item.item_id for item in exam.analyzable_items()]
        for row, sequence in zip(data.responses, data.item_sequences):
            served = set(sequence)
            for item_id, selection in zip(item_ids, row.selections):
                if item_id in served:
                    assert selection is not None
                else:
                    assert selection is None

    def test_commit_times_are_increasing(self, exam, learners):
        data = simulate_adaptive_cohort(exam, learners, seed=7)
        for times in data.answer_times:
            assert all(
                later > earlier for earlier, later in zip(times, times[1:])
            )
        assert all(duration > 0 for duration in data.durations)

    def test_duck_types_into_cohort_analysis(self, exam, learners):
        data = simulate_adaptive_cohort(exam, learners, seed=7)
        analysis = data.analyze()
        assert len(analysis.questions) == len(data.specs)

    def test_items_administered_is_the_cat_saving(self, exam, learners):
        data = simulate_adaptive_cohort(exam, learners, seed=7)
        fixed_length = len(data.specs) * len(learners)
        assert 0 < data.items_administered < fixed_length

    def test_ability_recovery_orders_extremes(self, exam):
        strong = [
            learner for learner in make_population(60, seed=21)
            if learner.ability > 1.0
        ]
        weak = [
            learner for learner in make_population(60, seed=21)
            if learner.ability < -1.0
        ]
        assert strong and weak
        high = simulate_adaptive_cohort(exam, strong, seed=9)
        low = simulate_adaptive_cohort(exam, weak, seed=9)
        mean = lambda values: sum(values) / len(values)
        assert mean(high.thetas) > mean(low.thetas)


class TestWorkloadFactory:
    def test_classroom_adaptive_exam_shape(self):
        exam = classroom_adaptive_exam(question_count=12, max_items=5)
        assert exam.adaptive is not None
        assert exam.adaptive.max_items == 5
        assert set(exam.adaptive.parameters) == {
            item.item_id for item in exam.analyzable_items()
        }

    def test_default_budget_is_half_the_pool(self):
        exam = classroom_adaptive_exam(question_count=10)
        assert exam.adaptive.max_items == 5
