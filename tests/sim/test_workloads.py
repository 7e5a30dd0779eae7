"""Tests for simulation workloads (repro.sim.workloads)."""

import pytest

from repro.core.grouping import GroupSplit
from repro.core.question_analysis import analyze_cohort
from repro.core.signals import Signal
from repro.sim.population import make_population
from repro.sim.workloads import (
    classroom_exam,
    classroom_parameters,
    pre_post_cohorts,
    simulate_sitting_data,
)


class TestClassroomScenario:
    def test_exam_shape(self):
        exam = classroom_exam()
        assert len(exam.items) == 10
        assert exam.time_limit_seconds == 45 * 60
        assert all(item.subject for item in exam.items)
        assert all(item.cognition_level is not None for item in exam.items)

    def test_parameters_cover_every_item(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        assert set(parameters) == {item.item_id for item in exam.items}

    def test_simulation_reproducible(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        learners = make_population(40, seed=5)
        a = simulate_sitting_data(exam, parameters, learners, seed=9)
        b = simulate_sitting_data(exam, parameters, learners, seed=9)
        assert a.responses == b.responses
        assert a.answer_times == b.answer_times

    def test_different_seed_differs(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        learners = make_population(40, seed=5)
        a = simulate_sitting_data(exam, parameters, learners, seed=9)
        b = simulate_sitting_data(exam, parameters, learners, seed=10)
        assert a.responses != b.responses

    def test_shapes(self):
        exam = classroom_exam()
        learners = make_population(25, seed=1)
        data = simulate_sitting_data(
            exam, classroom_parameters(), learners, seed=2
        )
        assert len(data.responses) == 25
        assert all(len(r.selections) == 10 for r in data.responses)
        assert all(len(times) == 10 for times in data.answer_times)
        assert len(data.durations) == 25
        assert all(duration > 0 for duration in data.durations)

    def test_times_increase_within_sitting(self):
        exam = classroom_exam()
        learners = make_population(5, seed=1)
        data = simulate_sitting_data(
            exam, classroom_parameters(), learners, seed=2
        )
        for times in data.answer_times:
            assert times == sorted(times)


class TestEngineeredQuality:
    """The classroom parameters must actually trigger the paper's rules."""

    def setup_method(self):
        exam = classroom_exam()
        learners = make_population(200, seed=11)
        data = simulate_sitting_data(
            exam, classroom_parameters(), learners, seed=12
        )
        self.analysis = analyze_cohort(
            data.responses, data.specs, split=GroupSplit()
        )

    def test_healthy_items_are_green(self):
        # q1 is a healthy high-a item
        assert self.analysis.question(1).signal is Signal.GREEN

    def test_dead_distractor_fires_rule_1(self):
        assert self.analysis.question(2).rules.rule_fired(1)

    def test_too_hard_guessing_item_fires_rule_3(self):
        # q5: a=0.25, b=4.0 — both groups guess close to uniformly
        assert self.analysis.question(5).rules.rule_fired(3)

    def test_flat_items_discriminate_worse_than_healthy_ones(self):
        # q3/q5 are low-a items; with a 10-question exam their D is
        # inflated by part-whole contamination (the item's own luck moves
        # examinees between groups), so assert the *ordering*, which is
        # the robust shape: engineered-flat items sit below healthy ones.
        healthy = self.analysis.question(1).discrimination
        assert self.analysis.question(3).discrimination < healthy
        assert self.analysis.question(5).discrimination < healthy

    def test_guessing_item_lands_outside_green(self):
        # q5: a=0.25, b=4.0 — pure guessing; even with contamination its
        # D stays below the 0.30 green cut point.
        assert self.analysis.question(5).signal is not Signal.GREEN


class TestPrePost:
    def test_teaching_raises_scores(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        pre, post = pre_post_cohorts(exam, parameters, size=80, seed=3)
        pre_total = sum(
            sum(1 for s, spec in zip(r.selections, pre.specs) if s == spec.correct)
            for r in pre.responses
        )
        post_total = sum(
            sum(1 for s, spec in zip(r.selections, post.specs) if s == spec.correct)
            for r in post.responses
        )
        assert post_total > pre_total

    def test_same_learner_ids(self):
        exam = classroom_exam()
        pre, post = pre_post_cohorts(exam, classroom_parameters(), size=20)
        assert [r.examinee_id for r in pre.responses] == [
            r.examinee_id for r in post.responses
        ]

    def test_omit_rate_threads_to_both_sittings(self):
        # regression: omit_rate used to be silently dropped, so ISI
        # studies could not model omission at all
        exam = classroom_exam()
        pre, post = pre_post_cohorts(
            exam, classroom_parameters(), size=60, seed=3, omit_rate=0.4
        )
        for data in (pre, post):
            omitted = sum(
                1
                for response in data.responses
                for selection in response.selections
                if selection is None
            )
            assert abs(omitted / (60 * 10) - 0.4) < 0.1

    def test_base_seconds_threads_to_both_sittings(self):
        exam = classroom_exam()
        slow_pre, slow_post = pre_post_cohorts(
            exam, classroom_parameters(), size=40, seed=3, base_seconds=90.0
        )
        fast_pre, fast_post = pre_post_cohorts(
            exam, classroom_parameters(), size=40, seed=3, base_seconds=9.0
        )
        for slow, fast in ((slow_pre, fast_pre), (slow_post, fast_post)):
            # identical seeds: only the base rescales, exactly 10x
            ratio = sum(slow.durations) / sum(fast.durations)
            assert ratio == pytest.approx(10.0, rel=1e-9)

    def test_sim_engine_threads_through(self):
        # both sittings come from the scalar generator with every
        # argument forwarded: the pre sitting equals a direct call
        exam, parameters = classroom_exam(), classroom_parameters()
        pre, post = pre_post_cohorts(
            exam, parameters, size=40, seed=3,
            base_seconds=30.0, omit_rate=0.1, sigma=0.5,
        )
        direct = simulate_sitting_data(
            exam, parameters, make_population(40, mean_ability=-0.6, seed=3),
            seed=4, base_seconds=30.0, omit_rate=0.1, sigma=0.5,
        )
        assert pre.responses == direct.responses
        assert pre.answer_times == direct.answer_times
        assert sum(post.analyze().scores.values()) > sum(
            pre.analyze().scores.values()
        )
