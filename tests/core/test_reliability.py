"""Tests for whole-test reliability statistics (repro.core.reliability)."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.reliability import (
    cronbach_alpha,
    kr20,
    split_half_reliability,
    standard_error_of_measurement,
)


def consistent_matrix(examinees=30, items=10, seed=1):
    """Ability-driven responses: strongly internally consistent."""
    rng = random.Random(seed)
    matrix = []
    for _ in range(examinees):
        ability = rng.gauss(0, 1)
        row = [
            rng.random() < 1 / (1 + pow(2.718, -(ability - (i - items / 2) / 2)))
            for i in range(items)
        ]
        matrix.append(row)
    return matrix


def random_matrix(examinees=30, items=10, seed=2):
    """Coin-flip responses: no internal consistency."""
    rng = random.Random(seed)
    return [
        [rng.random() < 0.5 for _ in range(items)] for _ in range(examinees)
    ]


class TestKr20:
    def test_consistent_test_scores_high(self):
        assert kr20(consistent_matrix(examinees=200, items=20)) > 0.6

    def test_random_test_scores_low(self):
        assert kr20(random_matrix(examinees=200, items=20)) < 0.3

    def test_consistent_beats_random(self):
        assert kr20(consistent_matrix()) > kr20(random_matrix())

    def test_upper_bound(self):
        assert kr20(consistent_matrix(examinees=300, items=40)) <= 1.0

    def test_longer_tests_more_reliable(self):
        short = kr20(consistent_matrix(examinees=300, items=5, seed=3))
        long = kr20(consistent_matrix(examinees=300, items=40, seed=3))
        assert long > short

    def test_single_item_rejected(self):
        with pytest.raises(AnalysisError):
            kr20([[True], [False]])

    def test_single_examinee_rejected(self):
        with pytest.raises(AnalysisError):
            kr20([[True, False]])

    def test_zero_variance_rejected(self):
        with pytest.raises(AnalysisError):
            kr20([[True, False], [True, False]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyCohortError):
            kr20([])

    def test_ragged_rejected(self):
        with pytest.raises(AnalysisError):
            kr20([[True, False], [True]])


class TestCronbachAlpha:
    def test_matches_kr20_for_dichotomous(self):
        matrix = consistent_matrix()
        as_scores = [[1.0 if flag else 0.0 for flag in row] for row in matrix]
        assert cronbach_alpha(as_scores) == pytest.approx(kr20(matrix))

    def test_partial_credit_scores(self):
        rng = random.Random(4)
        matrix = []
        for _ in range(100):
            quality = rng.uniform(0, 1)
            matrix.append(
                [quality * 5 + rng.gauss(0, 0.5) for _ in range(8)]
            )
        assert cronbach_alpha(matrix) > 0.9

    def test_zero_variance_rejected(self):
        with pytest.raises(AnalysisError):
            cronbach_alpha([[1.0, 2.0], [1.0, 2.0]])


class TestSem:
    def test_perfect_reliability_gives_zero(self):
        assert standard_error_of_measurement([1.0, 5.0, 9.0], 1.0) == 0.0

    def test_zero_reliability_gives_sd(self):
        scores = [2.0, 4.0, 6.0, 8.0]
        sem = standard_error_of_measurement(scores, 0.0)
        mean = sum(scores) / 4
        sd = (sum((s - mean) ** 2 for s in scores) / 4) ** 0.5
        assert sem == pytest.approx(sd)

    def test_monotone_in_reliability(self):
        scores = [1.0, 3.0, 7.0, 9.0]
        assert standard_error_of_measurement(
            scores, 0.9
        ) < standard_error_of_measurement(scores, 0.5)

    def test_bad_reliability_rejected(self):
        with pytest.raises(AnalysisError):
            standard_error_of_measurement([1.0, 2.0], 1.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCohortError):
            standard_error_of_measurement([], 0.5)


class TestSplitHalf:
    def test_consistent_test_scores_high(self):
        matrix = [
            [1.0 if flag else 0.0 for flag in row]
            for row in consistent_matrix(examinees=300, items=20)
        ]
        assert split_half_reliability(matrix) > 0.5

    def test_agrees_roughly_with_alpha(self):
        matrix = [
            [1.0 if flag else 0.0 for flag in row]
            for row in consistent_matrix(examinees=400, items=30, seed=9)
        ]
        assert abs(split_half_reliability(matrix) - cronbach_alpha(matrix)) < 0.15

    def test_single_item_rejected(self):
        with pytest.raises(AnalysisError):
            split_half_reliability([[1.0], [0.0]])

    def test_zero_half_variance_rejected(self):
        # odd-position scores identical across examinees
        with pytest.raises(AnalysisError):
            split_half_reliability([[1.0, 2.0], [1.0, 5.0]])

    def test_tiny_half_scores_do_not_underflow(self):
        # var_x * var_y underflowed to 0.0 here: ZeroDivisionError
        assert split_half_reliability([[0.0, 0.0], [1e-160, 1e-160]]) == 1.0


class TestReliabilityProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_kr20_never_exceeds_one(self, seed):
        matrix = consistent_matrix(examinees=25, items=8, seed=seed)
        totals = [sum(row) for row in matrix]
        if len(set(totals)) < 2:
            return  # zero variance is rejected, covered elsewhere
        assert kr20(matrix) <= 1.0


# Scores times _TINY square below the smallest subnormal.  _S is chosen
# so that _S * _TINY is exactly 2.5e-162, where the squared deviations
# went subnormal or to zero: α came out 2.0 and 1.5, the SEM 0.0.
_TINY = 2.0 ** -540
_S = 2.5e-162 / _TINY

partial_credit = st.integers(min_value=0, max_value=40).map(lambda q: q / 4)


def score_matrices():
    return st.integers(min_value=2, max_value=6).flatmap(
        lambda items: st.lists(
            st.lists(partial_credit, min_size=items, max_size=items),
            min_size=2,
            max_size=12,
        )
    )


class TestUnderflow:
    """α and the SEM at scores whose squares underflow.

    KR-20 needs no such guard: it sums booleans, so its totals are
    whole numbers and their squared deviations cannot underflow.
    """

    def test_alpha_of_tiny_identical_items(self):
        assert cronbach_alpha([[0.0, 0.0], [2.5e-162, 2.5e-162]]) == 1.0

    def test_alpha_of_tiny_partial_agreement(self):
        s = 2.5e-162
        matrix = [[0.0, 0.0, 0.0], [s, s, s], [s, 0.0, s]]
        assert cronbach_alpha(matrix) == pytest.approx(6 / 7)

    def test_sem_of_tiny_totals(self):
        assert standard_error_of_measurement([0.0, 2.5e-162], 0.0) == 1.25e-162

    @settings(max_examples=200, deadline=None)
    @given(matrix=score_matrices())
    @example(matrix=[[0.0, 0.0], [_S, _S]])
    @example(matrix=[[0.0, 0.0, 0.0], [_S, _S, _S], [_S, 0.0, _S]])
    def test_alpha_and_sem_are_scale_free(self, matrix):
        totals = [sum(row) for row in matrix]
        assume(len(set(totals)) > 1)  # zero variance is rejected
        alpha = cronbach_alpha(matrix)
        assert alpha <= 1.0
        tiny = [[score * _TINY for score in row] for row in matrix]
        assert cronbach_alpha(tiny) == alpha
        reliability = max(alpha, 0.0)
        tiny_totals = [sum(row) for row in tiny]
        assert standard_error_of_measurement(
            tiny_totals, reliability
        ) / _TINY == standard_error_of_measurement(totals, reliability)
