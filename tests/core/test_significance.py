"""Tests for significance testing (repro.core.significance)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import AnalysisError
from repro.core.significance import (
    discrimination_significance,
    isi_significance,
    proportion_confidence_interval,
)


class TestDiscriminationSignificance:
    def test_strong_discrimination_significant(self):
        # PH = 18/20, PL = 4/20: clearly real
        result = discrimination_significance(18, 20, 4, 20)
        assert result.significant
        assert result.statistic > 3

    def test_no_discrimination_not_significant(self):
        result = discrimination_significance(10, 20, 10, 20)
        assert not result.significant
        assert result.p_value == pytest.approx(0.5, abs=0.01)

    def test_paper_question_2_is_significant(self):
        """Worked example no.2: 10/11 vs 4/11 — a real difference even
        in a class of 44."""
        result = discrimination_significance(10, 11, 4, 11)
        assert result.significant

    def test_paper_question_6_is_not_significant(self):
        """Worked example no.6: 5/11 vs 4/11 — indistinguishable from
        noise, supporting the paper's 'eliminate or fix' verdict."""
        result = discrimination_significance(5, 11, 4, 11)
        assert not result.significant

    def test_inverted_item_far_from_significant(self):
        result = discrimination_significance(4, 20, 18, 20)
        assert result.p_value > 0.99

    def test_degenerate_all_correct(self):
        result = discrimination_significance(20, 20, 20, 20)
        assert result.p_value == 1.0

    def test_bad_counts_rejected(self):
        with pytest.raises(AnalysisError):
            discrimination_significance(5, 0, 1, 10)
        with pytest.raises(AnalysisError):
            discrimination_significance(11, 10, 1, 10)

    def test_bad_alpha_rejected(self):
        with pytest.raises(AnalysisError):
            discrimination_significance(5, 10, 1, 10, alpha=0)


class TestIsiSignificance:
    def test_clear_teaching_effect(self):
        pre = [False] * 30 + [True] * 10
        post = [True] * 35 + [False] * 5
        result = isi_significance(pre, post)
        assert result.significant

    def test_no_change_not_significant(self):
        pre = [True, False] * 20
        post = list(pre)
        result = isi_significance(pre, post)
        assert result.p_value == 1.0

    def test_balanced_churn_not_significant(self):
        rng = random.Random(3)
        pre, post = [], []
        for _ in range(60):
            before = rng.random() < 0.5
            # flip with equal probability in both directions
            after = (not before) if rng.random() < 0.3 else before
            pre.append(before)
            post.append(after)
        result = isi_significance(pre, post)
        assert result.p_value > 0.05

    def test_regression_not_significant_for_improvement(self):
        pre = [True] * 20
        post = [False] * 15 + [True] * 5
        result = isi_significance(pre, post)
        assert not result.significant  # one-sided: improvement only

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            isi_significance([True], [True, False])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            isi_significance([], [])


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = proportion_confidence_interval(80, 100)
        assert low < 0.8 < high

    def test_narrows_with_sample_size(self):
        narrow = proportion_confidence_interval(800, 1000)
        wide = proportion_confidence_interval(8, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_bounded_by_unit_interval(self):
        low, high = proportion_confidence_interval(0, 10)
        assert low == 0.0
        assert 0.0 <= high <= 1.0
        low, high = proportion_confidence_interval(10, 10)
        assert high == pytest.approx(1.0)

    def test_paper_worked_example_interval(self):
        """P = 0.8 with N = 1000: a tight interval around 0.8."""
        low, high = proportion_confidence_interval(800, 1000)
        assert low > 0.77
        assert high < 0.83

    def test_higher_confidence_wider(self):
        ninety = proportion_confidence_interval(50, 100, confidence=0.90)
        ninety_nine = proportion_confidence_interval(50, 100, confidence=0.99)
        assert (ninety_nine[1] - ninety_nine[0]) > (ninety[1] - ninety[0])

    def test_bad_confidence_rejected(self):
        with pytest.raises(AnalysisError):
            proportion_confidence_interval(5, 10, confidence=1.0)


def close(expected):
    """Equal to 1e-12 relative, with no absolute slack for tiny p."""
    return pytest.approx(expected, rel=1e-12, abs=0.0)


def paired(improved, regressed, unchanged=0):
    """Pre/post vectors with the given discordant counts."""
    pre = [False] * improved + [True] * regressed + [True] * unchanged
    post = [True] * improved + [False] * regressed + [True] * unchanged
    return pre, post


class TestPinnedValues:
    """Results recorded from scipy (``norm.sf``, ``norm.ppf``,
    ``binomtest``) before the module moved to the standard library."""

    @pytest.mark.parametrize(
        "counts, statistic, p_value",
        [
            # the paper's worked examples no.2 and no.6
            ((10, 11, 4, 11), 2.6592157812837547, 0.003916139111902074),
            ((5, 11, 4, 11), 0.4336290903919938, 0.3322789033178278),
            ((18, 20, 4, 20), 4.449492083146097, 4.303680124052705e-06),
            ((10, 20, 10, 20), 0.0, 0.5),
            ((4, 20, 18, 20), -4.449492083146097, 0.999995696319876),
            ((12, 15, 6, 15), 2.23606797749979, 0.012673659338734126),
            ((27, 30, 3, 30), 6.196773353931868, 2.8816198142553437e-10),
            ((7, 12, 5, 10), 0.39086797998528594, 0.34794741158538844),
            ((30, 40, 29, 40), 0.25410273544655243, 0.3997080950680829),
            ((100, 100, 1, 100), 14.001414355714068, 7.639963167429739e-45),
        ],
    )
    def test_z_test(self, counts, statistic, p_value):
        result = discrimination_significance(*counts)
        assert result.statistic == close(statistic)
        assert result.p_value == close(p_value)

    @pytest.mark.parametrize(
        "correct, total, confidence, low, high",
        [
            (80, 100, 0.90, 0.7266961911903833, 0.8574981763397123),
            (80, 100, 0.95, 0.7111708344068411, 0.8666330666689676),
            (80, 100, 0.99, 0.6798264673845551, 0.8828411199859512),
            (8, 10, 0.90, 0.540792805687488, 0.931442012262468),
            (8, 10, 0.95, 0.49016247153664183, 0.9433178485456247),
            (8, 10, 0.99, 0.4008186965216716, 0.9598688474953836),
            (1, 44, 0.90, 0.005086716124354726, 0.09566242639917165),
            (1, 44, 0.95, 0.004023252060053224, 0.11807709698213287),
            (1, 44, 0.99, 0.002673953695225245, 0.16785856795797513),
            (43, 44, 0.90, 0.9043375736008283, 0.9949132838756451),
            (43, 44, 0.95, 0.8819229030178671, 0.9959767479399467),
            (43, 44, 0.99, 0.8321414320420251, 0.9973260463047748),
            (0, 10, 0.90, 0.0, 0.21294197008340698),
            (0, 10, 0.95, 0.0, 0.2775327998628892),
            (0, 10, 0.99, 0.0, 0.3988540933049081),
            (10, 10, 0.90, 0.787058029916593, 1.0),
            (10, 10, 0.95, 0.7224672001371107, 0.9999999999999999),
            (10, 10, 0.99, 0.6011459066950919, 1.0),
        ],
    )
    def test_wilson_interval(self, correct, total, confidence, low, high):
        interval = proportion_confidence_interval(correct, total, confidence)
        assert interval == close((low, high))

    @pytest.mark.parametrize(
        "improved, regressed, p_value",
        [
            (25, 0, 2.9802322387695312e-08),
            (5, 10, 0.940765380859375),
            (12, 3, 0.017578125),
            (0, 7, 1.0),
            (9, 9, 0.5927352905273438),
            (30, 18, 0.05570144553050939),
            (1, 0, 0.5),
            (60, 40, 0.028443966820490444),
        ],
    )
    def test_mcnemar(self, improved, regressed, p_value):
        result = isi_significance(*paired(improved, regressed))
        assert result.statistic == improved
        assert result.p_value == close(p_value)


class TestExactBinomialTail:
    @settings(max_examples=200, deadline=None)
    @given(
        improved=st.integers(min_value=0, max_value=200),
        regressed=st.integers(min_value=0, max_value=200),
        unchanged=st.integers(min_value=1, max_value=5),
    )
    def test_matches_fraction_oracle(self, improved, regressed, unchanged):
        n = improved + regressed
        assume(n <= 200)
        tail = Fraction(
            sum(math.comb(n, k) for k in range(improved, n + 1)), 2**n
        )
        pre, post = paired(improved, regressed, unchanged)
        assert isi_significance(pre, post).p_value == float(tail)

    def test_twenty_thousand_discordant_pairs(self):
        # at the midpoint of an even n, P(X >= n/2) = (1 + C(n, n/2)/2^n)/2
        n = 20_000
        pre, post = paired(n // 2, n // 2)
        expected = Fraction(2**n + math.comb(n, n // 2), 2 ** (n + 1))
        assert isi_significance(pre, post).p_value == float(expected)
