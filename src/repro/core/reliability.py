"""Whole-test reliability statistics.

Section 4.2 presents the total test "in different aspects"; any item
analysis a teacher acts on is only as trustworthy as the test score
itself.  This module adds the classical reliability statistics that
complete the §4.2 toolbox:

* **KR-20** (Kuder–Richardson formula 20) — internal consistency for
  dichotomously scored items;
* **Cronbach's α** — the generalization to polytomous item scores;
* **standard error of measurement** — SEM = SD·√(1 − reliability), the
  score-scale uncertainty teachers should read alongside every total;
* **split-half reliability** with the Spearman–Brown correction.

All computations use population variance (÷N), the convention of the
classical formulas.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.errors import AnalysisError, EmptyCohortError

__all__ = [
    "kr20",
    "cronbach_alpha",
    "standard_error_of_measurement",
    "split_half_reliability",
]


def _variance(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return sum((value - mean) ** 2 for value in values) / n


def _check_matrix(matrix: Sequence[Sequence[float]]) -> None:
    if not matrix:
        raise EmptyCohortError("no examinees in the score matrix")
    width = len(matrix[0])
    if width == 0:
        raise AnalysisError("score matrix has no items")
    for row in matrix:
        if len(row) != width:
            raise AnalysisError(
                f"ragged score matrix: expected {width} items per row"
            )


def kr20(correct_matrix: Sequence[Sequence[bool]]) -> float:
    """KR-20 internal consistency for right/wrong item scores.

    ``correct_matrix[e][i]`` is True when examinee ``e`` got item ``i``
    right.  Needs at least two items and two examinees.  The result is
    at most 1; it can be negative for pathologically inconsistent tests.
    """
    _check_matrix(correct_matrix)
    examinees = len(correct_matrix)
    items = len(correct_matrix[0])
    if items < 2:
        raise AnalysisError("KR-20 needs at least two items")
    if examinees < 2:
        raise AnalysisError("KR-20 needs at least two examinees")
    totals = [sum(1.0 for flag in row if flag) for row in correct_matrix]
    total_variance = _variance(totals)
    if total_variance == 0:
        raise AnalysisError(
            "total scores have zero variance; KR-20 is undefined"
        )
    pq_sum = 0.0
    for item in range(items):
        p = sum(1 for row in correct_matrix if row[item]) / examinees
        pq_sum += p * (1.0 - p)
    return (items / (items - 1)) * (1.0 - pq_sum / total_variance)


def cronbach_alpha(score_matrix: Sequence[Sequence[float]]) -> float:
    """Cronbach's α for arbitrary (possibly partial-credit) item scores.

    At most 1 (the total's variance never exceeds ``items`` times the
    sum of item variances); rounding is not allowed to push it past.
    """
    _check_matrix(score_matrix)
    examinees = len(score_matrix)
    items = len(score_matrix[0])
    if items < 2:
        raise AnalysisError("alpha needs at least two items")
    if examinees < 2:
        raise AnalysisError("alpha needs at least two examinees")
    # α is scale-invariant: on the unit scale no squared deviation
    # underflows, so tiny scores cannot fake a zero item variance
    flat = _unit_scaled([score for row in score_matrix for score in row])
    rows = [flat[start:start + items] for start in range(0, len(flat), items)]
    totals = [sum(row) for row in rows]
    total_variance = _variance(totals)
    if total_variance == 0:
        raise AnalysisError(
            "total scores have zero variance; alpha is undefined"
        )
    item_variance_sum = sum(
        _variance([row[item] for row in rows]) for item in range(items)
    )
    alpha = (items / (items - 1)) * (1.0 - item_variance_sum / total_variance)
    return min(1.0, alpha)


def standard_error_of_measurement(
    total_scores: Sequence[float], reliability: float
) -> float:
    """SEM = SD(total) · √(1 − reliability), on the total-score scale."""
    if not total_scores:
        raise EmptyCohortError("no total scores")
    if not 0.0 <= reliability <= 1.0:
        raise AnalysisError(
            f"reliability must be in [0, 1] for SEM, got {reliability}"
        )
    # the SD on the unit scale, scaled back: squaring tiny totals
    # directly underflows to a zero SD
    scale = max(abs(score) for score in total_scores)
    sd = math.sqrt(_variance(_unit_scaled(total_scores))) * scale
    return sd * math.sqrt(1.0 - reliability)


def split_half_reliability(
    score_matrix: Sequence[Sequence[float]],
) -> float:
    """Odd/even split-half reliability with the Spearman–Brown correction.

    Splits items into odd- and even-positioned halves, correlates the two
    half scores, and steps the correlation up to full length:
    ``r_full = 2r / (1 + r)``.
    """
    _check_matrix(score_matrix)
    items = len(score_matrix[0])
    if items < 2:
        raise AnalysisError("split-half needs at least two items")
    if len(score_matrix) < 2:
        raise AnalysisError("split-half needs at least two examinees")
    odd_totals: List[float] = []
    even_totals: List[float] = []
    for row in score_matrix:
        odd_totals.append(sum(row[0::2]))
        even_totals.append(sum(row[1::2]))
    r = _pearson(odd_totals, even_totals)
    if r <= -1.0:
        return -1.0
    return 2.0 * r / (1.0 + r)


def _unit_scaled(values: Sequence[float]) -> List[float]:
    """``values`` over their largest magnitude, so squaring them cannot
    underflow; correlations and α are scale-invariant."""
    scale = max(abs(value) for value in values)
    return [value / scale for value in values] if scale else list(values)


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    xs, ys = _unit_scaled(xs), _unit_scaled(ys)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
    var_x = _variance(xs)
    var_y = _variance(ys)
    if var_x == 0 or var_y == 0:
        raise AnalysisError(
            "a half-test has zero score variance; split-half is undefined"
        )
    return max(-1.0, min(1.0, cov / math.sqrt(var_x * var_y)))
