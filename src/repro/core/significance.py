"""Statistical significance for the paper's comparisons.

The paper reads differences directly (PH vs PL, pre- vs post-teaching);
with the class sizes involved those differences carry sampling noise.
This module adds the standard significance tests so the library's advice
can say not just "D is low" but "D is low *and* the data support it":

* :func:`discrimination_significance` — the two-proportion z-test on
  PH vs PL (is the item's discrimination real?);
* :func:`isi_significance` — McNemar's exact test on paired pre/post
  correctness (did teaching actually change this item's outcomes?);
* :func:`proportion_confidence_interval` — the Wilson interval for a
  difficulty index, so stored P values can carry uncertainty.

The standard library supplies the normal distribution (``math.erfc``,
``statistics.NormalDist``); McNemar's binomial tail is summed exactly in
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence, Tuple

from repro.core.errors import AnalysisError

__all__ = [
    "TestResult",
    "discrimination_significance",
    "isi_significance",
    "proportion_confidence_interval",
]


@dataclass(frozen=True)
class TestResult:
    """A test statistic, its p-value, and the decision at α."""

    statistic: float
    p_value: float
    alpha: float

    @property
    def significant(self) -> bool:
        """True when p < alpha."""
        return self.p_value < self.alpha


def discrimination_significance(
    high_correct: int,
    high_total: int,
    low_correct: int,
    low_total: int,
    alpha: float = 0.05,
) -> TestResult:
    """Two-proportion z-test: is PH really larger than PL?

    One-sided (the paper's D is meant to be positive).  Returns the z
    statistic; degenerate pooled proportions (0 or 1) give p = 1 — no
    evidence either way.
    """
    _check_counts(high_correct, high_total, "high")
    _check_counts(low_correct, low_total, "low")
    _check_alpha(alpha)
    p_high = high_correct / high_total
    p_low = low_correct / low_total
    pooled = (high_correct + low_correct) / (high_total + low_total)
    if pooled in (0.0, 1.0):
        return TestResult(statistic=0.0, p_value=1.0, alpha=alpha)
    se = math.sqrt(pooled * (1 - pooled) * (1 / high_total + 1 / low_total))
    z = (p_high - p_low) / se
    p_value = 0.5 * math.erfc(z / math.sqrt(2))  # one-sided: PH > PL
    return TestResult(statistic=z, p_value=p_value, alpha=alpha)


def isi_significance(
    pre_correct: Sequence[bool],
    post_correct: Sequence[bool],
    alpha: float = 0.05,
) -> TestResult:
    """McNemar's exact test on paired pre/post correctness (§3.4).

    ``pre_correct[i]``/``post_correct[i]`` are the same examinee's
    outcomes on the item before and after teaching.  Only discordant
    pairs inform the test: b = wrong→right, c = right→wrong; under H0
    (no teaching effect) b ~ Binomial(b + c, 0.5).  One-sided for
    improvement.
    """
    _check_alpha(alpha)
    if len(pre_correct) != len(post_correct):
        raise AnalysisError(
            f"paired vectors differ in length: {len(pre_correct)} vs "
            f"{len(post_correct)}"
        )
    if not pre_correct:
        raise AnalysisError("no paired observations")
    improved = sum(
        1 for before, after in zip(pre_correct, post_correct)
        if not before and after
    )
    regressed = sum(
        1 for before, after in zip(pre_correct, post_correct)
        if before and not after
    )
    discordant = improved + regressed
    if discordant == 0:
        return TestResult(statistic=0.0, p_value=1.0, alpha=alpha)
    return TestResult(
        statistic=float(improved),
        p_value=_binomial_upper_tail(improved, discordant),
        alpha=alpha,
    )


def _binomial_upper_tail(successes: int, trials: int) -> float:
    """P(X >= successes) for X ~ Binomial(trials, 0.5), correctly rounded.

    Sums C(trials, k) for k >= successes in integers with the running
    term C(n, k+1) = C(n, k) * (n - k) // (k + 1), one small multiply
    and divide per term instead of a fresh ``math.comb`` each, and
    divides by 2**trials once at the end.
    """
    term = math.comb(trials, successes)
    tail = 0
    for k in range(successes, trials + 1):
        tail += term
        term = term * (trials - k) // (k + 1)
    return tail / 2**trials


def proportion_confidence_interval(
    correct: int, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a difficulty index P = correct/total."""
    _check_counts(correct, total, "item")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    z = NormalDist().inv_cdf(1 - (1 - confidence) / 2)
    p = correct / total
    denominator = 1 + z * z / total
    centre = (p + z * z / (2 * total)) / denominator
    half_width = (
        z
        * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total))
        / denominator
    )
    # an all-wrong or all-right item pins its end exactly: the
    # quantile's last-ulp rounding must not open a gap at 0 or 1
    low = 0.0 if correct == 0 else max(0.0, centre - half_width)
    high = 1.0 if correct == total else min(1.0, centre + half_width)
    return (low, high)


def _check_counts(correct: int, total: int, name: str) -> None:
    if total <= 0:
        raise AnalysisError(f"{name} group total must be positive, got {total}")
    if not 0 <= correct <= total:
        raise AnalysisError(
            f"{name} group correct ({correct}) outside [0, {total}]"
        )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise AnalysisError(f"alpha must be in (0, 1), got {alpha}")
