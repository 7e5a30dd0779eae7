"""Classical test theory baselines.

The paper's analysis model uses the upper/lower-25% method (§4.1.1).
This module implements the standard alternatives it is measured against
in the ablation benches:

* **whole-group difficulty** — P = R/N over every examinee (the paper's
  own §3.3 definition), versus the split-group P = (PH + PL)/2;
* **point-biserial discrimination** — the correlation between item
  correctness and total score, the textbook alternative to D = PH − PL;
* :func:`classical_item_analysis` — both statistics for every question
  of a cohort, as a Moodle/edX-style item report would compute them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.question_analysis import ExamineeResponses, QuestionSpec

__all__ = [
    "whole_group_difficulty",
    "point_biserial",
    "ClassicalItemStats",
    "classical_item_analysis",
]


def whole_group_difficulty(correct_flags: Sequence[bool]) -> float:
    """P = R/N over the entire cohort (§3.3's definition)."""
    if not correct_flags:
        raise EmptyCohortError("no correctness flags")
    return sum(1 for flag in correct_flags if flag) / len(correct_flags)


def point_biserial(
    correct_flags: Sequence[bool], total_scores: Sequence[float]
) -> float:
    """Point-biserial correlation between item correctness and total score.

    Returns 0.0 for degenerate cases (everyone right/wrong, or zero score
    variance) — the convention item-analysis packages use.
    """
    if len(correct_flags) != len(total_scores):
        raise AnalysisError(
            f"{len(correct_flags)} flags vs {len(total_scores)} scores"
        )
    n = len(correct_flags)
    if n == 0:
        raise EmptyCohortError("no examinees")
    p = sum(1 for flag in correct_flags if flag) / n
    if p in (0.0, 1.0):
        return 0.0
    # the statistic is scale-invariant: scaling to max |score| = 1 keeps
    # tiny scores from underflowing when squared
    scale = max(abs(score) for score in total_scores)
    if scale == 0:
        return 0.0
    scores = [score / scale for score in total_scores]
    mean = sum(scores) / n
    variance = sum((score - mean) ** 2 for score in scores) / n
    if variance == 0:
        return 0.0
    mean_correct = (
        sum(score for flag, score in zip(correct_flags, scores) if flag)
        / (p * n)
    )
    mean_wrong = (
        sum(score for flag, score in zip(correct_flags, scores) if not flag)
        / ((1 - p) * n)
    )
    r = (mean_correct - mean_wrong) * math.sqrt(p * (1 - p)) / math.sqrt(
        variance
    )
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class ClassicalItemStats:
    """Whole-group statistics for one question."""

    number: int
    difficulty: float  # P = R/N
    point_biserial: float


def classical_item_analysis(
    responses: Sequence[ExamineeResponses],
    questions: Sequence[QuestionSpec],
) -> List[ClassicalItemStats]:
    """The classical (whole-group) item report for a cohort."""
    if not responses:
        raise EmptyCohortError("no examinee responses")
    if not questions:
        raise AnalysisError("no questions")
    totals: Dict[str, float] = {}
    per_question_flags: List[List[bool]] = [[] for _ in questions]
    total_scores: List[float] = []
    for response in responses:
        if len(response.selections) != len(questions):
            raise AnalysisError(
                f"examinee {response.examinee_id!r} answered "
                f"{len(response.selections)} of {len(questions)} questions"
            )
        score = 0.0
        for index, (selection, spec) in enumerate(
            zip(response.selections, questions)
        ):
            correct = selection == spec.correct
            per_question_flags[index].append(correct)
            score += 1.0 if correct else 0.0
        total_scores.append(score)
    stats = []
    for index, flags in enumerate(per_question_flags):
        stats.append(
            ClassicalItemStats(
                number=index + 1,
                difficulty=whole_group_difficulty(flags),
                point_biserial=point_biserial(flags, total_scores),
            )
        )
    return stats
