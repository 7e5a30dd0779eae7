"""Learner responses and scoring results.

A raw response is whatever a learner submitted (an option label, a text,
True/False, a mapping for match items).  :func:`Item.score` turns a raw
response into a :class:`ScoredResponse` — awarded points, maximum points,
and whether the response needs manual grading (essays, questionnaires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.errors import ResponseError

__all__ = ["ScoredResponse", "scored_to_dict"]


@dataclass(frozen=True)
class ScoredResponse:
    """The result of grading one response to one item.

    ``points``/``max_points`` — awarded and available score;
    ``correct`` — True/False for objective items, ``None`` while a
    subjective item awaits manual grading; ``needs_manual_grading`` — True
    for essay/questionnaire responses; ``selected`` — the normalized
    response recorded for analysis (the option label for choice styles).
    """

    points: float
    max_points: float
    correct: Optional[bool]
    needs_manual_grading: bool = False
    selected: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_points < 0:
            raise ResponseError(f"max_points must be >= 0, got {self.max_points}")
        if not 0 <= self.points <= self.max_points:
            raise ResponseError(
                f"points ({self.points}) must be within [0, {self.max_points}]"
            )

    @classmethod
    def right(cls, max_points: float = 1.0, selected: Optional[str] = None):
        """A fully correct response."""
        return cls(
            points=max_points,
            max_points=max_points,
            correct=True,
            selected=selected,
        )

    @classmethod
    def wrong(cls, max_points: float = 1.0, selected: Optional[str] = None):
        """An incorrect (or skipped) response."""
        return cls(points=0.0, max_points=max_points, correct=False, selected=selected)

    @classmethod
    def partial(
        cls, points: float, max_points: float, selected: Optional[str] = None
    ):
        """Partial credit; correct only at full marks."""
        return cls(
            points=points,
            max_points=max_points,
            correct=points == max_points,
            selected=selected,
        )

    @classmethod
    def pending(cls, max_points: float = 1.0, selected: Optional[str] = None):
        """A response that a human must grade."""
        return cls(
            points=0.0,
            max_points=max_points,
            correct=None,
            needs_manual_grading=True,
            selected=selected,
        )


def scored_to_dict(score: ScoredResponse) -> Dict[str, object]:
    """A :class:`ScoredResponse` as a JSON-compatible dict (served, and
    stored in checkpoints)."""
    return {
        "points": score.points,
        "max_points": score.max_points,
        "correct": score.correct,
        "needs_manual_grading": score.needs_manual_grading,
        "selected": score.selected,
    }
