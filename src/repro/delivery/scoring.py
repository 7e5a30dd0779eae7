"""Scoring submitted sittings and folding them into cohort aggregates.

:func:`grade_session` turns a submitted :class:`ExamSession` into a
:class:`GradedSitting`: per-item scored responses, the total, and the
pending-manual-grading list (essays).  :class:`ExamCohort` folds graded
sittings into one exam's cohort aggregates; the LMS and the journal-fed
read model each hold one per exam.  :func:`sittings_to_responses`
converts a cohort of graded sittings into the
:class:`~repro.core.question_analysis.ExamineeResponses` the §4.1
analysis pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.cognition import COGNITIVE_LEVELS
from repro.core.columnar import LiveCohortAnalysis
from repro.core.errors import AnalysisError, ResponseError, SessionStateError
from repro.core.question_analysis import CohortAnalysis, ExamineeResponses
from repro.delivery.session import ExamSession, SessionState
from repro.exams.exam import Exam
from repro.items.essay import EssayItem
from repro.items.responses import ScoredResponse

__all__ = ["ExamCohort", "GradedSitting", "grade_session", "score_responses",
           "sittings_to_responses"]

#: score-distribution decades: [0,10) .. [90,100) plus the exact-100 bucket
DISTRIBUTION_BUCKETS = 11


def _bucket(percent: float) -> int:
    return min(int(percent // 10), DISTRIBUTION_BUCKETS - 1)


def _percent(scores: Mapping[str, ScoredResponse]) -> float:
    maximum = sum(score.max_points for score in scores.values())
    if not maximum:
        return 0.0
    return sum(score.points for score in scores.values()) / maximum * 100.0


@dataclass
class GradedSitting:
    """One learner's graded sitting."""

    exam_id: str
    learner_id: str
    scores: Dict[str, ScoredResponse]
    duration_seconds: float
    answer_times: List[float] = field(default_factory=list)

    @property
    def total_points(self) -> float:
        """Points earned across all items."""
        return sum(score.points for score in self.scores.values())

    @property
    def max_points(self) -> float:
        """Points available across all items."""
        return sum(score.max_points for score in self.scores.values())

    @property
    def percent(self) -> float:
        """Earned share of the available points, 0-100."""
        return _percent(self.scores)

    def pending_items(self) -> List[str]:
        """Item ids awaiting manual grading."""
        return [
            item_id
            for item_id, score in self.scores.items()
            if score.needs_manual_grading
        ]

    def is_fully_graded(self) -> bool:
        """True when no item awaits manual grading."""
        return not self.pending_items()

    def apply_manual_grade(
        self, exam: Exam, item_id: str, points: float
    ) -> None:
        """Record a human grader's points for a pending essay response."""
        score = self.scores.get(item_id)
        if score is None:
            raise ResponseError(f"sitting has no response for {item_id!r}")
        if not score.needs_manual_grading:
            raise ResponseError(f"item {item_id!r} is not awaiting grading")
        item = exam.item(item_id)
        if not isinstance(item, EssayItem):
            raise ResponseError(
                f"item {item_id!r} is not an essay; cannot manually grade"
            )
        self.scores[item_id] = item.grade(score.selected or "", points)


def score_responses(
    exam: Exam, response_to: Callable[[str], object]
) -> Dict[str, ScoredResponse]:
    """Score every item of ``exam`` in exam order; ``response_to(item_id)``
    is the final response (None when unanswered).  Both the LMS and the
    read model grade with it."""
    return {
        item.item_id: item.score(response_to(item.item_id))
        for item in exam.items
    }


def grade_session(session: ExamSession) -> GradedSitting:
    """Grade a submitted session against its exam's keys."""
    if session.state is not SessionState.SUBMITTED:
        raise SessionStateError(
            f"cannot grade a session in state {session.state.value}"
        )
    return GradedSitting(
        exam_id=session.exam.exam_id,
        learner_id=session.learner_id,
        scores=score_responses(session.exam, session.response_to),
        duration_seconds=session.duration_seconds(),
        answer_times=session.answer_times(),
    )


class ExamCohort:
    """One exam's cohort aggregates over each learner's latest sitting:
    the option-choice matrix ``live`` (None when no matrix can hold the
    exam), ``percents`` with decade ``buckets``, and per-Bloom-level
    ``level_correct`` counts with ``level_totals``.  The LMS and the
    read model update theirs only through :meth:`fold`."""

    def __init__(self, exam: Exam) -> None:
        self._analyzable = [item.item_id for item in exam.analyzable_items()]
        self.specs = tuple(exam.question_specs())
        try:
            self.live: Optional[LiveCohortAnalysis] = LiveCohortAnalysis(
                self.specs
            )
        except AnalysisError:
            self.live = None
        self.percents: Dict[str, float] = {}
        self.buckets: List[int] = [0] * DISTRIBUTION_BUCKETS
        self.level_correct: Dict[str, Dict[str, int]] = {}
        self.level_totals = {level.letter: 0 for level in COGNITIVE_LEVELS}

    def fold(
        self, learner_id: str, scores: Mapping[str, ScoredResponse]
    ) -> None:
        """Fold a learner's graded sitting, given as item id -> scored
        response, in place of their earlier one."""
        selections: List[Optional[str]] = []
        levels: Dict[str, int] = {}
        for item_id, spec in zip(self._analyzable, self.specs):
            score = scores.get(item_id)
            selected = score.selected if score is not None else None
            selections.append(selected)
            if spec.cognition_level is not None and selected == spec.correct:
                letter = spec.cognition_level.letter
                levels[letter] = levels.get(letter, 0) + 1
        if self.live is not None:
            # drop any earlier sitting by this learner, then add this one
            self.live.invalidate(learner_id)
            self.live.add_sitting(ExamineeResponses.of(learner_id, selections))
        self.set_latest(learner_id, _percent(scores), levels)

    def set_latest(
        self, learner_id: str, percent: float, levels: Dict[str, int]
    ) -> None:
        """Replace a learner's latest percent and per-level counts (the
        fold's scalar half; a read-model snapshot restores through it)."""
        previous = self.percents.pop(learner_id, None)
        if previous is not None:
            self.buckets[_bucket(previous)] -= 1
        for letter, count in self.level_correct.pop(learner_id, {}).items():
            self.level_totals[letter] -= count
        self.percents[learner_id] = percent
        self.buckets[_bucket(percent)] += 1
        self.level_correct[learner_id] = levels
        for letter, count in levels.items():
            self.level_totals[letter] += count

    def _matrix(self) -> LiveCohortAnalysis:
        if self.live is None:
            LiveCohortAnalysis(self.specs)  # raises the engine's error
        return self.live

    def analysis(self) -> CohortAnalysis:
        """The current cohort's §4.1 analysis (cached in the matrix)."""
        return self._matrix().analysis()

    def partial(self) -> Dict[str, object]:
        """The cohort as a scatter-gather partial."""
        return self._matrix().export_partial()


def sittings_to_responses(
    exam: Exam, sittings: List[GradedSitting]
) -> List[ExamineeResponses]:
    """Convert graded sittings to the analysis model's input shape.

    Covers the choice-style items :meth:`Exam.question_specs` declares
    (multiple choice / true-false), in exam order; the recorded selection
    is the scored response's normalized ``selected`` label.
    """
    analyzable = exam.analyzable_items()
    responses: List[ExamineeResponses] = []
    for sitting in sittings:
        selections: List[Optional[str]] = []
        for item in analyzable:
            score = sitting.scores.get(item.item_id)
            selections.append(score.selected if score is not None else None)
        responses.append(
            ExamineeResponses.of(
                sitting.learner_id,
                selections,
                duration_seconds=sitting.duration_seconds,
            )
        )
    return responses
