"""Learner records (paper §2.4 "student management", §5.5 "learner record,
learner progress, learner status")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.errors import DuplicateIdError, NotFoundError

__all__ = ["Learner", "LearnerRegistry", "learner_to_dict"]


@dataclass
class Learner:
    """One registered learner and their per-course progress records."""

    learner_id: str
    name: str
    email: str = ""
    #: course_id -> status ("not attempted", "incomplete", "passed", ...)
    course_status: Dict[str, str] = field(default_factory=dict)
    #: course_id -> best score percent
    course_scores: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.learner_id:
            raise NotFoundError("learner_id must be non-empty")

    def status_for(self, course_id: str) -> str:
        """The learner's status on a course ('not attempted' default)."""
        return self.course_status.get(course_id, "not attempted")

    def record_result(
        self, course_id: str, status: str, score_percent: Optional[float]
    ) -> None:
        """Store a course outcome, keeping the best score."""
        self.course_status[course_id] = status
        if score_percent is not None:
            best = self.course_scores.get(course_id)
            if best is None or score_percent > best:
                self.course_scores[course_id] = score_percent


def learner_to_dict(learner: Learner) -> Dict[str, object]:
    """A :class:`Learner` record as a JSON-compatible dict (served, and
    stored in checkpoints)."""
    return {
        "learner_id": learner.learner_id,
        "name": learner.name,
        "email": learner.email,
        "course_status": dict(learner.course_status),
        "course_scores": dict(learner.course_scores),
    }


class LearnerRegistry:
    """The student-management directory."""

    def __init__(self) -> None:
        self._learners: Dict[str, Learner] = {}

    def register(self, learner: Learner) -> None:
        """Add a learner; ids must be unique."""
        if learner.learner_id in self._learners:
            raise DuplicateIdError(
                f"learner {learner.learner_id!r} already registered"
            )
        self._learners[learner.learner_id] = learner

    def get(self, learner_id: str) -> Learner:
        """The learner with this id; NotFoundError otherwise."""
        try:
            return self._learners[learner_id]
        except KeyError:
            raise NotFoundError(f"no learner {learner_id!r}") from None

    def remove(self, learner_id: str) -> Learner:
        """Delete and return a learner."""
        try:
            return self._learners.pop(learner_id)
        except KeyError:
            raise NotFoundError(f"no learner {learner_id!r}") from None

    def __len__(self) -> int:
        return len(self._learners)

    def __contains__(self, learner_id: str) -> bool:
        return learner_id in self._learners

    def __iter__(self) -> Iterator[Learner]:
        return iter(self._learners.values())

    def ids(self) -> List[str]:
        """Every learner id, in registration order."""
        return list(self._learners)
