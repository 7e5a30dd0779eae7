"""The exam delivery session (paper §5: "Learners take the exam or the
problems with Internet browser").

:class:`ExamSession` is the server-side state machine of one learner's
sitting:

* ``start`` → the learner sees items in their presentation order
  (fixed or per-learner random, §3.2 VI.C);
* ``answer`` records a response with its elapsed timestamp (feeding the
  §4.2.1 time-vs-answered figure); ``answer_all`` records several at
  one timestamp, all or nothing, and holds the only copy of the checks
  an answer must pass;
* ``suspend``/``resume`` honour the exam's Resumable flag (§3.2 VI.B:
  "True means resumed and false means paused at a later time" — a
  non-resumable exam cannot be continued once suspended);
* the §3.4 Test Time limit is enforced: answers after expiry raise
  :class:`TimeLimitExceeded`, and ``submit`` still succeeds (the sitting
  is closed with whatever was answered);
* ``submit`` freezes the response set for scoring.

Every lifecycle method accepts an optional explicit ``now`` timestamp.
When given, it replaces *all* clock reads the call would make, so one
sampled timestamp drives the whole transition — the property the LMS
write-ahead journal relies on to make a replayed session bit-identical
to the live one (:mod:`repro.store`).  ``export_state`` /
``from_state`` round-trip a session through JSON for the same reason:
a snapshot must be able to persist an in-flight sitting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SessionStateError, TimeLimitExceeded
from repro.delivery.clock import Clock, WallClock
from repro.exams.exam import Exam
from repro.exams.ordering import presentation_order
from repro.items.responses import ScoredResponse

__all__ = ["SessionState", "AnswerEvent", "ExamSession"]


class SessionState(enum.Enum):
    """Sitting lifecycle: created, in progress, suspended, submitted."""
    CREATED = "created"
    IN_PROGRESS = "in_progress"
    SUSPENDED = "suspended"
    SUBMITTED = "submitted"


@dataclass(frozen=True)
class AnswerEvent:
    """One committed answer: which item, what, and when (elapsed s)."""

    item_id: str
    response: object
    elapsed_seconds: float


class ExamSession:
    """One learner's sitting of one exam."""

    def __init__(
        self,
        exam: Exam,
        learner_id: str,
        clock: Optional[Clock] = None,
    ) -> None:
        if not learner_id:
            raise SessionStateError("learner_id must be non-empty")
        exam.validate()
        self.exam = exam
        self.learner_id = learner_id
        self._clock = clock if clock is not None else WallClock()
        self._state = SessionState.CREATED
        self._started_at: Optional[float] = None
        self._elapsed_before_suspend = 0.0
        self._resumed_at: Optional[float] = None
        self._answers: Dict[str, AnswerEvent] = {}
        self._events: List[AnswerEvent] = []
        self._submitted_elapsed: Optional[float] = None

    # -- state inspection -----------------------------------------------------

    @property
    def state(self) -> SessionState:
        """The session's lifecycle state."""
        return self._state

    def _now(self, now: Optional[float]) -> float:
        return self._clock.now() if now is None else now

    def elapsed_seconds(self, now: Optional[float] = None) -> float:
        """Time the learner has actively spent in the sitting."""
        if self._state is SessionState.CREATED:
            return 0.0
        if self._state is SessionState.SUSPENDED:
            return self._elapsed_before_suspend
        if self._state is SessionState.SUBMITTED:
            return self._submitted_elapsed or 0.0
        return self._elapsed_before_suspend + (
            self._now(now) - (self._resumed_at or 0.0)
        )

    def remaining_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left before the Test Time limit, or None when unlimited."""
        limit = self.exam.time_limit_seconds
        if limit is None:
            return None
        return max(0.0, limit - self.elapsed_seconds(now))

    def time_expired(self, now: Optional[float] = None) -> bool:
        """True when the Test Time limit has run out."""
        remaining = self.remaining_seconds(now)
        return remaining is not None and remaining <= 0.0

    # -- lifecycle --------------------------------------------------------------

    def start(self, now: Optional[float] = None) -> List[str]:
        """Begin the sitting; returns item ids in presentation order."""
        if self._state is not SessionState.CREATED:
            raise SessionStateError(
                f"cannot start a session in state {self._state.value}"
            )
        self._state = SessionState.IN_PROGRESS
        self._started_at = self._now(now)
        self._resumed_at = self._started_at
        order = presentation_order(self.exam, self.learner_id)
        return [self.exam.items[index].item_id for index in order]

    def answer(
        self, item_id: str, response: object, now: Optional[float] = None
    ) -> AnswerEvent:
        """Record (or overwrite) the learner's answer to one item."""
        self.answer_all([(item_id, response)], now)
        return self._events[-1]

    def answer_all(
        self,
        answers: Sequence[Tuple[str, object]],
        now: Optional[float] = None,
        *,
        numbered: bool = False,
    ) -> List[ScoredResponse]:
        """Record (or overwrite) ``(item_id, response)`` answers, all or
        nothing, at one elapsed time; returns each one's score.

        Every answer is checked before any is recorded: the session is
        in progress, the Test Time has not run out, the exam has the
        item and the item accepts the response.  With ``numbered``, an
        item's error names the answer's place in the list
        (``answers[i] (item_id): ...``).
        """
        if self._state is not SessionState.IN_PROGRESS:
            raise SessionStateError(
                f"cannot answer in state {self._state.value}"
            )
        at = self._now(now)
        if self.time_expired(at):
            raise TimeLimitExceeded(
                f"test time of {self.exam.time_limit_seconds}s has expired"
            )
        elapsed = self.elapsed_seconds(at)
        events: List[AnswerEvent] = []
        scores: List[ScoredResponse] = []
        for index, (item_id, response) in enumerate(answers):
            try:
                item = self.exam.item(item_id)  # NotFoundError if unknown
                scores.append(item.score(response))  # checks the shape
            except Exception as exc:
                if not numbered:
                    raise
                raise type(exc)(
                    f"answers[{index}] ({item_id!r}): {exc}"
                ) from exc
            # keep the exam's own id object, not the caller's equal copy
            events.append(AnswerEvent(item.item_id, response, elapsed))
        for event in events:
            self._answers[event.item_id] = event
        self._events.extend(events)
        return scores

    def suspend(self, now: Optional[float] = None) -> None:
        """Pause the sitting (always allowed; *resuming* may not be)."""
        if self._state is not SessionState.IN_PROGRESS:
            raise SessionStateError(
                f"cannot suspend a session in state {self._state.value}"
            )
        self._elapsed_before_suspend = self.elapsed_seconds(now)
        self._resumed_at = None
        self._state = SessionState.SUSPENDED

    def resume(self, now: Optional[float] = None) -> None:
        """Continue a suspended sitting — only if the exam is resumable."""
        if self._state is not SessionState.SUSPENDED:
            raise SessionStateError(
                f"cannot resume a session in state {self._state.value}"
            )
        if not self.exam.resumable:
            raise SessionStateError(
                f"exam {self.exam.exam_id!r} is not resumable; the sitting "
                f"is paused for good"
            )
        self._state = SessionState.IN_PROGRESS
        self._resumed_at = self._now(now)

    def submit(self, now: Optional[float] = None) -> None:
        """Close the sitting; answers become immutable."""
        if self._state not in (SessionState.IN_PROGRESS, SessionState.SUSPENDED):
            raise SessionStateError(
                f"cannot submit a session in state {self._state.value}"
            )
        self._submitted_elapsed = self.elapsed_seconds(now)
        self._state = SessionState.SUBMITTED

    # -- results ----------------------------------------------------------------

    def response_to(self, item_id: str) -> Optional[object]:
        """The current response to an item (None when unanswered)."""
        event = self._answers.get(item_id)
        if event is None:
            self.exam.item(item_id)  # NotFoundError for an item not in it
            return None
        return event.response

    def answered_item_ids(self) -> List[str]:
        """Item ids with a recorded answer, in first-answer order."""
        return list(self._answers)

    def answer_events(self) -> List[AnswerEvent]:
        """Every answer commit, in order (overwrites appear twice)."""
        return list(self._events)

    def answer_times(self) -> List[float]:
        """Elapsed commit times of the *final* answer per item, sorted —
        the per-examinee series the §4.2.1 figure (1) consumes."""
        return sorted(event.elapsed_seconds for event in self._answers.values())

    def duration_seconds(self) -> float:
        """Total active time of the (submitted) sitting."""
        if self._state is not SessionState.SUBMITTED:
            raise SessionStateError("session not yet submitted")
        return self._submitted_elapsed or 0.0

    # -- persistence -------------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """The session's full durable state, JSON-shaped.

        Timestamps are raw clock values (the LMS clock's timeline);
        restoring into the *same* logical timeline — which
        :mod:`repro.lms.persistence` guarantees by persisting and
        re-anchoring the clock — keeps elapsed-time accounting exact.
        Responses must be JSON-serializable (they are wire payloads in
        every served deployment).
        """
        return {
            "learner_id": self.learner_id,
            "state": self._state.value,
            "started_at": self._started_at,
            "elapsed_before_suspend": self._elapsed_before_suspend,
            "resumed_at": self._resumed_at,
            "submitted_elapsed": self._submitted_elapsed,
            "events": [
                {
                    "item_id": event.item_id,
                    "response": event.response,
                    "elapsed_seconds": event.elapsed_seconds,
                }
                for event in self._events
            ],
        }

    @classmethod
    def from_state(
        cls,
        exam: Exam,
        state: Dict[str, object],
        clock: Optional[Clock] = None,
    ) -> "ExamSession":
        """Rebuild a session from :meth:`export_state` output."""
        session = cls(exam, str(state["learner_id"]), clock=clock)
        session._state = SessionState(state["state"])
        started_at = state.get("started_at")
        session._started_at = (
            float(started_at) if started_at is not None else None
        )
        session._elapsed_before_suspend = float(
            state.get("elapsed_before_suspend", 0.0)
        )
        resumed_at = state.get("resumed_at")
        session._resumed_at = (
            float(resumed_at) if resumed_at is not None else None
        )
        submitted = state.get("submitted_elapsed")
        session._submitted_elapsed = (
            float(submitted) if submitted is not None else None
        )
        for record in state.get("events", []):
            event = AnswerEvent(
                item_id=str(record["item_id"]),
                response=record.get("response"),
                elapsed_seconds=float(record["elapsed_seconds"]),
            )
            session._events.append(event)
            # plain assignment, like live answer(): the latest commit
            # per item wins but first-answer dict order is kept
            session._answers[event.item_id] = event
        return session
