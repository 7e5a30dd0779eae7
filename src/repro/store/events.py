"""The journaled event schema: one event type per LMS mutation.

Every public :class:`~repro.lms.lms.Lms` mutator emits exactly one
event from inside the LMS lock, *after* the mutation succeeded, so the
journal's LSN order is the authoritative serialization of what happened
(the same order any later reader — recovery, recalibration, audit —
must apply).  Payloads are wire-shaped (JSON scalars and the exam-bank
record format), so a WAL is portable across processes and restarts.

Replay (:func:`apply_event`) drives the **same public mutators** a live
client would: recovery is not a parallel deserializer that can drift
from the real code path — it is the real code path, re-run.  Timestamp
fidelity comes from the recovery clock being pinned to each event's
``ts`` before the mutator runs (see :mod:`repro.store.recovery`);
everything else (presentation order, scoring, monitor frames, SCORM
CMI traffic) is deterministic given the event stream.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.errors import StoreError

__all__ = [
    "EVENT_FIELDS",
    "EVENT_TYPES",
    "apply_event",
    "offer_event",
    "register_event",
    "lifecycle_event",
    "answer_event",
    "answer_batch_event",
    "calibrate_event",
]

_LIFECYCLE = ("learner_id", "exam_id", "ts")

#: every event type a Journal written by the LMS can contain, mapped to
#: the fields its builder below writes, in order.  The binary WAL stores
#: an event with exactly these keys as its type's one-byte code plus the
#: values in this order (:mod:`repro.store.format` numbers the codes by
#: position here), so this table is append-only: add new types at the
#: end, and never reorder, rename or drop a type or a field
EVENT_FIELDS = {
    "offer": ("exam",),
    "register": ("learner_id", "name", "email"),
    "enroll": _LIFECYCLE,
    "start": _LIFECYCLE,
    "answer": ("learner_id", "exam_id", "item_id", "response", "ts"),
    "answers": ("learner_id", "exam_id", "answers", "ts"),
    "suspend": _LIFECYCLE,
    "resume": _LIFECYCLE,
    "submit": _LIFECYCLE,
    "monitor": _LIFECYCLE,
    "calibrate": ("exam_id", "version", "parameters", "ts"),
}
EVENT_TYPES = tuple(EVENT_FIELDS)


# -- builders (called by the Lms, under its lock) ------------------------------


def offer_event(exam_record: Dict[str, object]) -> Dict[str, object]:
    """An exam offering, as its bank record (self-contained replay)."""
    return {"exam": exam_record}


def register_event(
    learner_id: str, name: str, email: str
) -> Dict[str, object]:
    """A learner registration."""
    return {"learner_id": learner_id, "name": name, "email": email}


def lifecycle_event(
    learner_id: str, exam_id: str, ts: float
) -> Dict[str, object]:
    """enroll / start / suspend / resume / submit / monitor payload."""
    return {"learner_id": learner_id, "exam_id": exam_id, "ts": ts}


def answer_event(
    learner_id: str, exam_id: str, item_id: str, response: object, ts: float
) -> Dict[str, object]:
    """One recorded answer, with the wire-shaped response payload."""
    return {
        "learner_id": learner_id,
        "exam_id": exam_id,
        "item_id": item_id,
        "response": response,
        "ts": ts,
    }


def answer_batch_event(
    learner_id: str,
    exam_id: str,
    answers: "list",
    ts: float,
) -> Dict[str, object]:
    """K answers recorded as one durable unit (``answers:batch``).

    ``answers`` is a list of ``[item_id, response]`` pairs — flat pairs
    rather than K per-answer dicts, so a whole batch replays from one
    event without per-record key/dict overhead.
    """
    return {
        "learner_id": learner_id,
        "exam_id": exam_id,
        "answers": [[item_id, response] for item_id, response in answers],
        "ts": ts,
    }


def calibrate_event(
    exam_id: str,
    version: int,
    parameters: Dict[str, Dict[str, float]],
    ts: float,
) -> Dict[str, object]:
    """An adaptive-calibration hot-swap: versioned, wire-shaped 2PL/3PL
    parameters per item id (see :mod:`repro.adaptive.online`).  Replay
    rebuilds the same information table at the same point in history."""
    return {
        "exam_id": exam_id,
        "version": int(version),
        "parameters": parameters,
        "ts": ts,
    }


# -- replay --------------------------------------------------------------------


def _apply_offer(lms, data):
    from repro.bank.exambank import exam_from_record

    lms.offer_exam(exam_from_record(data["exam"]))


def _apply_register(lms, data):
    from repro.lms.learners import Learner

    lms.register_learner(
        Learner(
            learner_id=data["learner_id"],
            name=data.get("name", ""),
            email=data.get("email", ""),
        )
    )


def _apply_enroll(lms, data):
    lms.enroll(data["learner_id"], data["exam_id"])


def _apply_start(lms, data):
    lms.start_exam(data["learner_id"], data["exam_id"])


def _apply_answer(lms, data):
    lms.answer(
        data["learner_id"], data["exam_id"], data["item_id"], data["response"]
    )


def _apply_answer_batch(lms, data):
    # the recovery fast-path: one event -> K answers through the batch
    # mutator, under a single lock/validation pass
    lms.answer_batch(
        data["learner_id"],
        data["exam_id"],
        [(pair[0], pair[1]) for pair in data["answers"]],
    )


def _apply_suspend(lms, data):
    lms.suspend(data["learner_id"], data["exam_id"])


def _apply_resume(lms, data):
    lms.resume(data["learner_id"], data["exam_id"])


def _apply_submit(lms, data):
    lms.submit(data["learner_id"], data["exam_id"])


def _apply_monitor(lms, data):
    lms.capture_frame(data["learner_id"], data["exam_id"])


def _apply_calibrate(lms, data):
    from repro.adaptive.online import parameters_from_record

    lms.apply_calibration(
        data["exam_id"],
        int(data["version"]),
        parameters_from_record(data.get("parameters", {})),
    )


_APPLY: Dict[str, Callable] = {
    "offer": _apply_offer,
    "register": _apply_register,
    "enroll": _apply_enroll,
    "start": _apply_start,
    "answer": _apply_answer,
    "answers": _apply_answer_batch,
    "suspend": _apply_suspend,
    "resume": _apply_resume,
    "submit": _apply_submit,
    "monitor": _apply_monitor,
    "calibrate": _apply_calibrate,
}


def event_timestamp(type_: str, data: Dict[str, object]) -> float:
    """The event's logical timestamp (0.0 for untimed catalog events)."""
    ts = data.get("ts")
    return float(ts) if isinstance(ts, (int, float)) else 0.0


def apply_event(lms, type_: str, data: Dict[str, object]) -> None:
    """Re-apply one journaled event to an LMS via its public mutators.

    The LMS must NOT have a journal attached (recovery attaches it only
    after replay), or every replayed event would be re-journaled.
    """
    try:
        handler = _APPLY[type_]
    except KeyError:
        raise StoreError(
            f"unknown journal event type {type_!r}; "
            f"this WAL needs a newer reader"
        ) from None
    handler(lms, data)
