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

from typing import Dict

from repro.core.errors import StoreError

__all__ = ["EVENT_FIELDS", "EVENT_TYPES", "apply_event", "event"]

_LIFECYCLE = ("learner_id", "exam_id", "ts")

#: every event type a Journal written by the LMS can contain, mapped to
#: its fields in order: :func:`event` binds an event's values to these
#: names.  The binary WAL stores an event with exactly these keys as its
#: type's one-byte code plus the values in this order
#: (:mod:`repro.store.format` numbers the codes by position here), so
#: this table is append-only: add new types at the end, and never
#: reorder, rename or drop a type or a field.  ``offer`` carries the
#: exam's bank record, so its replay is self-contained; ``answers``
#: carries K answers as ``[item_id, response]`` pairs, replayed from
#: one event; ``calibrate`` carries wire-shaped 2PL/3PL parameters per
#: item id (see :mod:`repro.adaptive.online`).
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

#: the lifecycle events, each replayed by the ``Lms`` method named here
#: with the event's learner and exam
_LIFECYCLE_REPLAY = {
    "enroll": "enroll",
    "start": "start_exam",
    "suspend": "suspend",
    "resume": "resume",
    "submit": "submit",
    "monitor": "capture_frame",
}


def event(type_: str, *values: object) -> Dict[str, object]:
    """One ``type_`` event: its fields in :data:`EVENT_FIELDS`, in order,
    bound to ``values``.  A count that differs raises ``StoreError``: a
    record with a field missing or extra would silently take the
    codec's larger fallback form."""
    fields = EVENT_FIELDS[type_]
    if len(values) != len(fields):
        raise StoreError(
            f"a {type_!r} event has {len(fields)} fields {fields}, "
            f"got {len(values)} values"
        )
    return dict(zip(fields, values))


def event_timestamp(type_: str, data: Dict[str, object]) -> float:
    """The event's logical timestamp (0.0 for untimed catalog events)."""
    ts = data.get("ts")
    return float(ts) if isinstance(ts, (int, float)) else 0.0


def apply_event(lms, type_: str, data: Dict[str, object]) -> None:
    """Re-apply one journaled event to an LMS via its public mutators.

    The LMS must NOT have a journal attached (recovery attaches it only
    after replay), or every replayed event would be re-journaled.
    """
    if type_ == "answer":
        lms.answer(
            data["learner_id"], data["exam_id"], data["item_id"],
            data["response"],
        )
    elif type_ in _LIFECYCLE_REPLAY:
        getattr(lms, _LIFECYCLE_REPLAY[type_])(
            data["learner_id"], data["exam_id"]
        )
    elif type_ == "answers":
        # one event -> K answers through the batch mutator, under a
        # single lock and validation pass
        lms.answer_batch(data["learner_id"], data["exam_id"], data["answers"])
    elif type_ == "offer":
        from repro.bank.exambank import exam_from_record

        lms.offer_exam(exam_from_record(data["exam"]))
    elif type_ == "register":
        from repro.lms.learners import Learner

        lms.register_learner(
            Learner(
                learner_id=data["learner_id"],
                name=data.get("name", ""),
                email=data.get("email", ""),
            )
        )
    elif type_ == "calibrate":
        from repro.adaptive.online import parameters_from_record

        lms.apply_calibration(
            data["exam_id"],
            int(data["version"]),
            parameters_from_record(data.get("parameters", {})),
        )
    else:
        raise StoreError(
            f"unknown journal event type {type_!r}; "
            f"this WAL needs a newer reader"
        )
