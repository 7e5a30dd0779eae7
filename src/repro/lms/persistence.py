"""LMS state persistence.

A real LMS survives restarts.  This module serializes the durable parts
of an :class:`~repro.lms.lms.Lms` — offered exams, learners with their
progress, enrollment, graded results, the tracking log, the exam
monitor's proctoring record (captured frames, capture schedule, drop
counts), every sitting's full delivery-session state (including
**in-flight** sittings: their answer history, elapsed-time accounting,
and SCORM interaction record), and how many SCORM attempts each learner
launched on each exam — to a JSON file and restores them.
Earlier revisions deliberately dropped in-flight sittings; with the
:mod:`repro.store` write-ahead log those sittings are durable, so
snapshots must carry them too or a checkpoint would truncate a learner
mid-exam.

Restores re-anchor the clock: the snapshot records the writer's
``clock.now()`` and :func:`load_lms` installs an
:class:`~repro.delivery.clock.OffsetClock` continuing that timeline, so
stored timestamps stay comparable and an in-progress sitting keeps
ticking instead of jumping (``time.monotonic`` restarts every boot).

A save has two halves.  :func:`collect_payload` copies the state under
:attr:`Lms.lock`; the copy shares no mutable object with the live LMS.
:func:`save_lms` then writes it after the lock is released, so writers
are not held up by encoding or disk.  The write streams compact JSON
record by record into a temporary file in the destination directory,
fsyncs it, :func:`os.replace`-s it into place and fsyncs the directory.
A crash (or a killed snapshot thread) mid-write can never leave a
truncated, unloadable state file behind — the previous snapshot survives
intact — and once :func:`save_lms` returns the file survives power loss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.core.errors import BankError
from repro.bank.exambank import exam_from_record, exam_to_record
from repro.delivery.clock import OffsetClock
from repro.delivery.scoring import GradedSitting, grade_session
from repro.delivery.session import ExamSession, SessionState
from repro.items.responses import ScoredResponse
from repro.lms.learners import Learner
from repro.lms.lms import Lms, LmsSitting
from repro.lms.monitor import ExamMonitor
from repro.lms.tracking import EventKind

__all__ = [
    "save_lms",
    "collect_payload",
    "load_lms",
    "load_payload",
    "lms_from_payload",
    "merge_payloads",
]

_FORMAT = "mine-lms-v1"
#: the one snapshot encoding: compact separators keep the C encoder
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _scored_to_record(score: ScoredResponse) -> Dict[str, object]:
    return {
        "points": score.points,
        "max_points": score.max_points,
        "correct": score.correct,
        "needs_manual_grading": score.needs_manual_grading,
        "selected": score.selected,
    }


def _scored_from_record(record: Dict[str, object]) -> ScoredResponse:
    return ScoredResponse(
        points=float(record["points"]),
        max_points=float(record["max_points"]),
        correct=record.get("correct"),
        needs_manual_grading=bool(record.get("needs_manual_grading", False)),
        selected=record.get("selected"),
    )


def _json_chunks(value: object, depth: int = 0) -> Iterator[str]:
    """``value`` as compact JSON, in pieces of about one record.

    Dicts in the top two levels (the payload, and sections such as
    ``results`` and ``monitor``) are written member by member; lists in
    the top three levels (``exams``, ``tracking``, ``sittings``, each
    exam's ``results``, the monitor's ``frames`` ...) element by
    element, one encoder call per element.  Joined, the pieces equal
    ``json.dumps(value, separators=(",", ":"))``.
    """
    if isinstance(value, dict) and depth < 2:
        yield "{"
        separator = ""
        for key, member in value.items():
            yield f"{separator}{_ENCODE(key)}:"
            yield from _json_chunks(member, depth + 1)
            separator = ","
        yield "}"
    elif isinstance(value, list) and depth < 3:
        yield "["
        separator = ""
        for element in value:
            yield separator + _ENCODE(element)
            separator = ","
        yield "]"
    else:
        yield _ENCODE(value)


def save_lms(
    lms: "Lms | Dict[str, object]",
    path: "str | Path",
    wal_lsn: Optional[int] = None,
) -> None:
    """Write the LMS's durable state to a JSON file, atomically and durably.

    ``lms`` is an :class:`Lms`, whose state :func:`collect_payload`
    copies under :attr:`Lms.lock`, or a payload already collected that
    way.  The write itself holds no LMS lock: the payload streams to a
    temp file in the destination directory about one record per
    ``write()``, the file is fsynced, :func:`os.replace`-d over
    ``path``, and the directory fsynced.  A failed write removes the
    temp file and leaves the previous file intact.  The bytes equal
    ``json.dumps(payload, separators=(",", ":"))``, which
    :func:`load_payload` reads like the indented files older builds
    wrote.

    ``wal_lsn`` stamps the snapshot with the highest journal LSN it
    covers.  The checkpoint engine (:mod:`repro.store.checkpoint`)
    reads that LSN and collects the payload in one critical section,
    then passes both here; recovery replays only records past it.
    """
    payload = lms if isinstance(lms, dict) else collect_payload(lms)
    if wal_lsn is not None:
        payload = dict(payload, wal_lsn=int(wal_lsn))
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            for chunk in _json_chunks(payload):
                stream.write(chunk)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    directory = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def collect_payload(lms: Lms) -> Dict[str, object]:
    """The collect half of a save: the LMS's durable state as a payload.

    Taken under :attr:`Lms.lock` (exclusive and reentrant, so a caller
    may hold it around this call to read more state in the same
    critical section).  The payload is a deep copy whose leaves are
    immutable, so mutations after the lock is released never reach it.
    """
    with lms.lock:
        learners: List[Dict[str, object]] = []
        for learner in lms.learners:
            learners.append(
                {
                    "learner_id": learner.learner_id,
                    "name": learner.name,
                    "email": learner.email,
                    "course_status": dict(learner.course_status),
                    "course_scores": dict(learner.course_scores),
                }
            )
        results: Dict[str, List[Dict[str, object]]] = {}
        for exam_id in lms.offered_exams():
            sittings = []
            for sitting in lms.results_for(exam_id):
                sittings.append(
                    {
                        "learner_id": sitting.learner_id,
                        "duration_seconds": sitting.duration_seconds,
                        "answer_times": list(sitting.answer_times),
                        "scores": {
                            item_id: _scored_to_record(score)
                            for item_id, score in sitting.scores.items()
                        },
                    }
                )
            results[exam_id] = sittings
        events = [
            {
                "kind": event.kind.value,
                "learner_id": event.learner_id,
                "course_id": event.course_id,
                "timestamp": event.timestamp,
                "detail": event.detail,
            }
            for event in lms.tracking
        ]
        sittings = [
            {
                "learner_id": sitting.learner_id,
                "exam_id": sitting.exam_id,
                "item_order": list(sitting.item_order),
                "session": sitting.session.export_state(),
            }
            for sitting in lms._sittings.values()
        ]
        attempts = [
            {
                "learner_id": record.learner_id,
                "exam_id": record.sco_id,
                "attempts": record.attempts,
            }
            for record in lms.rte.all_records()
        ]
        calibrations = {}
        for exam_id, (version, overlay) in lms._calibrations.items():
            from repro.adaptive.online import parameters_to_record

            calibrations[exam_id] = {
                "version": version,
                "parameters": parameters_to_record(overlay),
            }
        return {
            "format": _FORMAT,
            "clock": lms.clock.now(),
            "exams": [
                exam_to_record(lms.exam(e)) for e in lms.offered_exams()
            ],
            "calibrations": calibrations,
            "learners": learners,
            "enrollment": {
                exam_id: sorted(lms.enrolled(exam_id))
                for exam_id in lms.offered_exams()
            },
            "results": results,
            "tracking": events,
            "monitor": lms.monitor.export_state(),
            "sittings": sittings,
            "attempts": attempts,
        }


def load_payload(path: "str | Path") -> Dict[str, object]:
    """Read and validate a snapshot file into its JSON payload."""
    file_path = Path(path)
    if not file_path.exists():
        raise BankError(f"LMS state file does not exist: {file_path}")
    try:
        payload = json.loads(file_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BankError(f"LMS state file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise BankError(
            "unrecognized LMS state format: "
            f"{payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    return payload


def load_lms(path: "str | Path", clock=None) -> Lms:
    """Restore an LMS from a file written by :func:`save_lms`."""
    return lms_from_payload(load_payload(path), clock=clock)


def lms_from_payload(payload: Dict[str, object], clock=None) -> Lms:
    """Build an :class:`Lms` from a snapshot payload.

    Without an explicit ``clock``, snapshots that recorded their clock
    get an :class:`OffsetClock` continuing that timeline (older files
    fall back to a fresh wall clock).
    """
    if clock is None and isinstance(payload.get("clock"), (int, float)):
        clock = OffsetClock(float(payload["clock"]))
    # restore the proctoring record; files written before the monitor
    # section existed simply get a fresh monitor
    monitor_state = payload.get("monitor")
    monitor = (
        ExamMonitor.from_state(monitor_state)
        if isinstance(monitor_state, dict)
        else None
    )
    lms = Lms(clock=clock, monitor=monitor)
    for record in payload.get("exams", []):
        lms.offer_exam(exam_from_record(record))
    # calibration overlays must land before sittings are restored: a
    # restored adaptive sitting replays against the exam's current table
    for exam_id, record in payload.get("calibrations", {}).items():
        if exam_id not in lms._exams:
            continue
        from repro.adaptive.online import parameters_from_record

        lms._install_calibration(
            exam_id,
            int(record.get("version", 0)),
            parameters_from_record(record.get("parameters", {})),
        )
    for record in payload.get("learners", []):
        learner = Learner(
            learner_id=record["learner_id"],
            name=record.get("name", ""),
            email=record.get("email", ""),
            course_status=dict(record.get("course_status", {})),
            course_scores={
                key: float(value)
                for key, value in record.get("course_scores", {}).items()
            },
        )
        lms.learners.register(learner)
    for exam_id, learner_ids in payload.get("enrollment", {}).items():
        for learner_id in learner_ids:
            if exam_id in lms._exams and learner_id in lms.learners:
                lms._enrollment[exam_id].add(learner_id)
    for exam_id, sittings in payload.get("results", {}).items():
        restored = []
        for record in sittings:
            restored.append(
                GradedSitting(
                    exam_id=exam_id,
                    learner_id=record["learner_id"],
                    scores={
                        item_id: _scored_from_record(score)
                        for item_id, score in record.get("scores", {}).items()
                    },
                    duration_seconds=float(record.get("duration_seconds", 0.0)),
                    answer_times=[
                        float(v) for v in record.get("answer_times", [])
                    ],
                )
            )
        lms._results[exam_id] = restored
    for record in payload.get("tracking", []):
        lms.tracking.record(
            EventKind(record["kind"]),
            record.get("learner_id", ""),
            record.get("course_id", ""),
            float(record.get("timestamp", 0.0)),
            detail=record.get("detail", ""),
        )
    for record in payload.get("sittings", []):
        _restore_sitting(lms, record)
    # restoring a sitting launches it once; the SCORM launch counts
    # (re-sits included) come from the payload, when it has them
    for record in payload.get("attempts", []):
        lms.rte.record(
            str(record["learner_id"]), str(record["exam_id"])
        ).attempts = int(record["attempts"])
    return lms


def _restore_sitting(lms: Lms, record: Dict[str, object]) -> None:
    """Rebuild one sitting — delivery session plus its SCORM API.

    The CMI record is regenerated by re-issuing the same interaction /
    suspend / finish sequences the live LMS performed (via the shared
    ``Lms._cmi_*`` helpers), so a restored sitting's SCORM conversation
    matches what a browser SCO would have produced.  Sittings whose
    exam or learner is absent from the snapshot are skipped, mirroring
    the enrollment loop's tolerance.
    """
    exam_id = str(record.get("exam_id", ""))
    learner_id = str(record.get("learner_id", ""))
    if exam_id not in lms._exams or learner_id not in lms.learners:
        return
    exam = lms.exam(exam_id)
    learner = lms.learners.get(learner_id)
    state = record.get("session", {})
    session = ExamSession.from_state(exam, state, clock=lms.clock)
    api = lms.rte.launch(learner_id, exam_id, learner_name=learner.name)
    if api.LMSInitialize("") != "true":
        raise BankError(
            f"SCORM API failed to initialize while restoring the sitting "
            f"of {exam_id!r} by {learner_id!r}"
        )
    sitting = LmsSitting(
        session=session,
        api=api,
        item_order=[str(item_id) for item_id in record.get("item_order", [])],
    )
    for event in state.get("events", []):
        item = exam.item(str(event["item_id"]))
        scored = item.score(event.get("response"))
        lms._cmi_record_answer(sitting, str(event["item_id"]), item, scored)
    if exam.adaptive is not None:
        # re-record the same scored sequence: selection is deterministic,
        # so the rebuilt posterior/trajectory is bit-identical to live
        sitting.adaptive = lms._rebuild_adaptive(
            exam,
            [
                (str(event["item_id"]), event.get("response"))
                for event in state.get("events", [])
            ],
        )
    if session.state is SessionState.SUSPENDED:
        lms._cmi_suspend(sitting)
    elif session.state is SessionState.SUBMITTED:
        lms._cmi_finish(sitting, grade_session(session))
    lms._sittings[(learner_id, exam_id)] = sitting


def merge_payloads(payloads: List[Dict[str, object]]) -> Dict[str, object]:
    """Merge per-shard snapshot payloads into one whole-cohort payload.

    The sharded delivery tier partitions *learners* (and everything
    hanging off a learner: enrollment, sittings, results, proctoring
    frames) across workers, while *exams* are broadcast to every shard.
    Merging is therefore mostly concatenation of disjoint sets — with
    exams deduplicated by id, tracking ordered by timestamp, and
    monitor counters summed.  The merged payload loads through
    :func:`lms_from_payload` exactly like a single-process snapshot.
    """
    if not payloads:
        raise BankError("nothing to merge: no snapshot payloads given")
    for payload in payloads:
        if payload.get("format") != _FORMAT:
            raise BankError(
                f"cannot merge: unrecognized format {payload.get('format')!r}"
            )
    merged: Dict[str, object] = {
        "format": _FORMAT,
        # the merged timeline continues from the furthest-along shard
        "clock": max(
            float(payload.get("clock", 0.0)) for payload in payloads
        ),
        "calibrations": {},
        "exams": [],
        "learners": [],
        "enrollment": {},
        "results": {},
        "tracking": [],
        "monitor": None,
        "sittings": [],
        "attempts": [],
    }
    seen_exams: set = set()
    seen_learners: set = set()
    enrollment: Dict[str, set] = {}
    results: Dict[str, List[Dict[str, object]]] = {}
    monitor: Optional[Dict[str, object]] = None
    wal_lsns: List[int] = []
    for payload in payloads:
        for record in payload.get("exams", []):
            exam_id = record.get("exam_id")
            if exam_id not in seen_exams:
                seen_exams.add(exam_id)
                merged["exams"].append(record)
        for record in payload.get("learners", []):
            learner_id = record.get("learner_id")
            if learner_id in seen_learners:
                raise BankError(
                    f"cannot merge: learner {learner_id!r} appears in "
                    f"more than one shard snapshot"
                )
            seen_learners.add(learner_id)
            merged["learners"].append(record)
        for exam_id, learner_ids in payload.get("enrollment", {}).items():
            enrollment.setdefault(exam_id, set()).update(learner_ids)
        for exam_id, record in payload.get("calibrations", {}).items():
            # exams are broadcast, so every shard applies the same swap;
            # keep the newest version if shards ever diverge mid-apply
            existing = merged["calibrations"].get(exam_id)
            if existing is None or int(record.get("version", 0)) > int(
                existing.get("version", 0)
            ):
                merged["calibrations"][exam_id] = record
        for exam_id, sittings in payload.get("results", {}).items():
            results.setdefault(exam_id, []).extend(sittings)
        merged["tracking"].extend(payload.get("tracking", []))
        merged["sittings"].extend(payload.get("sittings", []))
        merged["attempts"].extend(payload.get("attempts", []))
        state = payload.get("monitor")
        if isinstance(state, dict):
            if monitor is None:
                monitor = {
                    key: (list(value) if isinstance(value, list) else value)
                    for key, value in state.items()
                }
            else:
                for key in ("frames", "last_capture", "dropped"):
                    monitor[key].extend(state.get(key, []))
                for key in ("captured_total", "polls_total"):
                    monitor[key] = int(monitor.get(key, 0)) + int(
                        state.get(key, 0)
                    )
        if isinstance(payload.get("wal_lsn"), int):
            wal_lsns.append(payload["wal_lsn"])
    merged["enrollment"] = {
        exam_id: sorted(learner_ids)
        for exam_id, learner_ids in enrollment.items()
    }
    merged["results"] = results
    merged["monitor"] = monitor
    # shard clocks are independent; a cross-shard sort by timestamp is
    # the best single timeline there is (stable, so same-time events
    # keep shard order)
    merged["tracking"].sort(key=lambda event: float(event.get("timestamp", 0.0)))
    if wal_lsns:
        # informational only: per-shard LSN sequences are independent
        merged["wal_lsn"] = max(wal_lsns)
    return merged
