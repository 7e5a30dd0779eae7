"""Crash recovery: checkpoint + WAL suffix → the LMS that crashed.

:func:`recover` rebuilds an :class:`~repro.lms.lms.Lms` from a directory
of durable state: load the newest snapshot (if any), then replay every
journal record past the snapshot's covered LSN **through the same public
LMS mutators a live client drove** (:func:`repro.store.events.
apply_event`).  Replay is not a parallel deserializer that can drift
from the live code path; it *is* the live code path, re-run under a
:class:`ReplayClock` pinned to each event's recorded timestamp — so the
recovered state is bit-identical to the pre-crash LMS (the differential
property tests in ``tests/store/`` assert exactly this via
:func:`state_fingerprint`).

Idempotence / dedup: records with ``lsn <=`` the snapshot's ``wal_lsn``
are already folded into the snapshot and are skipped, so recovering
from any checkpoint plus the remaining WAL suffix converges on the same
state — the invariant that makes compaction
(:mod:`repro.store.checkpoint`) safe.

Recovery reads the log from its oldest segment through
:func:`~repro.store.journal.scan_log`, after
:func:`~repro.store.journal.check_retired` from the snapshot's LSN, so
it applies the journal's reading rules: a torn tip ends the log and the
report counts its bytes, while damage, a hole, or records retired
between the snapshot and the oldest segment raise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.core.errors import StoreError
from repro.store import events as store_events
from repro.store.journal import check_retired, scan_log, segment_files

__all__ = ["ReplayClock", "RecoveryReport", "recover", "state_fingerprint"]


class ReplayClock:
    """A clock scripted by the replayer, then released to real time.

    During replay, :meth:`pin` fixes ``now()`` to the journaled
    timestamp of the event being applied.  That can move it backwards:
    concurrent sittings read the clock and journal in separate steps,
    so a record can follow one stamped later.  After the last record,
    :meth:`go_live` anchors the clock to keep ticking from the replayed
    timeline's high-water mark — the recovered LMS continues serving on
    the same timeline the crashed process was using.
    """

    def __init__(self, origin: float = 0.0) -> None:
        self._now = self._high = float(origin)
        self._base: Optional[float] = None  # set by go_live()

    def pin(self, timestamp: float) -> None:
        """Script ``now()`` for the next event."""
        if self._base is not None:
            raise RuntimeError("cannot pin a ReplayClock after go_live()")
        self._now = float(timestamp)
        self._high = max(self._high, self._now)

    def now(self) -> float:
        """The pinned timestamp, or live re-anchored time after go_live."""
        if self._base is not None:
            return self._base + time.monotonic()
        return self._now

    def go_live(self) -> None:
        """Switch from scripted to real time, continuing the timeline."""
        if self._base is None:
            self._base = self._high - time.monotonic()


@dataclass
class RecoveryReport:
    """What :func:`recover` rebuilt, and from which artifacts."""

    #: the recovered LMS, clock already live, no journal attached
    lms: object
    #: snapshot file the recovery started from (None = WAL-only replay)
    checkpoint_path: Optional[Path] = None
    #: highest LSN the snapshot covered (0 without a snapshot)
    checkpoint_lsn: int = 0
    #: journal records re-applied through the public mutators
    records_replayed: int = 0
    #: records skipped as already covered by the snapshot
    records_skipped: int = 0
    #: highest LSN seen in the journal (0 when empty)
    last_lsn: int = 0
    #: bytes dropped from the final segment's torn tail (0 = clean)
    torn_bytes: int = 0
    #: individual answers replayed via batched ``answers`` events —
    #: each such record fans out through the Lms batch fast-path, so
    #: records_replayed alone understates the replayed work
    batched_answers: int = 0

    def summary(self) -> str:
        """One human line, for the CLI and server boot log."""
        source = (
            f"checkpoint {self.checkpoint_path.name} (lsn {self.checkpoint_lsn})"
            if self.checkpoint_path is not None
            else "empty state (no checkpoint)"
        )
        torn = (
            f", dropped {self.torn_bytes} torn byte(s)"
            if self.torn_bytes
            else ""
        )
        batched = (
            f", {self.batched_answers} answer(s) via batch events"
            if self.batched_answers
            else ""
        )
        return (
            f"recovered from {source} + {self.records_replayed} WAL "
            f"record(s) (skipped {self.records_skipped} already covered, "
            f"last lsn {self.last_lsn}){batched}{torn}"
        )


def recover(wal_dir: "str | Path") -> RecoveryReport:
    """Rebuild the LMS from ``wal_dir``'s newest checkpoint + journal
    suffix.

    The :class:`~repro.store.checkpoint.Checkpointer` writes snapshots
    next to the segments, so both come from ``wal_dir``; the segments
    may be binary or v1 JSON lines.  The returned LMS has **no journal
    attached**; callers that will keep serving open the
    :class:`~repro.store.journal.Journal` afterwards and
    :meth:`~repro.lms.lms.Lms.attach_journal` it — attaching before
    replay would re-journal every replayed event.  A missing
    ``wal_dir`` is a fresh store.  Raises
    :class:`~repro.core.errors.StoreError` when ``wal_dir`` exists but
    is not a directory,
    :class:`~repro.store.journal.TailTruncatedError` when the WAL lacks
    records between the snapshot and its oldest segment, and
    :class:`~repro.core.errors.JournalCorruptError` on damage or a hole.
    """
    # local imports: this module is reached lazily via the package
    # facade precisely so repro.lms ←→ repro.store stays acyclic
    from repro.lms.lms import Lms
    from repro.lms.persistence import load_payload, lms_from_payload
    from repro.store.checkpoint import latest_checkpoint

    wal_path = Path(wal_dir)
    if wal_path.exists() and not wal_path.is_dir():
        raise StoreError(f"WAL directory {wal_path} is not a directory")
    checkpoint_path = latest_checkpoint(wal_path)
    clock = ReplayClock()
    if checkpoint_path is not None:
        payload = load_payload(checkpoint_path)
        checkpoint_lsn = int(payload.get("wal_lsn", 0))
        anchor = payload.get("clock")
        if isinstance(anchor, (int, float)):
            clock.pin(float(anchor))
        lms = lms_from_payload(payload, clock=clock)
    else:
        checkpoint_lsn = 0
        lms = Lms(clock=clock)
    segments = segment_files(wal_path)
    check_retired(
        segments,
        checkpoint_lsn,
        f"checkpoint {checkpoint_path.name} covers lsn {checkpoint_lsn}"
        if checkpoint_path is not None
        else "there is no checkpoint",
    )
    report = RecoveryReport(
        lms=lms,
        checkpoint_path=checkpoint_path,
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=checkpoint_lsn,
    )
    for scan in scan_log(segments):
        # only the final segment's scan can end in a torn tip
        report.torn_bytes = scan.torn_bytes
        for record in scan.records:
            if record.lsn <= checkpoint_lsn:
                report.records_skipped += 1
                continue
            if "ts" in record.data:  # catalog events carry no time
                clock.pin(record.data["ts"])
            store_events.apply_event(lms, record.type, record.data)
            report.records_replayed += 1
            if record.type == "answers":
                report.batched_answers += len(record.data.get("answers", ()))
            report.last_lsn = record.lsn
    clock.go_live()
    return report


# -- differential equality ------------------------------------------------------


def _adaptive_digest(session) -> Optional[Dict[str, object]]:
    """An adaptive sitting's full observable state (None = fixed exam).

    Raw floats, not rounded: the replay property is **bit** identity of
    the item sequence and the theta/SE trajectory.
    """
    if session is None:
        return None
    return {
        "administered": list(session.administered),
        "responses": list(session.responses),
        "trajectory": [list(point) for point in session.trajectory],
        "theta": session.theta,
        "standard_error": session.standard_error,
        "next_item": session.next_item(),
        "stop_reason": session.stop_reason(),
        "table_version": session.table.version,
    }


def _cmi_digest(snapshot: Dict[str, object]) -> Dict[str, object]:
    """A CMI snapshot minus the suspend-history keys (see above)."""
    digest = dict(snapshot)
    digest.pop("suspend_data", None)
    core = digest.get("core")
    if isinstance(core, dict):
        core = dict(core)
        core.pop("exit", None)
        digest["core"] = core
    return digest


def state_fingerprint(lms) -> Dict[str, object]:
    """A canonical, comparable digest of everything the LMS serves.

    Two LMS instances with equal fingerprints are observably identical:
    catalog, enrollment, learner records, graded results, the tracking
    log, the monitor's proctoring record, every in-flight sitting
    (delivery state *and* its SCORM CMI conversation), and the §4.1
    live analysis per exam.  The crash-recovery and hypothesis tests
    compare ``state_fingerprint(recovered) == state_fingerprint(live)``
    — the acceptance bar of the durability subsystem.

    A sitting's CMI digest comes from its live data model while the
    SCORM session runs.  A submitted sitting's adapter has released its
    model, so the digest comes from the attempt record's committed
    snapshot, which ``LMSFinish`` took of that same final model.

    One documented exclusion: ``cmi.core.exit`` and
    ``cmi.suspend_data`` record *when* a sitting was last suspended,
    history a snapshot of a since-resumed session cannot carry (see
    ``docs/durability.md``), so they are left out of the CMI digest.
    """
    from repro.bank.exambank import exam_to_record

    from repro.core.errors import AssessmentError

    with lms.lock:
        analyses = {}
        for exam_id in lms.offered_exams():
            try:
                analysis = lms.live_analysis(exam_id)
            except AssessmentError as exc:
                # a cohort too small to analyze is itself part of the
                # state: both sides must refuse identically
                analyses[exam_id] = {"unanalyzable": str(exc)}
                continue
            analyses[exam_id] = {
                "rows": [list(q.number_row()) for q in analysis.questions],
                "signals": [s.value for s in analysis.signals],
                "scores": dict(analysis.scores),
                "high_group": list(analysis.high_group),
                "low_group": list(analysis.low_group),
            }
        return {
            "exams": [
                exam_to_record(lms.exam(e)) for e in lms.offered_exams()
            ],
            "enrollment": {
                exam_id: sorted(lms.enrolled(exam_id))
                for exam_id in lms.offered_exams()
            },
            "learners": [
                {
                    "learner_id": learner.learner_id,
                    "name": learner.name,
                    "email": learner.email,
                    "course_status": dict(learner.course_status),
                    "course_scores": dict(learner.course_scores),
                }
                for learner in lms.learners
            ],
            "results": {
                exam_id: [
                    {
                        "learner_id": sitting.learner_id,
                        "duration_seconds": sitting.duration_seconds,
                        "answer_times": list(sitting.answer_times),
                        "scores": {
                            item_id: {
                                "points": score.points,
                                "max_points": score.max_points,
                                "correct": score.correct,
                                "selected": score.selected,
                                "needs_manual_grading": (
                                    score.needs_manual_grading
                                ),
                            }
                            for item_id, score in sitting.scores.items()
                        },
                    }
                    for sitting in lms.results_for(exam_id)
                ]
                for exam_id in lms.offered_exams()
            },
            "tracking": [
                {
                    "kind": event.kind.value,
                    "learner_id": event.learner_id,
                    "course_id": event.course_id,
                    "timestamp": event.timestamp,
                    "detail": event.detail,
                }
                for event in lms.tracking
            ],
            "monitor": lms.monitor.export_state(),
            "sittings": {
                f"{learner_id}:{exam_id}": {
                    "session": sitting.session.export_state(),
                    "item_order": list(sitting.item_order),
                    "interaction_count": sitting.interaction_count,
                    "cmi": _cmi_digest(
                        sitting.api.datamodel.snapshot()
                        if sitting.api.datamodel is not None
                        else lms.rte.record(learner_id, exam_id).last_snapshot
                    ),
                    "adaptive": _adaptive_digest(sitting.adaptive),
                }
                for (learner_id, exam_id), sitting in sorted(
                    lms._sittings.items()
                )
            },
            "calibrations": {
                exam_id: {"version": version, "parameters": {
                    item_id: (params.a, params.b, params.c)
                    for item_id, params in sorted(overlay.items())
                }}
                for exam_id, (version, overlay) in sorted(
                    lms._calibrations.items()
                )
            },
            "live_analysis": analyses,
        }
