"""The on-line exam monitor (paper §5, §6).

"When learners take the exam, monitor function captures the client
picture for monitoring the exam progress."  The paper's monitor grabs a
webcam/screen picture on a schedule while a sitting runs.

This reproduction substitutes synthetic frames for real pictures (there
is no camera in a library), preserving the code path end to end: a
capture *schedule* driven by the session clock, per-sitting frame
storage with bounded retention, and a review API for proctors.  A
frame's picture is a deterministic byte payload derived from (learner,
exam, sequence number), so tests can verify integrity, and a frame
keeps only what determines it.
"""

from __future__ import annotations

import base64
import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.errors import MonitorError

__all__ = ["CapturedFrame", "ExamMonitor"]


@dataclass(frozen=True)
class CapturedFrame:
    """One captured picture: identity and capture time."""

    learner_id: str
    exam_id: str
    sequence: int
    elapsed_seconds: float

    @property
    def payload(self) -> bytes:
        """The picture, derived from the frame's identity."""
        return _synthetic_picture(
            self.learner_id, self.exam_id, self.sequence
        )

    def checksum(self) -> str:
        """SHA-256 of the frame payload, for integrity checks."""
        return hashlib.sha256(self.payload).hexdigest()


def _synthetic_picture(learner_id: str, exam_id: str, sequence: int) -> bytes:
    """A deterministic stand-in for a captured client picture."""
    seed = f"{learner_id}|{exam_id}|{sequence}".encode()
    block = hashlib.sha256(seed).digest()
    # 1 KiB payload: repeated digest, like a tiny fake JPEG body
    return b"MINEPIC0" + block * 32


class ExamMonitor:
    """Capture scheduling and frame storage for running sittings.

    ``interval_seconds`` — how often a frame is due; ``max_frames`` —
    retention bound per sitting (oldest dropped first, as a real proctor
    store would cap disk usage).
    """

    def __init__(
        self,
        interval_seconds: float = 30.0,
        max_frames: int = 200,
        enabled: bool = True,
    ) -> None:
        if interval_seconds <= 0:
            raise MonitorError(
                f"capture interval must be positive, got {interval_seconds}"
            )
        if max_frames < 1:
            raise MonitorError(f"max_frames must be positive, got {max_frames}")
        self.interval_seconds = interval_seconds
        self.max_frames = max_frames
        self.enabled = enabled
        self._frames: Dict[Tuple[str, str], List[CapturedFrame]] = {}
        self._last_capture: Dict[Tuple[str, str], float] = {}
        self._dropped: Dict[Tuple[str, str], int] = {}
        self._captured_total = 0
        self._polls_total = 0
        # leaf lock: the LMS polls the monitor from concurrent sittings
        # (shared-mode hot paths), so the frame store guards itself
        self._lock = threading.RLock()

    # -- capturing -----------------------------------------------------------

    def poll(
        self, learner_id: str, exam_id: str, elapsed_seconds: float
    ) -> Optional[CapturedFrame]:
        """Capture a frame if one is due at this elapsed time.

        Call this on every learner interaction (or a timer tick); it
        captures at most one frame per interval.  Returns the new frame,
        or None when none was due or the monitor is disabled.
        """
        if not self.enabled:
            return None
        if elapsed_seconds < 0:
            raise MonitorError(f"elapsed time cannot be negative: {elapsed_seconds}")
        with self._lock:
            self._polls_total += 1
            key = (learner_id, exam_id)
            last = self._last_capture.get(key)
            if (
                last is not None
                and elapsed_seconds - last < self.interval_seconds
            ):
                return None
            return self.capture(learner_id, exam_id, elapsed_seconds)

    def capture(
        self, learner_id: str, exam_id: str, elapsed_seconds: float
    ) -> CapturedFrame:
        """Capture a frame unconditionally (proctor-triggered snapshot)."""
        if not self.enabled:
            raise MonitorError("monitor is disabled")
        with self._lock:
            key = (learner_id, exam_id)
            frames = self._frames.setdefault(key, [])
            sequence = self._dropped.get(key, 0) + len(frames)
            frame = CapturedFrame(
                learner_id=learner_id,
                exam_id=exam_id,
                sequence=sequence,
                elapsed_seconds=elapsed_seconds,
            )
            frames.append(frame)
            self._captured_total += 1
            obs.count("monitor.frames.captured")
            if len(frames) > self.max_frames:
                frames.pop(0)
                self._dropped[key] = self._dropped.get(key, 0) + 1
                obs.count("monitor.frames.dropped")
            self._last_capture[key] = elapsed_seconds
            return frame

    # -- review -----------------------------------------------------------------

    def frames_for(self, learner_id: str, exam_id: str) -> List[CapturedFrame]:
        """All retained frames of one sitting, in capture order."""
        with self._lock:
            return list(self._frames.get((learner_id, exam_id), []))

    def dropped_count(self, learner_id: str, exam_id: str) -> int:
        """Frames discarded by the retention bound."""
        with self._lock:
            return self._dropped.get((learner_id, exam_id), 0)

    def monitored_sittings(self) -> List[Tuple[str, str]]:
        """(learner, exam) pairs with retained frames."""
        with self._lock:
            return list(self._frames)

    # -- live metrics (the Fig. 6 progress view, animated) -------------------

    def metrics(self) -> Dict[str, int]:
        """Live monitor counters — the paper's Fig. 6 progress panel.

        ``frames_captured`` and ``polls`` are lifetime totals (they
        survive :meth:`clear`); the rest reflect the current frame
        store.  The same numbers flow into
        :mod:`repro.obs` counters (``monitor.frames.*``) when profiling
        is enabled, so a ``--profile`` run shows capture pressure next to
        the span tree.
        """
        with self._lock:
            return {
                "sittings_monitored": len(self._frames),
                "frames_captured": self._captured_total,
                "frames_retained": sum(
                    len(frames) for frames in self._frames.values()
                ),
                "frames_dropped": sum(self._dropped.values()),
                "polls": self._polls_total,
            }

    def sitting_metrics(self, learner_id: str, exam_id: str) -> Dict[str, float]:
        """One sitting's live view: frames held, dropped, last capture."""
        key = (learner_id, exam_id)
        with self._lock:
            return {
                "frames_retained": len(self._frames.get(key, ())),
                "frames_dropped": self._dropped.get(key, 0),
                "last_capture_elapsed": self._last_capture.get(key, -1.0),
            }

    def clear(self, learner_id: str, exam_id: str) -> int:
        """Purge a sitting's frames (after review); returns count purged."""
        with self._lock:
            frames = self._frames.pop((learner_id, exam_id), [])
            self._last_capture.pop((learner_id, exam_id), None)
            self._dropped.pop((learner_id, exam_id), None)
            return len(frames)

    # -- persistence -----------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """The monitor's full durable state as a JSON-compatible dict.

        Everything a restart would otherwise lose: configuration, the
        retained frames (payloads base64-encoded), the capture schedule,
        per-sitting drop counts, and the lifetime totals.  Consumed by
        :func:`repro.lms.persistence.collect_payload`.
        """
        with self._lock:
            return self._export_state_locked()

    def _export_state_locked(self) -> Dict[str, object]:
        frames = [
            {
                "learner_id": frame.learner_id,
                "exam_id": frame.exam_id,
                "sequence": frame.sequence,
                "elapsed_seconds": frame.elapsed_seconds,
                "payload_b64": base64.b64encode(frame.payload).decode(
                    "ascii"
                ),
            }
            for sitting_frames in self._frames.values()
            for frame in sitting_frames
        ]
        return {
            "interval_seconds": self.interval_seconds,
            "max_frames": self.max_frames,
            "enabled": self.enabled,
            "frames": frames,
            "last_capture": [
                {"learner_id": lid, "exam_id": eid, "elapsed_seconds": at}
                for (lid, eid), at in self._last_capture.items()
            ],
            "dropped": [
                {"learner_id": lid, "exam_id": eid, "count": count}
                for (lid, eid), count in self._dropped.items()
            ],
            "captured_total": self._captured_total,
            "polls_total": self._polls_total,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ExamMonitor":
        """Rebuild a monitor from :meth:`export_state` output."""
        monitor = cls(
            interval_seconds=float(state.get("interval_seconds", 30.0)),
            max_frames=int(state.get("max_frames", 200)),
            enabled=bool(state.get("enabled", True)),
        )
        for record in state.get("frames", []):
            key = (record["learner_id"], record["exam_id"])
            monitor._frames.setdefault(key, []).append(
                CapturedFrame(
                    learner_id=record["learner_id"],
                    exam_id=record["exam_id"],
                    sequence=int(record["sequence"]),
                    elapsed_seconds=float(record["elapsed_seconds"]),
                )
            )
        for frames in monitor._frames.values():
            frames.sort(key=lambda frame: frame.sequence)
        for record in state.get("last_capture", []):
            monitor._last_capture[
                (record["learner_id"], record["exam_id"])
            ] = float(record["elapsed_seconds"])
        for record in state.get("dropped", []):
            monitor._dropped[
                (record["learner_id"], record["exam_id"])
            ] = int(record["count"])
        monitor._captured_total = int(state.get("captured_total", 0))
        monitor._polls_total = int(state.get("polls_total", 0))
        return monitor
