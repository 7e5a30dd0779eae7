"""The in-process read-model follower the exam server embeds.

:class:`ReadModelService` owns one :class:`~repro.readmodel.model.
ReadModel`, one :class:`~repro.store.tail.JournalTailer`, and a lock.
Started, it runs a daemon thread that polls the WAL and folds new
records as they commit; admin handlers call :meth:`sync` before
answering — a cheap catch-up of whatever delta accumulated since the
last poll — which gives read-your-writes consistency in the serving
process while keeping every query O(aggregate), not O(history).

Restart resumes from the newest ``readmodel-*.json`` checkpoint in the
WAL directory that loads (older retained ones are tried in turn) and
replays only the suffix.  If compaction ever retires
records past the follower's position (it cannot in-process — the server
syncs the read model *before* the LMS checkpointer compacts — but an
external follower can race an external compactor), the tailer raises
:class:`~repro.store.tail.TailTruncatedError` and the service restarts
itself from the newest checkpoint rather than serving a silent gap.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.core.errors import StoreError
from repro.readmodel.checkpoint import (
    load_readmodel,
    readmodel_files,
    save_readmodel,
)
from repro.readmodel.model import ReadModel
from repro.store.tail import JournalTailer, TailTruncatedError

__all__ = ["ReadModelService", "DEFAULT_POLL_INTERVAL"]

#: follower thread cadence; per-request sync() hides it from clients
DEFAULT_POLL_INTERVAL = 0.05


class ReadModelService:
    """A checkpoint-resumable WAL follower plus its query lock."""

    def __init__(self, directory: "str | Path", journal=None) -> None:
        self.directory = Path(directory)
        self.journal = journal
        self.lock = threading.RLock()
        self.model = self._resume()
        self._tailer = JournalTailer(
            self.directory, start_lsn=self.model.applied_lsn
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.restarts = 0
        self.checkpoints_taken = 0

    def _resume(self) -> ReadModel:
        # newest first: a torn/corrupt checkpoint must not strand the
        # follower while an older retained one still loads
        for path in reversed(readmodel_files(self.directory)):
            try:
                model = load_readmodel(path)
            except (StoreError, ValueError, OSError):
                obs.count("readmodel.checkpoint.unreadable")
                continue
            obs.count("readmodel.resumes")
            return model
        return ReadModel()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="readmodel-follower", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.sync()
            except Exception:
                # surfaced to queries via sync(), which retries from the
                # failed record; the thread keeps going
                obs.count("readmodel.follower.errors")
            self._stop.wait(DEFAULT_POLL_INTERVAL)

    def close(self) -> None:
        """Stop the follower thread (the model stays queryable)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    # -- folding -------------------------------------------------------------

    def sync(self) -> int:
        """Fold everything appended since the last poll; records applied.

        Cheap at the tip (one directory listing + an EOF read), so
        handlers call it per-request for read-your-writes semantics.
        When a record's fold raises, the tailer is placed back after the
        last applied record, so the next sync retries it, then re-raises.
        """
        with self.lock:
            try:
                records = self._tailer.poll()
            except TailTruncatedError:
                self._restart_from_checkpoint()
                records = self._tailer.poll()
            try:
                applied = self.model.apply_all(records)
            except Exception:
                self._tailer.seek(self.model.applied_lsn)
                raise
        if applied:
            obs.count("readmodel.events.applied", applied)
        return applied

    def _restart_from_checkpoint(self) -> None:
        """Re-anchor after compaction ran ahead of the follower."""
        self.restarts += 1
        obs.count("readmodel.follower.restarts")
        self.model = self._resume()
        self._tailer.seek(self.model.applied_lsn)

    def checkpoint(self) -> Path:
        """Sync to the tip, then persist the fold state."""
        with self.lock:
            self.sync()
            path = save_readmodel(self.model, self.directory)
            self.checkpoints_taken += 1
        return path

    # -- introspection -------------------------------------------------------

    def info(self) -> Dict[str, object]:
        """The /metrics payload: position, lag, and follower counters."""
        with self.lock:
            payload: Dict[str, object] = {
                "applied_lsn": self.model.applied_lsn,
                "applied_events": self.model.applied_events,
                "exams": len(self.model.exams),
                "records_read": self._tailer.records_read,
                "polls": self._tailer.polls,
                "segments_followed": self._tailer.segments_followed,
                "restarts": self.restarts,
                "checkpoints_taken": self.checkpoints_taken,
            }
            if self.journal is not None:
                payload["journal_lsn"] = self.journal.last_lsn
                payload["lag"] = max(
                    self.journal.last_lsn - self.model.applied_lsn, 0
                )
        return payload
