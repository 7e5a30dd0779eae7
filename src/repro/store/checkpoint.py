"""Checkpointing and WAL compaction.

A write-ahead log grows without bound; the checkpoint engine bounds it.
:meth:`Checkpointer.checkpoint` takes a consistent LMS snapshot (the
payload of :mod:`repro.lms.persistence`, which includes in-flight
sittings — a checkpoint must never truncate a learner mid-exam) stamped
with the highest LSN it covers, seals the active segment, and then
**retires** every sealed segment whose records are all ``<=`` that LSN.
Recovery from the newest snapshot plus the surviving suffix reproduces
the exact live state (:func:`repro.store.recovery.recover`), so deleting
covered history is safe by construction — the compaction property tests
replay from every checkpoint a run produced and assert convergence.

A pass runs in three steps:

1. Under :attr:`Lms.lock` — the lock every mutator appends under — it
   reads the LSN and collects the payload
   (:func:`~repro.lms.persistence.collect_payload`), in one critical
   section.  The snapshot so covers *exactly* the records up to its
   stamp, never a torn prefix of a mutation.
2. With the lock released, it fsyncs the journal unless the records
   up to the stamp are durable already (``never`` fsyncs no segment),
   so a power loss cannot leave the snapshot above the WAL's end.
   Then :func:`~repro.lms.persistence.save_lms` streams the payload as
   compact JSON to a temp file, fsyncs it, renames it to
   ``checkpoint-<lsn>.json`` and fsyncs the directory.  Writers
   proceed meanwhile; their records land above the stamp, in the
   segment that so outlives this pass.
3. Only once the file and its directory entry are durable does it
   rotate the journal, retire covered segments and prune old snapshots,
   so a power loss can never leave history deleted behind a snapshot
   that did not reach the disk.

The write runs outside the LMS lock, so the checkpointer serializes
passes itself: one pass at a time per instance.

Snapshots sit next to the WAL segments, and the newest ``keep``
(default 2) are retained.  An older one is a point-in-time copy of the
state, not a recovery fallback: compaction retires segments against the
newest snapshot, so the records between an older one and the newest
are usually gone.  Recovering from it (say the newest file was deleted)
raises :class:`~repro.core.errors.StoreError` naming the missing LSN
range instead of silently dropping them.

Compaction is wire-format agnostic: segments are retired by the LSN in
their *name*, so after a mid-stream upgrade (an old JSONL v1 tail
sealed, binary segments growing) the first checkpoint that covers the
v1 files retires them exactly as it would binary ones — the natural
path for aging a v1 directory out entirely.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.errors import StoreError
from repro.store.durable import LsnFiles

__all__ = [
    "Checkpointer",
    "CheckpointResult",
    "checkpoint_files",
    "latest_checkpoint",
]

_CHECKPOINTS = LsnFiles("checkpoint-", (".json",), "checkpoint")


def checkpoint_files(directory: "str | Path") -> List[Path]:
    """Every checkpoint snapshot in the directory, oldest first."""
    return _CHECKPOINTS.files(directory)


def latest_checkpoint(directory: "str | Path") -> Optional[Path]:
    """The newest checkpoint snapshot, or None when none exists."""
    return _CHECKPOINTS.newest(directory)


@dataclass
class CheckpointResult:
    """One checkpoint pass: what was written and what it freed."""

    #: the snapshot file written
    path: Path
    #: highest journal LSN the snapshot covers
    covered_lsn: int
    #: WAL segments deleted because the snapshot covers them fully
    retired_segments: List[Path] = field(default_factory=list)
    #: older snapshot files pruned by the retention bound
    pruned_checkpoints: List[Path] = field(default_factory=list)


class Checkpointer:
    """Periodic/on-demand snapshot-and-compact for one LMS + journal.

    Snapshots are written next to the journal's segments.  One pass at
    a time: :meth:`checkpoint` holds the instance's own lock for the
    whole pass and :attr:`Lms.lock` only while collecting, so the lock
    order is pass lock, then LMS lock.
    """

    def __init__(self, lms, journal, *, keep: int = 2) -> None:
        if keep < 1:
            raise StoreError(f"must keep at least 1 checkpoint, got {keep}")
        self.lms = lms
        self.journal = journal
        self.keep = int(keep)
        self.checkpoints_taken = 0
        #: highest LSN any checkpoint this instance wrote has covered
        self.last_covered_lsn = 0
        self._pass_lock = threading.Lock()

    def checkpoint(self) -> CheckpointResult:
        """Snapshot now, then retire covered segments and old snapshots."""
        from repro.lms.persistence import collect_payload, save_lms

        with self._pass_lock, obs.span("store.checkpoint"):
            # one critical section: the LSN stamp and the collected
            # state see the same instant, so the snapshot covers exactly
            # the records up to `covered`
            with self.lms.lock:
                covered = self.journal.last_lsn
                payload = collect_payload(self.lms)
            # the records the snapshot covers reach the disk first
            if (
                self.journal.fsync_policy != "never"
                and self.journal.durable_lsn < covered
            ):
                self.journal.sync()
            # writers run again while the snapshot is encoded and made
            # durable; nothing it covers is deleted before that
            directory = self.journal.directory
            path = directory / _CHECKPOINTS.name(covered)
            save_lms(payload, path, wal_lsn=covered)
            # seal the active segment so the *next* checkpoint can
            # retire everything written up to this one
            self.journal.rotate()
            retired = self.journal.retire_covered(covered)
            pruned = _CHECKPOINTS.prune(directory, self.keep)
            self.checkpoints_taken += 1
            self.last_covered_lsn = max(self.last_covered_lsn, covered)
        obs.count("store.checkpoints")
        if pruned:
            obs.count("store.checkpoints.pruned", len(pruned))
        return CheckpointResult(
            path=path,
            covered_lsn=covered,
            retired_segments=retired,
            pruned_checkpoints=pruned,
        )
