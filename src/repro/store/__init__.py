"""``repro.store`` — the durable event journal under the LMS.

An append-only, checksummed write-ahead log plus a snapshot/compaction
engine (see ``docs/durability.md``):

* :class:`Journal` — segmented WAL with per-record CRC32 and monotonic
  LSNs, configurable fsync policy, torn-tail repair, batched appends
  with group commit, and two auto-detected wire formats (JSONL v1 and
  the compact binary format of :mod:`repro.store.format`, whose LMS
  events are schema-coded);
* :mod:`repro.store.events` — one journaled event per LMS mutation,
  emitted under the LMS lock, replayed through the same public
  mutators;
* :func:`recover` — latest checkpoint + WAL suffix → an
  :class:`~repro.lms.lms.Lms` provably equal to the one that crashed;
* :class:`Checkpointer` — periodic/on-demand snapshots that retire
  fully-covered WAL segments, bounding disk without ever dropping the
  unreplayed suffix.

Resolution is lazy (PEP 562): :mod:`repro.lms.lms` imports the event
schema at module load, and the recovery side imports the LMS — laziness
is what keeps that mutual reference acyclic.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "FSYNC_POLICIES": ("repro.store.journal", "FSYNC_POLICIES"),
    "JOURNAL_FORMATS": ("repro.store.journal", "JOURNAL_FORMATS"),
    "Journal": ("repro.store.journal", "Journal"),
    "JournalRecord": ("repro.store.journal", "JournalRecord"),
    "read_records": ("repro.store.journal", "read_records"),
    "scan_segment": ("repro.store.journal", "scan_segment"),
    "segment_files": ("repro.store.journal", "segment_files"),
    "segment_first_lsn": ("repro.store.journal", "segment_first_lsn"),
    "segment_format": ("repro.store.journal", "segment_format"),
    "start_segment_index": ("repro.store.journal", "start_segment_index"),
    "JournalTailer": ("repro.store.tail", "JournalTailer"),
    "TailTruncatedError": ("repro.store.tail", "TailTruncatedError"),
    "recover": ("repro.store.recovery", "recover"),
    "RecoveryReport": ("repro.store.recovery", "RecoveryReport"),
    "ReplayClock": ("repro.store.recovery", "ReplayClock"),
    "state_fingerprint": ("repro.store.recovery", "state_fingerprint"),
    "Checkpointer": ("repro.store.checkpoint", "Checkpointer"),
    "CheckpointResult": ("repro.store.checkpoint", "CheckpointResult"),
    "checkpoint_files": ("repro.store.checkpoint", "checkpoint_files"),
    "latest_checkpoint": ("repro.store.checkpoint", "latest_checkpoint"),
    "apply_event": ("repro.store.events", "apply_event"),
    "EVENT_TYPES": ("repro.store.events", "EVENT_TYPES"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static-analysis eyes only
    from repro.store.checkpoint import (  # noqa: F401
        Checkpointer,
        CheckpointResult,
        checkpoint_files,
        latest_checkpoint,
    )
    from repro.store.events import EVENT_TYPES, apply_event  # noqa: F401
    from repro.store.journal import (  # noqa: F401
        FSYNC_POLICIES,
        JOURNAL_FORMATS,
        Journal,
        JournalRecord,
        read_records,
        scan_segment,
        segment_files,
        segment_first_lsn,
        segment_format,
        start_segment_index,
    )
    from repro.store.tail import (  # noqa: F401
        JournalTailer,
        TailTruncatedError,
    )
    from repro.store.recovery import (  # noqa: F401
        RecoveryReport,
        ReplayClock,
        recover,
        state_fingerprint,
    )
