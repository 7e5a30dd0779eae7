"""Tail-following WAL reader: the feed under the analytics read models.

:class:`JournalTailer` reads a journal directory the way ``tail -f``
reads a log file: position once at any LSN (binary-searching the
segment by its filename prefix — no decoding of prior segments), then
:meth:`poll` repeatedly (or iterate :meth:`follow`) to receive every
record appended since, **exactly once**, in LSN order.  The tailer is a
pure reader — it opens segment files read-only, keeps a byte offset
into the active one, and never touches the writer's :class:`~repro.
store.journal.Journal` instance — so it can run in the serving process
(the read-model thread) or in a completely separate one.  It decodes
from that offset with :func:`~repro.store.journal.scan_segment`, the
decoder recovery uses, so the two cannot disagree on framing.

What it survives, by design:

* **mid-read segment rotation** — a sealed segment is drained to its
  last record, then the successor (named ``wal-<last_lsn + 1>``) is
  picked up in the same poll;
* **seal-and-continue upgrades** — a v1 JSONL tail sealed by a
  ``format=2`` reopen, or a version-2 binary tail sealed by a reopen
  that writes version 3, is followed into its successor segment
  transparently (the format is re-detected per segment);
* **a torn tail** — a half-written record at the tip is *not* an
  error: the tailer holds its offset at the last whole record and
  retries, so a group-committed batch is seen exactly once, never as a
  duplicate or a mangled prefix;
* **checkpoint retirement behind it** — segments the tailer has fully
  consumed may be deleted underneath it; it re-locates by filename.
  Retirement *ahead* of its position means records it never saw are
  gone, which raises :class:`TailTruncatedError` — the caller must
  restart from a newer read-model checkpoint.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Iterator, List, Optional

from repro import obs
from repro.core.errors import JournalCorruptError, StoreError
from repro.store.journal import (
    JournalRecord,
    scan_segment,
    segment_files,
    segment_first_lsn,
    start_segment_index,
)

__all__ = ["JournalTailer", "TailTruncatedError", "DEFAULT_POLL_INTERVAL"]

#: how long :meth:`JournalTailer.follow` sleeps when the tip is quiet
DEFAULT_POLL_INTERVAL = 0.02


class TailTruncatedError(StoreError):
    """Records between the tailer's position and the oldest surviving
    segment were retired by checkpoint compaction; the follower cannot
    continue without losing history and must restart from a newer
    read-model checkpoint."""


class JournalTailer:
    """An incremental, restartable reader over a journal directory.

    ``start_lsn`` is the consumer's high-water mark: the first record
    yielded is the first with ``lsn > start_lsn``.  Not thread-safe —
    one tailer, one consumer thread (the read-model service wraps it).
    """

    def __init__(
        self,
        directory: "str | Path",
        start_lsn: int = 0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        self.directory = Path(directory)
        self.poll_interval = float(poll_interval)
        self._lsn = int(start_lsn)
        self._segment: Optional[Path] = None
        self._offset = 0
        #: lifetime totals
        self.records_read = 0
        self.polls = 0
        self.segments_followed = 0

    @property
    def position(self) -> int:
        """The LSN of the last record yielded (the consumer's mark)."""
        return self._lsn

    # -- the poll loop --------------------------------------------------------

    def poll(self) -> List[JournalRecord]:
        """Every record appended since the last poll, possibly empty.

        Drains across segment boundaries in one call; returns with the
        tailer parked at the current tip (or at a torn final record,
        which the next poll retries).
        """
        self.polls += 1
        records: List[JournalRecord] = []
        while True:
            if self._segment is None and not self._locate():
                break
            if not self._scan_active(records):
                break
        if records:
            self.records_read += len(records)
            obs.count("tail.records", len(records))
        return records

    def follow(
        self, stop: Optional[threading.Event] = None
    ) -> Iterator[JournalRecord]:
        """Block at the tip, yielding records as they are appended.

        Runs until ``stop`` is set (checked between polls); with no
        event, runs forever — the read-model service's thread body.
        """
        while stop is None or not stop.is_set():
            batch = self.poll()
            if batch:
                for record in batch:
                    yield record
                continue  # drain hot: no sleep while records flow
            if stop is not None:
                stop.wait(self.poll_interval)
            else:  # pragma: no cover - unbounded variant
                time.sleep(self.poll_interval)

    # -- positioning ----------------------------------------------------------

    def _locate(self) -> bool:
        """Pick the segment holding ``lsn + 1`` by filename binary
        search; False when the directory has no segments yet."""
        segments = segment_files(self.directory)
        if not segments:
            return False
        if segment_first_lsn(segments[0]) > self._lsn + 1:
            raise TailTruncatedError(
                f"records after lsn {self._lsn} were retired: the oldest "
                f"surviving segment is {segments[0].name}; restart the "
                f"follower from a newer checkpoint"
            )
        index = start_segment_index(segments, self._lsn)
        self._enter_segment(segments[index])
        return True

    def _enter_segment(self, path: Path) -> None:
        self._segment = path
        self._offset = 0
        self.segments_followed += 1

    def _advance_if_sealed(self) -> bool:
        """Move to the successor segment when the current one is sealed
        exactly at our position; True when the tailer advanced."""
        segments = segment_files(self.directory)
        for path in segments:
            if segment_first_lsn(path) == self._lsn + 1 and (
                path != self._segment
            ):
                self._enter_segment(path)
                return True
        return False

    # -- scanning -------------------------------------------------------------

    def _scan_active(self, records: List[JournalRecord]) -> bool:
        """Decode what the active segment holds past our offset; True
        when the poll loop should spin again (more may be readable)."""
        try:
            scan = scan_segment(self._segment, self._offset)
        except FileNotFoundError:
            # retired underneath us after we drained it; re-locate (the
            # gap check in _locate catches retirement *ahead* of us)
            self._segment = None
            return True
        if scan.bad_header:
            raise JournalCorruptError(
                f"segment {self._segment.name}: {scan.error}"
            )
        for record in scan.records:
            if record.lsn > self._lsn:
                records.append(record)
                self._lsn = record.lsn
        self._offset = scan.valid_bytes
        if scan.error is not None:
            # torn final record: hold position, retry on the next poll
            # (a *sealed* segment can only end torn after a crash the
            # writer has not repaired yet — waiting is correct there
            # too, since Journal.open truncates before appending more)
            return False
        # cleanly at EOF: sealed-and-rotated segments hand over here
        return self._advance_if_sealed()
