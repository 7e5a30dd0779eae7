"""Tail-following WAL reader: the feed under the analytics read models.

:class:`JournalTailer` reads a journal directory the way ``tail -f``
reads a log file: position once at any LSN (binary-searching the
segment by its filename prefix — no decoding of prior segments), then
:meth:`poll` repeatedly to receive every record appended since,
**exactly once**, in LSN order.  It never blocks or sleeps: the caller
decides when to poll (the read-model service polls on its own thread
and before every query).  The tailer is a pure reader — it opens
segment files read-only, keeps a byte offset into the active one, and
never touches the writer's :class:`~repro.store.journal.Journal`
instance — so it can run in the serving process (the read-model
thread) or in a completely separate one.

It decodes from that offset with
:func:`~repro.store.journal.scan_segment` and applies the journal's
reading rules to what it reads: :func:`~repro.store.journal.check_scan`
(a torn tip is held and retried; damage raises),
:func:`~repro.store.journal.check_dense` on the records it yields (a
hole raises), and :func:`~repro.store.journal.check_retired` wherever
it positions (retirement *ahead* of it raises :class:`TailTruncatedError`,
and the caller restarts from a newer read-model checkpoint; retirement
behind it is invisible).  A poll that meets an error after reading
whole records returns them, and the next poll raises.  One thing is the
tailer's own: the writer can finish the tip record, or append more, and
rotate between a scan and the listing that shows the segment sealed, so
a sealed segment that looks damaged or short is rescanned once before
the rules judge it.  It follows rotations and the v1→binary and v2→v3
seal-and-continue upgrades, re-detecting the format per segment.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.errors import StoreError
from repro.store.journal import (
    JournalRecord,
    TailScan,
    TailTruncatedError,
    check_dense,
    check_retired,
    check_scan,
    scan_segment,
    segment_files,
    segment_first_lsn,
    start_segment_index,
)

__all__ = ["JournalTailer", "TailTruncatedError"]


class JournalTailer:
    """An incremental, restartable reader over a journal directory.

    ``start_lsn`` is the consumer's high-water mark: the first record
    yielded is the first with ``lsn > start_lsn``.  Not thread-safe —
    one tailer, one consumer thread (the read-model service wraps it).
    """

    def __init__(self, directory: "str | Path", start_lsn: int = 0) -> None:
        self.directory = Path(directory)
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
        try:
            while self._segment is not None or self._locate():
                if not self._scan_active(records):
                    break
        except StoreError:
            if not records:
                raise
            # whole records first; the next poll raises again
        if records:
            self.records_read += len(records)
            obs.count("tail.records", len(records))
        return records

    # -- positioning ----------------------------------------------------------

    def seek(self, lsn: int) -> None:
        """Re-position so the next record yielded is the first with
        ``lsn`` above this one; the lifetime totals carry on."""
        self._lsn = int(lsn)
        self._segment = None

    def _locate(self) -> bool:
        """Pick the segment holding ``lsn + 1`` by filename binary
        search; False when the directory has no segments yet."""
        segments = segment_files(self.directory)
        if not segments:
            return False
        check_retired(
            segments,
            self._lsn,
            "they were retired ahead of the follower; restart it from a "
            "newer read-model checkpoint",
        )
        self._enter_segment(segments[start_segment_index(segments, self._lsn)])
        return True

    def _enter_segment(self, path: Path) -> None:
        self._segment = path
        self._offset = 0
        self.segments_followed += 1

    def _later_segments(self) -> List[Path]:
        """The segments listed after the current one.  Only these can
        succeed it: an empty v1 segment and the binary one after it
        share a first LSN, and must not hand over to each other in
        turn."""
        segments = segment_files(self.directory)
        if self._segment in segments:
            segments = segments[segments.index(self._segment) + 1:]
        return segments

    # -- scanning -------------------------------------------------------------

    def _scan_active(self, records: List[JournalRecord]) -> bool:
        """Decode what the active segment holds past our offset; True
        when the poll loop should spin again (more may be readable)."""
        rescanned = False
        while True:
            try:
                scan = scan_segment(self._segment, self._offset)
            except FileNotFoundError:
                # retired underneath us after we drained it; re-locate
                self._segment = None
                return True
            self._take(scan, records)
            later = self._later_segments()
            if not later:
                # the tip: held at a torn record until the next poll
                check_scan(self._segment, scan, final=True)
                return False
            if rescanned or (
                not scan.torn_bytes
                and segment_first_lsn(later[0]) <= self._lsn + 1
            ):
                # sealed: a hole before later[0] fails the density
                # check of its first record
                check_scan(self._segment, scan, final=False)
                self._enter_segment(later[0])
                return True
            # a later segment means the writer sealed this one, but it
            # may have finished the torn record, or appended more, and
            # rotated after our scan: rescan once to tell
            rescanned = True

    def _take(self, scan: TailScan, records: List[JournalRecord]) -> None:
        """Move past ``scan``, collecting its records above our mark."""
        fresh = [record for record in scan.records if record.lsn > self._lsn]
        check_dense(self._segment, fresh, self._lsn)
        if fresh:
            records.extend(fresh)
            self._lsn = fresh[-1].lsn
        self._offset = scan.valid_bytes
