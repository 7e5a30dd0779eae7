"""The write-ahead log: a segmented, checksummed, append-only journal.

:class:`Journal` is the durability primitive under the LMS (see
``docs/durability.md``).  Each record carries a monotonically
increasing **LSN** (log sequence number) and a CRC32, so a reader can
tell a valid record from a torn or corrupted one.  The log is
**segmented**: when the active file passes ``segment_bytes`` it is
sealed and a new segment named after the next LSN begins, which is what
lets checkpointing retire history in whole files
(:mod:`repro.store.checkpoint`).

The journal writes one format and reads two, told apart per segment by
the file suffix, so a directory can mix them (old logs recover
unchanged after an upgrade):

* binary (``wal-<lsn>.walb``): an 8-byte header (magic + version) then
  length-prefixed records (varint length + u32 CRC32 + struct-packed
  body; see :mod:`repro.store.format`).  The journal writes these, with
  the current header version (3: LMS events schema-coded); segments
  with header version 2 are still read, and :meth:`Journal.open` seals
  a version-2 tail rather than appending to it.
* v1 JSON lines (``wal-<lsn>.jsonl``), read only: one canonical JSON
  object per line with an embedded ``crc`` field, as older builds
  wrote them.  :meth:`Journal.open` seals a v1 tail and continues in a
  binary segment.

Each format has one offset-based decoder, called only by
:func:`scan_segment`, through which every reader reads.

Durability levels (``fsync`` policy):

* ``"always"`` — no append returns before its record is fsynced:
  survives OS/power loss.  Concurrent writers **group-commit**, sharing
  fsyncs that run outside the journal lock (:meth:`Journal.commit`),
  and :meth:`Journal.append_batch` makes K records one write and one
  fsync;
* ``"interval"`` — flush to the OS on every append, ``fsync`` on an
  append at least :data:`FSYNC_INTERVAL` (0.05 s) after the last one:
  survives process death (SIGKILL) with bounded data-at-risk on a
  machine crash;
* ``"never"`` — flush to the OS only: still SIGKILL-safe (the page
  cache holds the bytes), no protection against power loss.

Every policy flushes Python's userspace buffer per append, so a record
that was acknowledged to a caller is never lost to a killed *process* —
that invariant is what the crash-injection suite proves.

Every reader (:func:`read_records`, recovery, :meth:`Journal.open`,
the read model's ``rebuild`` and ``as_of``, and the tailer) applies the
same three rules, each written once here: :func:`check_scan` tells a
torn tip from damage, :func:`check_dense` finds holes in the LSN
sequence, and :func:`check_retired` finds history retired above a
reader's start LSN.  ``docs/durability.md`` ("Reading the log")
tabulates what each reader does under each.
"""

from __future__ import annotations

import bisect
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.errors import StoreError, JournalCorruptError
from repro.store import format as binfmt
from repro.store.durable import LsnFiles

__all__ = [
    "FSYNC_POLICIES",
    "Journal",
    "JournalRecord",
    "TailScan",
    "TailTruncatedError",
    "check_dense",
    "check_retired",
    "check_scan",
    "read_records",
    "scan_log",
    "scan_segment",
    "segment_files",
    "segment_first_lsn",
    "segment_format",
    "start_segment_index",
]

#: accepted values for the Journal fsync policy
FSYNC_POLICIES = ("always", "interval", "never")

#: segments are named after their first LSN; the journal writes
#: ``.walb``, and the suffix is how readers tell the formats apart
_SEGMENTS = LsnFiles("wal-", (".walb", ".jsonl"), "WAL segment")
_SUFFIX_FORMATS = {".jsonl": 1, ".walb": 2}
#: default segment rotation threshold (bytes)
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: the "interval" policy's fsync coalescing window (seconds)
FSYNC_INTERVAL = 0.05

_CRC32 = struct.Struct("<I")


@dataclass(frozen=True)
class JournalRecord:
    """One decoded WAL record: its LSN, event type, and payload."""

    lsn: int
    type: str
    data: Dict[str, object]


def _canonical(payload: Dict[str, object]) -> str:
    """The canonical encoding the v1 CRC is computed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _encode_record(lsn: int, type_: str, data: Dict[str, object]) -> bytes:
    body = binfmt.encode_body(lsn, type_, data)
    return (
        binfmt.encode_varint(len(body))
        + _CRC32.pack(zlib.crc32(body) & 0xFFFFFFFF)
        + body
    )


def _decode_line(line: bytes) -> JournalRecord:
    """Parse and verify one v1 line; raises ValueError on any defect."""
    text = line.decode("utf-8")
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("record is not an object")
    crc = payload.pop("crc", None)
    if not isinstance(crc, int):
        raise ValueError("record has no crc")
    expected = zlib.crc32(_canonical(payload).encode("utf-8")) & 0xFFFFFFFF
    if crc != expected:
        raise ValueError(f"crc mismatch: stored {crc}, computed {expected}")
    lsn = payload.get("lsn")
    type_ = payload.get("type")
    if not isinstance(lsn, int) or lsn < 1:
        raise ValueError(f"bad lsn: {lsn!r}")
    if not isinstance(type_, str) or not type_:
        raise ValueError(f"bad type: {type_!r}")
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ValueError("record data is not an object")
    return JournalRecord(lsn=lsn, type=type_, data=data)


def segment_format(path: Path) -> int:
    """The wire format a segment file uses (from its suffix)."""
    fmt = _SUFFIX_FORMATS.get(path.suffix)
    if fmt is None:
        raise StoreError(f"not a WAL segment name: {path.name}")
    return fmt


def segment_first_lsn(path: Path) -> int:
    """The first LSN a segment file can hold (encoded in its name)."""
    return _SEGMENTS.lsn(path)


def segment_files(directory: "str | Path") -> List[Path]:
    """The directory's WAL segments (either format), in LSN order.

    Two segments can share a first LSN: a v1 tail left empty by a crash
    is sealed, and the binary segment after it takes the same LSN.  The
    ``.jsonl`` then sorts first, so it is never taken for the tail.
    """
    return _SEGMENTS.files(directory)


@dataclass
class TailScan:
    """What scanning one segment found: records and any torn tail."""

    records: List[JournalRecord] = field(default_factory=list)
    #: byte offset just past the last whole record (== file size when clean)
    valid_bytes: int = 0
    #: bytes after the first bad record (0 when the segment is clean)
    torn_bytes: int = 0
    #: the decode error that ended the scan, if any
    error: Optional[str] = None
    #: the binary header is whole but its magic is wrong
    #: (:func:`check_scan` tells damage from a zeroed page)
    bad_header: bool = False
    #: the binary header's version (0 for JSONL, or when no whole header
    #: was read)
    version: int = 0


def _decode_v1(raw: bytes, start: int, scan: TailScan) -> None:
    """Decode the JSON lines in ``raw``, the segment's bytes from file
    offset ``start`` on, into ``scan`` until the first bad one."""
    pos = 0
    while pos < len(raw):
        newline = raw.find(b"\n", pos)
        if newline < 0:
            # a line without its newline is an unterminated (torn) write
            scan.error = "unterminated final record"
            return
        line = raw[pos:newline]
        if line:
            try:
                scan.records.append(_decode_line(line))
            except ValueError as exc:
                scan.error = str(exc)
                return
        pos = newline + 1
        scan.valid_bytes = start + pos


def _decode_v2(raw: bytes, start: int, scan: TailScan) -> None:
    """Decode the length-prefixed records in ``raw``, the segment's
    bytes from file offset ``start`` on (the header when ``start`` is
    0), into ``scan`` until the first bad one."""
    pos = 0
    if start == 0:
        if not raw:
            # created but never written (crash before the header): clean-empty
            return
        try:
            scan.version = binfmt.check_segment_header(raw)
        except binfmt.UnsupportedVersionError:
            raise  # not a torn tail: scan_segment reports it
        except ValueError as exc:
            # a torn header means no record ever landed; the whole file
            # is the torn tail and repair truncates it back to nothing
            scan.error = str(exc)
            scan.bad_header = len(raw) >= binfmt.SEGMENT_HEADER_LEN
            return
        pos = binfmt.SEGMENT_HEADER_LEN
        scan.valid_bytes = pos
    while pos < len(raw):
        try:
            body_len, body_start = binfmt.decode_varint(raw, pos)
            body_start += _CRC32.size
            end = body_start + body_len
            if end > len(raw):
                raise ValueError("record truncated")
            (crc,) = _CRC32.unpack_from(raw, body_start - _CRC32.size)
            body = raw[body_start:end]
            computed = zlib.crc32(body) & 0xFFFFFFFF
            if computed != crc:
                raise ValueError(
                    f"crc mismatch: stored {crc}, computed {computed}"
                )
            lsn, type_, data = binfmt.decode_body(body)
        except ValueError as exc:
            scan.error = str(exc)
            return
        scan.records.append(JournalRecord(lsn=lsn, type=type_, data=data))
        pos = end
        scan.valid_bytes = start + pos


_DECODERS = {1: _decode_v1, 2: _decode_v2}


def scan_segment(path: Path, offset: int = 0) -> TailScan:
    """Read every valid record of one segment from byte ``offset`` on,
    stopping at the first bad one (truncate-at-first-bad-record
    semantics).  ``offset`` must be a record boundary: 0, or the
    ``valid_bytes`` of an earlier scan of the same file, which is how
    the tailer resumes.  The wire format is auto-detected from the
    file suffix.  A binary header of an unknown version raises
    :class:`JournalCorruptError`: the bytes are a newer build's records,
    not a torn tail to drop."""
    decode = _DECODERS[segment_format(path)]
    with path.open("rb") as stream:
        stream.seek(offset)
        raw = stream.read()
    scan = TailScan(valid_bytes=offset)
    try:
        decode(raw, offset, scan)
    except binfmt.UnsupportedVersionError as exc:
        raise JournalCorruptError(f"segment {path.name}: {exc}") from None
    scan.torn_bytes = offset + len(raw) - scan.valid_bytes
    return scan


def start_segment_index(segments: Sequence[Path], start_lsn: int) -> int:
    """The index of the first segment that can hold ``lsn > start_lsn``.

    Segment names encode their first LSN, so the right starting point is
    the *last* segment whose first LSN is ``<= start_lsn + 1`` — found by
    binary search on the filename prefix, never by decoding records.
    The ``+ 1`` is the rotation boundary: when ``start_lsn`` is exactly
    the last record of a sealed segment, the next record is the first of
    the following segment, and scanning the sealed one would decode a
    whole file for zero yield (and, before this helper existed, an
    off-by-one here silently re-read the boundary segment).
    """
    firsts = [segment_first_lsn(path) for path in segments]
    index = bisect.bisect_right(firsts, start_lsn + 1) - 1
    return max(index, 0)


class TailTruncatedError(StoreError):
    """Records above a reader's start LSN were retired by checkpoint
    compaction: the oldest surviving segment starts past them, and the
    reader must start from a newer checkpoint instead."""


def check_scan(path: Path, scan: TailScan, final: bool) -> None:
    """The damage rule: raise :class:`JournalCorruptError` unless
    ``scan`` of ``path`` is clean or ends in a torn tip.

    A record that fails to decode is a torn tip (``scan.torn_bytes``
    are the bytes a crash cut short) only in the ``final`` segment;
    anywhere else records follow it.  A whole header with the wrong
    magic is damage wherever records decode behind it, while a first
    page zeroed by a power loss decodes nothing and stays a torn tip.
    """
    if scan.error is None:
        return
    if scan.bad_header and scan_segment(
        path, binfmt.SEGMENT_HEADER_LEN
    ).records:
        raise JournalCorruptError(
            f"segment {path.name}: {scan.error}, with whole records "
            f"behind it"
        )
    if not final:
        raise JournalCorruptError(
            f"segment {path.name} is corrupt mid-log (offset "
            f"{scan.valid_bytes}): {scan.error}"
        )


def check_dense(
    path: Path, records: Sequence[JournalRecord], previous: int
) -> int:
    """The density check: each of ``records`` (read from ``path``) must
    carry the LSN after the one before it, the first ``previous + 1``.
    Returns the last LSN (``previous`` when there are none); raises
    :class:`JournalCorruptError` naming the missing range."""
    for record in records:
        if record.lsn != previous + 1:
            raise JournalCorruptError(
                f"records {previous + 1}..{record.lsn - 1} are missing: "
                f"segment {path.name} holds lsn {record.lsn} after lsn "
                f"{previous}"
            )
        previous = record.lsn
    return previous


def check_retired(segments: Sequence[Path], start_lsn: int, hint: str) -> None:
    """The retired-history check: raise :class:`TailTruncatedError`,
    worded with the caller's ``hint``, when the oldest of ``segments``
    starts above ``start_lsn + 1``, so a reader that needs every record
    after ``start_lsn`` never reads around retired history."""
    if not segments:
        return
    oldest = segment_first_lsn(segments[0])
    if oldest > start_lsn + 1:
        raise TailTruncatedError(
            f"records {start_lsn + 1}..{oldest - 1} are missing: {hint} "
            f"(the oldest WAL segment is {segments[0].name})"
        )


def scan_log(segments: Sequence[Path]) -> Iterator[TailScan]:
    """Scan ``segments``, consecutive and oldest first, one at a time
    under :func:`check_scan` (the last is the final one) and
    :func:`check_dense` (from the first one's name on)."""
    previous = 0
    for index, path in enumerate(segments):
        scan = scan_segment(path)
        check_scan(path, scan, final=index == len(segments) - 1)
        if index == 0:
            previous = segment_first_lsn(path) - 1
        previous = check_dense(path, scan.records, previous)
        yield scan


def read_records(
    directory: "str | Path", start_lsn: int = 0
) -> Iterator[JournalRecord]:
    """Iterate every record with ``lsn > start_lsn``, in log order.

    Segments of both wire formats are read transparently, and segments
    that cannot contain ``lsn > start_lsn`` are skipped by filename
    (:func:`start_segment_index`) without decoding a byte — opening a
    reader at an arbitrary LSN mid-log costs one segment scan, not the
    whole history.  The segments read go through :func:`scan_log`, so a
    torn tip ends the iteration and damage or a hole raises
    :class:`JournalCorruptError`.  History retired above ``start_lsn``
    is not checked: the records then start at the oldest segment, and a
    caller that must see every record calls :func:`check_retired`.
    """
    segments = segment_files(directory)
    if not segments:
        return
    first = start_segment_index(segments, start_lsn)
    for scan in scan_log(segments[first:]):
        for record in scan.records:
            if record.lsn > start_lsn:
                yield record


class Journal:
    """The append side of the WAL (plus bookkeeping for readers).

    Use :meth:`open` rather than the constructor: it scans the
    directory, repairs a torn tail left by a crash, and positions the
    next LSN after the last durable record.  All methods are
    thread-safe; appends additionally happen under the caller's
    (the LMS's) lock so log order is the authoritative serialization of
    mutations.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        fsync: str = "interval",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        registry: Optional["obs.Registry"] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; use one of {FSYNC_POLICIES}"
            )
        if segment_bytes < 1:
            raise StoreError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self.segment_bytes = int(segment_bytes)
        self._registry = registry
        self._lock = threading.Lock()
        # group commit: a leader's fsync is in flight; the other
        # committers wait on _flushed until it ends
        self._flushing = False
        self._flushed = threading.Condition(self._lock)
        self._last_lsn = 0
        # the durable high-water mark: the highest LSN known to have
        # been fsynced to disk (what an external reader may lag behind)
        self._durable_lsn = 0
        self._stream = None
        self._segment_path: Optional[Path] = None
        self._segment_size = 0
        self._last_fsync = time.monotonic()
        self._closed = False
        #: lifetime totals, mirrored into obs counters
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.rotations = 0
        self.repaired_bytes = 0
        self.batch_appends = 0
        self.group_commits = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: "str | Path",
        *,
        fsync: str = "interval",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        registry: Optional["obs.Registry"] = None,
    ) -> "Journal":
        """Open (creating if needed) the WAL in ``directory``.

        An existing log's final segment is scanned under
        :func:`check_scan` and :func:`check_dense`: its torn tip, if
        any, is physically truncated away, and appends continue from
        the next LSN.  Existing segments keep their own format, so
        opening an old JSONL directory upgrades the log mid-stream: the
        v1 tail is sealed as-is and the next append starts a binary
        segment.  A binary tail with an older header version is
        upgraded the same way; one that holds no record is restarted
        under the current header instead.  A tail whose header version
        is unknown, or that either check finds damaged, raises
        :class:`JournalCorruptError` and is left untouched.
        """
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        journal = cls(
            base, fsync=fsync, segment_bytes=segment_bytes, registry=registry
        )
        segments = segment_files(base)
        if segments:
            tail = segments[-1]
            scan = scan_segment(tail)
            check_scan(tail, scan, final=True)
            # an empty (or fully torn) final segment: the previous LSN
            # is one less than the first this file would hold
            journal._last_lsn = check_dense(
                tail, scan.records, segment_first_lsn(tail) - 1
            )
            if scan.torn_bytes:
                with tail.open("r+b") as stream:
                    stream.truncate(scan.valid_bytes)
                    stream.flush()
                    os.fsync(stream.fileno())
                journal.repaired_bytes = scan.torn_bytes
                journal._count("store.tail.repaired_bytes", scan.torn_bytes)
            # whatever survived the open scan is on disk by definition
            journal._durable_lsn = journal._last_lsn
            if scan.version == binfmt.SEGMENT_VERSION:
                journal._open_segment(tail, append=True)
            elif segment_format(tail) == 2 and not scan.records:
                # no record behind an older (or torn) header, and the
                # successor would take this name: restart the file
                tail.write_bytes(b"")
                journal._open_segment(tail, append=True)
            # else: a v1 tail, or an older header version; leave it
            # sealed, and the next append starts a current segment
        return journal

    # -- appending ------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended (or recovered) record."""
        with self._lock:
            return self._last_lsn

    @property
    def durable_lsn(self) -> int:
        """The durable high-water mark: the highest LSN fsynced to disk.

        ``last_lsn - durable_lsn`` is the data-at-risk window on a
        machine crash; an external read model computes its own lag
        against this gauge (``/metrics`` exposes both).
        """
        with self._lock:
            return self._durable_lsn

    def append(self, type_: str, data: Dict[str, object]) -> int:
        """Durably append one event; returns its LSN.

        ``data`` must be JSON-serializable — callers (the LMS) journal
        wire-shaped payloads.  The record is flushed to the OS before
        returning under every policy, and fsynced per the policy.
        """
        with self._lock:
            lsn = self._append_locked(((type_, data),))
        self.commit(lsn)
        return lsn

    def append_batch(
        self, events: Sequence[Tuple[str, Dict[str, object]]]
    ) -> List[int]:
        """Durably append K events as one write; returns their LSNs.

        The whole batch is encoded, written, flushed, and (per policy)
        fsynced once, so the per-record cost of lock traffic, syscalls,
        and disk flushes is amortized K ways.  Records are contiguous
        in the log: no other writer's record lands between them.
        """
        if not events:
            return []
        with self._lock:
            last = self._append_locked(tuple(events))
            self.batch_appends += 1
            self._count("store.batch_appends")
        self.commit(last)
        return list(range(last - len(events) + 1, last + 1))

    def write(self, events: Sequence[Tuple[str, Dict[str, object]]]) -> int:
        """The write half of :meth:`append_batch`; returns the last LSN.

        The records take their place in the log and are flushed to the
        OS; under ``interval`` they are fsynced per the policy, and
        under ``always`` the caller must :meth:`commit` the returned LSN
        before it acknowledges them.  A caller can so fix the log order
        under its own lock and wait for the disk after releasing it.
        More than one record counts as a batch append.
        """
        events = tuple(events)
        with self._lock:
            last = self._append_locked(events)
            if len(events) > 1:
                self.batch_appends += 1
                self._count("store.batch_appends")
        return last

    def commit(self, lsn: int) -> None:
        """The wait half: under ``always``, block until ``lsn`` is
        fsynced; every other policy already applied at :meth:`write`.

        A committer whose record is not on disk leads a group unless an
        fsync is in flight (a lone writer leads its own): it takes the
        LSN written so far and dups the segment's fd under the lock,
        then fsyncs the dup outside it, so writers append, and a
        rotation or close seals the segment, meanwhile.  The others
        wait, and lead the next group if this one did not cover them.
        """
        if self.fsync_policy != "always":
            return
        with self._lock:
            while self._flushing and self._durable_lsn < lsn:
                self._flushed.wait()
            if self._durable_lsn >= lsn:
                return
            # lsn is in the open segment: sealing it would have fsynced
            covered = self._last_lsn
            fd = os.dup(self._stream.fileno())
            self._flushing = True
        synced = False
        try:
            with obs.span("store.fsync"):
                os.fsync(fd)
            synced = True
        finally:
            with self._lock:
                # after a failed fsync a waiter leads the retry
                self._flushing = False
                self._flushed.notify_all()
                if synced:
                    self._fsynced(covered)
                    self.group_commits += 1
                    self._count("store.group_commits")
            os.close(fd)

    def sync(self) -> None:
        """Force an fsync of the active segment (any policy)."""
        with self._lock:
            if self._stream is not None and not self._closed:
                self._stream.flush()
                self._fsync_locked()

    def rotate(self) -> Optional[Path]:
        """Seal the active segment now; returns the sealed path."""
        with self._lock:
            if self._stream is None:
                return None
            sealed = self._segment_path
            self._rotate_locked()
            return sealed

    def close(self) -> None:
        """Flush, fsync (unless policy is ``never``), and close."""
        with self._lock:
            if self._closed:
                return
            if self._stream is not None:
                self._stream.flush()
                if self.fsync_policy != "never":
                    self._fsync_locked()
                self._stream.close()
                self._stream = None
            self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading & retirement -------------------------------------------------

    def segments(self) -> List[Path]:
        """Current segment files, oldest first."""
        return segment_files(self.directory)

    def retire_covered(self, covered_lsn: int) -> List[Path]:
        """Delete sealed segments fully covered by a checkpoint.

        A segment is retired when every record it can hold has
        ``lsn <= covered_lsn`` — i.e. the *next* segment's first LSN is
        ``<= covered_lsn + 1``.  The active (final) segment always
        survives, so the unreplayed suffix is never dropped.
        """
        removed: List[Path] = []
        with self._lock:
            segments = segment_files(self.directory)
            for path, following in zip(segments, segments[1:]):
                if self._segment_path is not None and (
                    path == self._segment_path
                ):
                    break
                if segment_first_lsn(following) - 1 <= covered_lsn:
                    path.unlink()
                    removed.append(path)
                else:
                    break
            if removed:
                self._count("store.segments.retired", len(removed))
        return removed

    # -- internals ------------------------------------------------------------

    def _append_locked(
        self, events: Iterable[Tuple[str, Dict[str, object]]]
    ) -> int:
        """Encode + write + flush ``events`` under ``self._lock``;
        returns the last LSN assigned.  The ``interval`` policy fsyncs
        here; ``always`` leaves it to :meth:`commit`.
        """
        if self._closed:
            raise StoreError("journal is closed")
        lsn = self._last_lsn
        chunks = []
        for type_, data in events:
            lsn += 1
            chunks.append(_encode_record(lsn, type_, data))
        encoded = b"".join(chunks)
        if self._stream is None:
            self._open_segment(
                self.directory / _SEGMENTS.name(self._last_lsn + 1),
                append=False,
            )
        self._stream.write(encoded)
        # userspace -> OS page cache: makes the records SIGKILL-safe
        self._stream.flush()
        appended = lsn - self._last_lsn
        self._last_lsn = lsn
        self._segment_size += len(encoded)
        self.records_appended += appended
        self.bytes_appended += len(encoded)
        if self._segment_size >= self.segment_bytes:
            self._rotate_locked()
        elif (
            self.fsync_policy == "interval"
            and time.monotonic() - self._last_fsync >= FSYNC_INTERVAL
        ):
            self._fsync_locked()
        self._count("store.appends", appended)
        self._count("store.bytes", len(encoded))
        return lsn

    def _open_segment(self, path: Path, append: bool) -> None:
        self._stream = path.open("ab" if append else "xb")
        self._segment_path = path
        self._segment_size = path.stat().st_size if append else 0
        if self._segment_size == 0:
            header = binfmt.segment_header()
            self._stream.write(header)
            self._stream.flush()
            self._segment_size = len(header)

    def _rotate_locked(self) -> None:
        self._stream.flush()
        if self.fsync_policy != "never":
            self._fsync_locked()
        self._stream.close()
        self._stream = None
        self._segment_path = None
        self._segment_size = 0
        self.rotations += 1
        self._count("store.segments.rotated")
        # the next append opens wal-<last_lsn + 1>

    def _fsync_locked(self) -> None:
        if self._stream is None:
            return
        with obs.span("store.fsync"):
            os.fsync(self._stream.fileno())
        self._fsynced(self._last_lsn)

    def _fsynced(self, lsn: int) -> None:
        """Count an fsync that made every record up to ``lsn`` durable
        (under the lock; a group leader's may end after a later one)."""
        self._last_fsync = time.monotonic()
        self._durable_lsn = max(self._durable_lsn, lsn)
        self.fsyncs += 1
        self._count("store.fsyncs")

    def _count(self, name: str, value: float = 1) -> None:
        if self._registry is not None:
            self._registry.count(name, value)
        else:
            obs.count(name, value)
