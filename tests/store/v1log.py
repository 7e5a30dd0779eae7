"""v1 (JSON lines) WAL segments for the store tests.

No build writes v1 any more, but the journal still reads it, repairs a
torn v1 tail and continues after it.  ``golden_v1/`` holds segments
the last v1-writing build made; :class:`V1Log` writes others, byte for
byte as that build did (``test_golden_v1`` pins it to the fixture).
"""

import json
import zlib
from pathlib import Path

from repro.store import Journal, read_records

#: a WAL of v1 segments, written by the last build that could write
#: them; see golden_v1/make_golden_v1.py
GOLDEN_V1 = Path(__file__).parent / "golden_v1"

#: the segment formats the reader decodes: v1 JSON lines, binary
FORMATS = (1, 2)


def encode_v1_record(lsn, type_, data):
    """One v1 record: canonical JSON with its CRC32 folded in, one line.

    ``test_golden_v1`` pins this encoder: it re-encodes the fixture's
    records to the fixture's exact bytes."""

    def canonical(payload):
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    body = {"lsn": lsn, "type": type_, "data": data}
    body["crc"] = zlib.crc32(canonical(body).encode("utf-8")) & 0xFFFFFFFF
    return (canonical(body) + "\n").encode("utf-8")


class V1Log:
    """Writes v1 segments for the reader's tests, as older builds did.

    It has the write half of :class:`~repro.store.journal.Journal`, so
    an LMS can journal into it.  It continues after the last record
    already in ``directory``, in a new ``wal-<lsn>.jsonl`` segment, and
    rotates once a segment reaches ``segment_bytes``.
    """

    def __init__(self, directory, segment_bytes=4 * 1024 * 1024):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.last_lsn = max(
            (record.lsn for record in read_records(directory)), default=0
        )
        self.rotations = 0
        self._stream = None
        self._path = None

    def write(self, events):
        first = self.last_lsn + 1
        encoded = b"".join(
            encode_v1_record(lsn, type_, data)
            for lsn, (type_, data) in enumerate(events, start=first)
        )
        self.last_lsn += len(events)
        if self._stream is None:
            self._path = self.directory / f"wal-{first:020d}.jsonl"
            self._stream = self._path.open("xb")
        self._stream.write(encoded)
        self._stream.flush()
        if self._stream.tell() >= self.segment_bytes:
            self.rotate()
        return self.last_lsn

    def append(self, type_, data):
        return self.write([(type_, data)])

    def append_batch(self, events):
        last = self.write(events)
        return list(range(last - len(events) + 1, last + 1))

    def commit(self, lsn):
        pass  # every write is flushed; nothing waits

    def sync(self):
        pass

    def rotate(self):
        if self._stream is None:
            return None
        self.close()
        self.rotations += 1
        return self._path

    def close(self):
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def open_log(directory, fmt, **kwargs):
    """A writer of ``fmt`` segments: :class:`V1Log` for 1, the journal
    (binary segments) for 2."""
    if fmt == 1:
        return V1Log(directory, **kwargs)
    return Journal.open(directory, fsync="never", **kwargs)
