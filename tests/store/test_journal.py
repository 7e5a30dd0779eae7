"""Unit tests for the WAL itself (repro.store.journal).

Format-agnostic behaviors (LSNs, rotation, torn tails, retirement) run
against BOTH segment formats via the ``fmt`` fixture: the journal
writes the binary ones, and ``v1log.V1Log`` the v1 JSON lines older
builds wrote, which the journal reads, repairs and continues after.
The wire-format classes at the bottom pin each format's byte layout.
"""

import json
import os
import struct
import sys
import threading
import zlib

import pytest

from v1log import FORMATS, GOLDEN_V1, V1Log, encode_v1_record, open_log

from repro.core.errors import JournalCorruptError, StoreError
from repro.store.events import event
from repro.store.format import SEGMENT_HEADER_LEN, segment_header
from repro.store.journal import (
    FSYNC_POLICIES,
    Journal,
    JournalRecord,
    read_records,
    scan_segment,
    segment_files,
    segment_format,
)
from repro.store.recovery import recover


def append_n(journal, count, start=0):
    lsns = []
    for index in range(start, start + count):
        lsns.append(journal.append("answer", {"n": index}))
    return lsns


def first_lsn_of(path):
    return int(path.name[len("wal-"): -len(path.suffix)])


class TestAppendRead:
    def test_lsns_are_monotonic_from_one(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            assert append_n(journal, 5) == [1, 2, 3, 4, 5]
            assert journal.last_lsn == 5
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4, 5]

    def test_round_trip_preserves_type_and_data(self, tmp_path, fmt):
        payload = {"learner_id": "amy", "response": ["A", None, 3.5]}
        with open_log(tmp_path, fmt) as journal:
            journal.append("answer", payload)
        records = list(read_records(tmp_path))
        assert records == [
            JournalRecord(lsn=1, type="answer", data=payload)
        ]

    def test_read_filters_by_start_lsn(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            append_n(journal, 6)
        assert [r.lsn for r in read_records(tmp_path, start_lsn=4)] == [5, 6]

    def test_reopen_continues_the_lsn_sequence(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            append_n(journal, 3)
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.last_lsn == 3
            assert journal.append("answer", {}) == 4
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4]

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        journal.close()
        with pytest.raises(StoreError):
            journal.append("answer", {})
        with pytest.raises(StoreError):
            journal.append_batch([("answer", {})])

    def test_every_fsync_policy_is_accepted(self, tmp_path):
        for policy in FSYNC_POLICIES:
            directory = tmp_path / policy
            with Journal.open(directory, fsync=policy) as journal:
                journal.append("answer", {"p": policy})
            assert [r.data["p"] for r in read_records(directory)] == [policy]

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            Journal.open(tmp_path, fsync="sometimes")

    def test_always_policy_fsyncs_per_append(self, tmp_path):
        with Journal.open(tmp_path, fsync="always") as journal:
            append_n(journal, 4)
            assert journal.fsyncs >= 4


class TestBatchAppend:
    def test_batch_lsns_are_contiguous(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            journal.append("answer", {"n": 0})
            lsns = journal.append_batch(
                [("answer", {"n": n}) for n in range(1, 5)]
            )
            assert lsns == [2, 3, 4, 5]
            assert journal.last_lsn == 5
        assert [r.data["n"] for r in read_records(tmp_path)] == [0, 1, 2, 3, 4]

    def test_empty_batch_is_a_noop(self, tmp_path):
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.append_batch([]) == []
            assert journal.last_lsn == 0
        assert list(read_records(tmp_path)) == []

    def test_batch_pays_one_fsync_under_always(self, tmp_path):
        with Journal.open(tmp_path, fsync="always") as journal:
            before = journal.fsyncs
            journal.append_batch([("answer", {"n": n}) for n in range(10)])
            assert journal.fsyncs == before + 1
            assert journal.records_appended == 10

    def test_batch_interleaves_with_single_appends(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            journal.append("a", {})
            journal.append_batch([("b", {}), ("c", {})])
            journal.append("d", {})
        assert [r.type for r in read_records(tmp_path)] == ["a", "b", "c", "d"]


class ParkedFsync:
    """Replaces ``os.fsync``: the first call waits until :attr:`release`
    is set; every call then fsyncs."""

    def __init__(self, monkeypatch):
        self._fsync = os.fsync
        self.parked = threading.Event()
        self.release = threading.Event()
        monkeypatch.setattr(os, "fsync", self)

    def __call__(self, fd):
        if not self.parked.is_set():
            self.parked.set()
            self.release.wait(10)
        self._fsync(fd)


def in_thread(call, *args):
    """Run ``call(*args)`` on a thread; returns it and a list that gets
    the result once the call returns."""
    results = []
    thread = threading.Thread(target=lambda: results.append(call(*args)))
    thread.start()
    return thread, results


class TestGroupCommit:
    def test_concurrent_writers_share_fsyncs(self, tmp_path):
        """The submit path: each writer writes its record, then waits
        for the disk.  Six writers that all wrote before any commits
        share one fsync, whichever of them leads it."""
        writers, rounds = 6, 20
        written = threading.Barrier(writers, timeout=10)
        committed = threading.Barrier(writers, timeout=10)
        with Journal.open(tmp_path, fsync="always") as journal:
            def writer(worker):
                for index in range(rounds):
                    lsn = journal.write(
                        [("answer", {"w": worker, "i": index})]
                    )
                    written.wait()
                    journal.commit(lsn)
                    committed.wait()

            threads = [
                threading.Thread(target=writer, args=(worker,))
                for worker in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert journal.records_appended == writers * rounds
            # one fsync per round, not one per record
            assert journal.fsyncs == journal.group_commits == rounds
        assert len(list(read_records(tmp_path))) == writers * rounds

    def test_group_commit_still_fsyncs_every_acked_append(self, tmp_path):
        with Journal.open(tmp_path, fsync="always") as journal:
            journal.append("answer", {"n": 1})
            # single-threaded: the append led its own group
            assert journal.fsyncs == journal.group_commits == 1
            assert journal.durable_lsn == 1

    def test_group_commit_ignored_for_other_policies(self, tmp_path):
        for policy in ("interval", "never"):
            with Journal.open(tmp_path / policy, fsync=policy) as journal:
                append_n(journal, 5)
                journal.commit(journal.last_lsn)
                assert journal.group_commits == 0

    def test_acked_records_are_durable_under_contention(
        self, tmp_path, monkeypatch
    ):
        """More writers than cores, a short switch interval and small
        segments: every append returns with its record durable, and
        each fsync issued is counted once, as a leader's or a
        rotation's (a lost counter update breaks the sum)."""
        issued = []
        fsync = os.fsync

        def counted(fd):
            issued.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counted)
        writers, per_writer = 8, 40
        late = []
        journal = Journal.open(tmp_path, fsync="always", segment_bytes=512)

        def writer(worker):
            for index in range(per_writer):
                lsn = journal.append("answer", {"w": worker, "i": index})
                if journal.durable_lsn < lsn:
                    late.append(lsn)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert late == []
        assert journal.rotations >= 2
        assert journal.fsyncs == len(issued)
        assert journal.fsyncs == journal.group_commits + journal.rotations
        journal.close()
        lsns = [r.lsn for r in read_records(tmp_path)]
        assert lsns == list(range(1, writers * per_writer + 1))

    def test_writers_append_while_the_leader_fsyncs(
        self, tmp_path, monkeypatch
    ):
        """The leader fsyncs outside the journal lock: while it is
        parked inside ``os.fsync``, a second writer's ``write`` returns,
        and ``durable_lsn`` covers that record only after the next
        fsync."""
        fsync = ParkedFsync(monkeypatch)
        journal = Journal.open(tmp_path, fsync="always")
        leader, led = in_thread(journal.append, "answer", {"n": 1})
        try:
            assert fsync.parked.wait(10)
            writer, written = in_thread(journal.write, [("answer", {"n": 2})])
            writer.join(5)
            assert written == [2], "write waited for the leader's fsync"
            assert journal.durable_lsn == 0
        finally:
            fsync.release.set()
            leader.join(10)
        assert led == [1]
        # the leader covered what was written when it began, no more
        assert journal.durable_lsn == 1
        journal.commit(2)
        assert journal.durable_lsn == 2
        assert journal.fsyncs == journal.group_commits == 2
        journal.close()
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2]

    def test_rotate_and_close_while_the_leader_fsyncs(
        self, tmp_path, monkeypatch
    ):
        """A rotation and a close seal segments under the lock, each
        fsyncing them, while the leader fsyncs its dup of the first
        segment's fd outside the lock; the leader still returns."""
        fsync = ParkedFsync(monkeypatch)
        journal = Journal.open(tmp_path, fsync="always")
        leader, led = in_thread(journal.append, "answer", {"n": 1})
        try:
            assert fsync.parked.wait(10)

            def seal():
                journal.write([("answer", {"n": 2})])
                journal.rotate()
                journal.write([("answer", {"n": 3})])
                journal.close()
                return journal.durable_lsn

            sealer, sealed = in_thread(seal)
            sealer.join(5)
            assert sealed == [3]
        finally:
            fsync.release.set()
            leader.join(10)
        assert led == [1]
        assert journal.durable_lsn == 3
        assert len(segment_files(tmp_path)) == 2
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3]

    def test_a_failed_fsync_makes_nothing_durable(
        self, tmp_path, monkeypatch
    ):
        """The leader's append raises and counts nothing; the next
        commit leads a new fsync."""
        fsync = os.fsync
        calls = []

        def failing_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError("injected fsync failure")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_once)
        with Journal.open(tmp_path, fsync="always") as journal:
            with pytest.raises(OSError, match="injected"):
                journal.append("answer", {"n": 1})
            assert journal.durable_lsn == 0
            assert journal.fsyncs == journal.group_commits == 0
            journal.commit(1)
            assert journal.durable_lsn == 1
            assert journal.fsyncs == journal.group_commits == 1


class TestRotation:
    def test_rotates_when_segment_fills(self, tmp_path, fmt):
        with open_log(tmp_path, fmt, segment_bytes=120) as journal:
            append_n(journal, 30)
            assert journal.rotations >= 2
        segments = segment_files(tmp_path)
        assert len(segments) >= 3
        # segment names are the LSN their first record carries
        firsts = [first_lsn_of(p) for p in segments]
        assert firsts[0] == 1
        assert firsts == sorted(firsts)

    def test_records_span_segments_in_order(self, tmp_path, fmt):
        with open_log(tmp_path, fmt, segment_bytes=150) as journal:
            append_n(journal, 20)
        assert [r.lsn for r in read_records(tmp_path)] == list(range(1, 21))

    def test_manual_rotate_seals_the_active_segment(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            append_n(journal, 2)
            sealed = journal.rotate()
            assert sealed is not None
            journal.append("answer", {"after": True})
        assert len(segment_files(tmp_path)) == 2


class TestMixedFormats:
    """A directory upgraded mid-stream: v1 history, binary tail."""

    def test_v2_open_seals_a_v1_tail_and_continues(self, tmp_path):
        with V1Log(tmp_path) as log:
            append_n(log, 3)
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.last_lsn == 3
            assert journal.append("answer", {"n": 3}) == 4
            append_n(journal, 2, start=4)
        suffixes = [p.suffix for p in segment_files(tmp_path)]
        assert suffixes == [".jsonl", ".walb"]
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4, 5, 6]

    def test_v1_open_seals_a_v2_tail_and_continues(self, tmp_path):
        # an older build once sealed a binary tail and wrote v1 after
        # it; the journal reads across both and continues in binary
        with Journal.open(tmp_path, fsync="never") as journal:
            append_n(journal, 3)
        with V1Log(tmp_path) as log:
            assert log.append("answer", {"n": 99}) == 4
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.last_lsn == 4
            assert journal.append("answer", {"n": 100}) == 5
        suffixes = [p.suffix for p in segment_files(tmp_path)]
        assert suffixes == [".walb", ".jsonl", ".walb"]
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4, 5]

    def test_segment_format_is_suffix_driven(self, tmp_path):
        with V1Log(tmp_path) as log:
            append_n(log, 1)
        with Journal.open(tmp_path, fsync="never") as journal:
            append_n(journal, 1, start=1)
        formats = [segment_format(p) for p in segment_files(tmp_path)]
        assert formats == [1, 2]


class TestTornTail:
    def fill(self, tmp_path, fmt, count=5):
        with open_log(tmp_path, fmt) as journal:
            append_n(journal, count)
        return segment_files(tmp_path)[-1]

    def test_unterminated_final_record_is_dropped(self, tmp_path, fmt):
        tail = self.fill(tmp_path, fmt)
        raw = tail.read_bytes()
        tail.write_bytes(raw[:-3])  # cut the last record short
        records = list(read_records(tmp_path))
        assert [r.lsn for r in records] == [1, 2, 3, 4]

    def test_flipped_tail_byte_ends_the_log(self, tmp_path, fmt):
        tail = self.fill(tmp_path, fmt)
        raw = bytearray(tail.read_bytes())
        # damage inside the final record: CRC (or framing) must reject
        # it, ending the log at the last intact record
        raw[-2] ^= 0xFF
        tail.write_bytes(bytes(raw))
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4]

    def test_crc_damage_in_v1_tail_ends_the_log(self, tmp_path):
        tail = self.fill(tmp_path, 1)
        lines = tail.read_bytes().splitlines(keepends=True)
        # flip a payload byte in the final record; its CRC now mismatches
        bad = lines[-1].replace(b'"n":4', b'"n":9')
        tail.write_bytes(b"".join(lines[:-1]) + bad)
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4]

    def test_crc_damage_in_v2_tail_ends_the_log(self, tmp_path):
        tail = self.fill(tmp_path, 2)
        raw = bytearray(tail.read_bytes())
        raw[-1] ^= 0x01  # last body byte: length intact, CRC mismatch
        tail.write_bytes(bytes(raw))
        scan = scan_segment(tail)
        assert scan.error is not None and "crc" in scan.error
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4]

    def test_torn_v2_header_is_repaired_to_empty(self, tmp_path):
        tail = self.fill(tmp_path, 2, count=2)
        tail.write_bytes(tail.read_bytes()[:3])  # crash mid-header
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.repaired_bytes == 3
            assert journal.last_lsn == 0
            assert journal.append("answer", {"n": 0}) == 1
        assert [r.lsn for r in read_records(tmp_path)] == [1]

    def test_open_physically_truncates_the_torn_tail(self, tmp_path, fmt):
        tail = self.fill(tmp_path, fmt)
        whole = tail.read_bytes()
        tail.write_bytes(whole[:-3])
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.repaired_bytes > 0
            assert journal.last_lsn == 4
            # appends continue after the repaired tail with the next LSN
            assert journal.append("answer", {"n": 99}) == 5
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4, 5]

    def test_truncation_at_every_byte_is_tolerated(self, tmp_path, fmt):
        """Kill-at-byte-N: any prefix of the log is a valid log."""
        tail = self.fill(tmp_path, fmt, count=6)
        whole = tail.read_bytes()
        previous = -1
        for cut in range(len(whole) + 1):
            tail.write_bytes(whole[:cut])
            records = list(read_records(tmp_path))  # must never raise
            lsns = [r.lsn for r in records]
            assert lsns == list(range(1, len(lsns) + 1))
            # monotone: more bytes never means fewer records
            assert len(lsns) >= previous or previous == -1
            previous = len(lsns)
        assert previous == 6

    def test_damage_in_a_sealed_segment_raises(self, tmp_path, fmt):
        with open_log(tmp_path, fmt, segment_bytes=150) as journal:
            append_n(journal, 20)
        first = segment_files(tmp_path)[0]
        raw = bytearray(first.read_bytes())
        raw[10] ^= 0xFF
        first.write_bytes(bytes(raw))
        with pytest.raises(JournalCorruptError):
            list(read_records(tmp_path))

    def test_scan_reports_valid_and_torn_bytes(self, tmp_path, fmt):
        tail = self.fill(tmp_path, fmt, count=3)
        whole = tail.read_bytes()
        tail.write_bytes(whole[:-5])
        scan = scan_segment(tail)
        assert scan.error is not None
        assert scan.valid_bytes + scan.torn_bytes == len(whole) - 5
        assert len(scan.records) == 2


class TestHeaderVersions:
    """Version-2 tails are sealed and continued in version 3; a header
    of a version this reader does not know is never dropped."""

    def rotated(self, tmp_path):
        """Six register events, rotated after three: the final segment
        holds LSNs 4-6."""
        with Journal.open(tmp_path, fsync="never") as journal:
            for index in range(6):
                if index == 3:
                    journal.rotate()
                journal.append(
                    "register", event("register", f"l{index}", "", "")
                )
        segments = segment_files(tmp_path)
        assert len(segments) == 2
        return segments[-1]

    def set_version(self, segment, version):
        raw = bytearray(segment.read_bytes())
        raw[4:6] = version.to_bytes(2, "little")
        segment.write_bytes(bytes(raw))
        return bytes(raw)

    def test_unknown_tail_version_raises_and_keeps_the_bytes(self, tmp_path):
        tail = self.rotated(tmp_path)
        damaged = self.set_version(tail, 99)
        with pytest.raises(JournalCorruptError, match="version 99"):
            list(read_records(tmp_path))
        with pytest.raises(JournalCorruptError, match="version 99"):
            recover(tmp_path)
        with pytest.raises(JournalCorruptError, match="version 99"):
            Journal.open(tmp_path, fsync="never")
        assert tail.read_bytes() == damaged
        # once a reader that knows the version is back, all six survive
        self.set_version(tail, 3)
        assert [r.lsn for r in read_records(tmp_path)] == list(range(1, 7))

    def test_wrong_magic_with_records_behind_it_raises(self, tmp_path):
        # no crash writes a whole header with the wrong magic in front
        # of whole records: dropping them would lose acknowledged writes
        tail = self.rotated(tmp_path)
        damaged = b"XXXX" + tail.read_bytes()[4:]
        tail.write_bytes(damaged)
        with pytest.raises(JournalCorruptError, match="magic"):
            list(read_records(tmp_path))
        with pytest.raises(JournalCorruptError, match="magic"):
            recover(tmp_path)
        with pytest.raises(JournalCorruptError, match="magic"):
            Journal.open(tmp_path, fsync="never")
        assert tail.read_bytes() == damaged

    def test_zeroed_header_with_nothing_behind_is_a_torn_tail(self, tmp_path):
        # a power loss can leave a new segment's first page zeroed
        tail = self.rotated(tmp_path)
        tail.write_bytes(bytes(SEGMENT_HEADER_LEN))
        assert recover(tmp_path).torn_bytes == SEGMENT_HEADER_LEN
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.repaired_bytes == SEGMENT_HEADER_LEN
            registered = event("register", "z", "", "")
            assert journal.append("register", registered) == 4
        assert tail.read_bytes()[:SEGMENT_HEADER_LEN] == segment_header()
        assert [r.lsn for r in read_records(tmp_path)] == [1, 2, 3, 4]

    def test_v2_tail_is_sealed_and_continued_in_v3(self, tmp_path):
        tail = self.rotated(tmp_path)
        sealed = self.set_version(tail, 2)
        with Journal.open(tmp_path, fsync="never") as journal:
            assert journal.repaired_bytes == 0
            registered = event("register", "z", "", "")
            assert journal.append("register", registered) == 7
        segments = segment_files(tmp_path)
        assert [p.read_bytes()[4] for p in segments] == [3, 2, 3]
        assert segments[1].read_bytes() == sealed
        assert segments[2].name == "wal-00000000000000000007.walb"
        assert [r.lsn for r in read_records(tmp_path)] == list(range(1, 8))

    def test_header_only_v2_tail_is_restarted_in_v3(self, tmp_path):
        # no record behind the old header: its successor would take the
        # same name, so the file itself is rewritten under version 3
        tail = tmp_path / "wal-00000000000000000001.walb"
        tail.write_bytes(segment_header(version=2))
        with Journal.open(tmp_path, fsync="never") as journal:
            registered = event("register", "a", "", "")
            assert journal.append("register", registered) == 1
        assert segment_files(tmp_path) == [tail]
        assert tail.read_bytes()[:SEGMENT_HEADER_LEN] == segment_header()
        assert [r.lsn for r in read_records(tmp_path)] == [1]


class TestRetirement:
    def sealed_journal(self, tmp_path, records=20, segment_bytes=150):
        journal = Journal.open(
            tmp_path, fsync="never", segment_bytes=segment_bytes
        )
        append_n(journal, records)
        return journal

    def test_retires_only_fully_covered_segments(self, tmp_path):
        journal = self.sealed_journal(tmp_path)
        segments = journal.segments()
        assert len(segments) >= 3
        # cover everything up to the second segment's first record - 1:
        # only the first segment is fully covered
        second_first = first_lsn_of(segments[1])
        removed = journal.retire_covered(second_first - 1)
        assert removed == [segments[0]]
        journal.close()

    def test_never_deletes_the_final_segment(self, tmp_path):
        journal = self.sealed_journal(tmp_path)
        journal.retire_covered(journal.last_lsn)
        remaining = journal.segments()
        assert len(remaining) >= 1
        # the surviving log still replays the uncovered suffix
        last = list(read_records(tmp_path))[-1]
        assert last.lsn == journal.last_lsn
        journal.close()

    def test_retired_history_does_not_break_reads(self, tmp_path):
        journal = self.sealed_journal(tmp_path)
        journal.retire_covered(10)
        lsns = [r.lsn for r in read_records(tmp_path, start_lsn=10)]
        assert lsns == list(range(11, 21))
        journal.close()

    def test_retirement_spans_a_format_boundary(self, tmp_path):
        with V1Log(tmp_path, segment_bytes=150) as log:
            append_n(log, 10)
        journal = Journal.open(tmp_path, fsync="never", segment_bytes=150)
        append_n(journal, 10, start=10)
        assert {p.suffix for p in journal.segments()} == {".jsonl", ".walb"}
        removed = journal.retire_covered(journal.last_lsn)
        assert removed  # v1 history is retired by a v2-writing journal
        assert [r.lsn for r in read_records(tmp_path)][-1] == 20
        journal.close()


class TestWireFormat:
    def test_v1_records_are_json_lines_with_crc(self):
        segment = segment_files(GOLDEN_V1 / "wal")[0]
        line = segment.read_bytes().splitlines(keepends=True)[2]
        payload = json.loads(line)
        assert payload["lsn"] == 3
        assert payload["type"] == "register"
        assert payload["data"]["learner_id"] == "ann"
        assert isinstance(payload["crc"], int)
        assert line == encode_v1_record(3, "register", payload["data"])

    def test_v2_segments_start_with_the_magic_header(self, tmp_path):
        with Journal.open(tmp_path, fsync="never") as journal:
            journal.append("enroll", {"learner_id": "amy"})
        raw = segment_files(tmp_path)[0].read_bytes()
        assert raw[:4] == b"MAWL"
        assert raw[:SEGMENT_HEADER_LEN] == segment_header()

    def test_v2_record_crc_covers_the_body(self, tmp_path):
        from repro.store.format import decode_varint

        with Journal.open(tmp_path, fsync="never") as journal:
            journal.append("enroll", {"learner_id": "amy"})
        raw = segment_files(tmp_path)[0].read_bytes()
        body_len, offset = decode_varint(raw, SEGMENT_HEADER_LEN)
        (crc,) = struct.unpack_from("<I", raw, offset)
        body = raw[offset + 4: offset + 4 + body_len]
        assert len(body) == body_len
        assert zlib.crc32(body) & 0xFFFFFFFF == crc
        assert offset + 4 + body_len == len(raw)  # nothing after the record

    def test_v2_is_more_compact_than_v1(self, tmp_path):
        payload = {
            "learner_id": "amy",
            "exam_id": "ex1",
            "item_id": "q07",
            "response": "B",
            "ts": 1234.5,
        }
        for fmt in FORMATS:
            with open_log(tmp_path / str(fmt), fmt) as journal:
                for _ in range(50):
                    journal.append("answer", payload)
        v1 = sum(p.stat().st_size for p in segment_files(tmp_path / "1"))
        v2 = sum(p.stat().st_size for p in segment_files(tmp_path / "2"))
        assert v2 < v1
