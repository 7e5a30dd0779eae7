"""The tail-following WAL reader (repro.store.tail).

The tailer feeds the analytics read models, so its contract is strict:
every record exactly once, in LSN order, from any starting LSN, across
segment rotations, format upgrades, torn tips, and group-committed
batches.  Format-agnostic behaviors run against both segment formats:
binary segments from the journal, v1 JSON lines from
``v1log.V1Log``.
"""

import pytest

from v1log import V1Log, open_log

import repro.store.tail as tail_module
from repro.core.errors import JournalCorruptError
from repro.store.journal import (
    Journal,
    read_records,
    segment_files,
    segment_first_lsn,
)
from repro.store.tail import JournalTailer, TailTruncatedError


def append_n(journal, count, start=0):
    for index in range(start, start + count):
        journal.append("answer", {"n": index})


def drain(tailer):
    return [record.lsn for record in tailer.poll()]


class TestPositioning:
    def test_tail_from_zero_sees_everything(self, tmp_path, fmt):
        with open_log(tmp_path, fmt) as journal:
            append_n(journal, 7)
        tailer = JournalTailer(tmp_path)
        assert drain(tailer) == [1, 2, 3, 4, 5, 6, 7]
        assert tailer.position == 7
        assert drain(tailer) == []  # idempotent at the tip

    def test_opens_mid_segment_at_any_lsn(self, tmp_path, fmt):
        """The binary-search entry point: starting inside any segment
        yields exactly the records above the mark, none below."""
        with open_log(tmp_path, fmt, segment_bytes=256) as journal:
            append_n(journal, 40)
        assert len(segment_files(tmp_path)) > 2  # rotation happened
        for start in (0, 1, 13, 22, 39, 40):
            tailer = JournalTailer(tmp_path, start_lsn=start)
            assert drain(tailer) == list(range(start + 1, 41)), start

    def test_rotation_boundary_has_no_off_by_one(self, tmp_path, fmt):
        """Regression: starting exactly at a segment's first LSN (and
        one either side of it) must neither skip nor repeat the record
        that sits on the rotation boundary."""
        with open_log(tmp_path, fmt, segment_bytes=256) as journal:
            append_n(journal, 40)
        boundaries = [
            segment_first_lsn(path) for path in segment_files(tmp_path)[1:]
        ]
        assert boundaries, "need at least two segments"
        for boundary in boundaries:
            for start in (boundary - 1, boundary, boundary + 1):
                tailer = JournalTailer(tmp_path, start_lsn=start)
                assert drain(tailer) == list(range(start + 1, 41)), (
                    f"boundary {boundary}, start {start}"
                )

    def test_seek_back_rereads_across_segments_and_keeps_totals(
        self, tmp_path, fmt
    ):
        with open_log(tmp_path, fmt, segment_bytes=256) as journal:
            append_n(journal, 40)
        tailer = JournalTailer(tmp_path)
        assert drain(tailer) == list(range(1, 41))
        for lsn in (39, 13, 0):
            tailer.seek(lsn)
            assert drain(tailer) == list(range(lsn + 1, 41)), lsn
        assert tailer.records_read == 40 + 1 + 27 + 40
        assert tailer.polls == 4

    def test_empty_directory_is_quiet_not_an_error(self, tmp_path):
        tailer = JournalTailer(tmp_path / "nothing-yet")
        assert drain(tailer) == []
        assert tailer.position == 0


class TestFollowingTheTip:
    def test_group_committed_batch_exactly_once_at_tip(self, tmp_path):
        """A group-committed batch lands at the tip between polls: the
        next poll yields the whole batch once; the one after, nothing."""
        with Journal.open(tmp_path, fsync="always") as journal:
            append_n(journal, 3)
            tailer = JournalTailer(tmp_path)
            assert drain(tailer) == [1, 2, 3]
            journal.append_batch(
                [("answer", {"n": n}) for n in range(10)]
            )
            assert drain(tailer) == list(range(4, 14))
            assert drain(tailer) == []

    def test_mid_read_rotation_drains_in_order(self, tmp_path, fmt):
        """Appends that rotate the active segment while the tailer is
        parked at the old tip are all picked up by one poll, in order."""
        with open_log(tmp_path, fmt, segment_bytes=256) as journal:
            append_n(journal, 5)
            tailer = JournalTailer(tmp_path)
            assert drain(tailer) == [1, 2, 3, 4, 5]
            segments_before = len(segment_files(tmp_path))
            append_n(journal, 30, start=5)
            assert len(segment_files(tmp_path)) > segments_before
            assert drain(tailer) == list(range(6, 36))

    def test_v1_to_v2_seal_and_continue_is_transparent(self, tmp_path):
        """Opening the journal seals the v1 tail and starts a binary
        successor; the tailer follows across the upgrade."""
        with V1Log(tmp_path) as log:
            append_n(log, 4)
        tailer = JournalTailer(tmp_path)
        assert drain(tailer) == [1, 2, 3, 4]
        with Journal.open(tmp_path, fsync="never") as journal:
            append_n(journal, 4, start=4)
        assert drain(tailer) == [5, 6, 7, 8]
        assert [r.lsn for r in read_records(tmp_path)] == list(range(1, 9))

    def test_torn_tip_is_held_not_duplicated(self, tmp_path, fmt):
        """Bytes of a half-written record at the tip are not yielded;
        once the record completes it arrives exactly once."""
        with open_log(tmp_path, fmt) as journal:
            append_n(journal, 3)
            segment = segment_files(tmp_path)[-1]
            whole = segment.read_bytes()
            append_n(journal, 1, start=3)
        complete = segment.read_bytes()
        assert len(complete) > len(whole)
        # rewind the file to mid-record: the writer crashed mid-append
        segment.write_bytes(complete[: len(whole) + 2])
        tailer = JournalTailer(tmp_path)
        assert drain(tailer) == [1, 2, 3]
        segment.write_bytes(complete)  # the append completes
        assert drain(tailer) == [4]
        assert drain(tailer) == []


class TestMidLogDamage:
    def test_a_damaged_record_with_newer_segments_raises(self, tmp_path):
        """A record that fails to decode in a segment that a later one
        follows is lost history, not a write in progress: the tailer
        yields the whole records before it, then raises, as
        ``read_records`` does, instead of parking there for ever."""
        with Journal.open(
            tmp_path, fsync="never", segment_bytes=200
        ) as journal:
            append_n(journal, 40)
        segments = segment_files(tmp_path)
        assert len(segments) == 4
        damaged = segments[1]
        raw = bytearray(damaged.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        damaged.write_bytes(bytes(raw))
        with pytest.raises(JournalCorruptError, match="mid-log"):
            list(read_records(tmp_path))
        tailer = JournalTailer(tmp_path)
        yielded = drain(tailer)
        assert yielded == list(range(1, len(yielded) + 1))
        assert yielded[-1] < segment_first_lsn(segments[2]) - 1
        for _ in range(3):
            with pytest.raises(JournalCorruptError, match="mid-log"):
                tailer.poll()
        assert tailer.position == yielded[-1]

    def test_a_tip_record_finished_before_a_rotation_is_read(
        self, tmp_path, monkeypatch
    ):
        """The writer can finish the torn tip record and rotate between
        the tailer's scan and its listing: the rescan reads the record
        instead of reporting damage."""
        with Journal.open(tmp_path, fsync="never") as journal:
            append_n(journal, 3)
            tailer = JournalTailer(tmp_path)
            assert drain(tailer) == [1, 2, 3]
            (first,) = segment_files(tmp_path)
            whole = first.read_bytes()
            append_n(journal, 1, start=3)
            journal.rotate()
            append_n(journal, 2, start=4)
        complete = first.read_bytes()
        first.write_bytes(complete[: len(whole) + 2])
        listing = tail_module.segment_files

        def finish_then_list(directory):
            first.write_bytes(complete)
            return listing(directory)

        monkeypatch.setattr(tail_module, "segment_files", finish_then_list)
        assert drain(tailer) == [4, 5, 6]


class TestRetirement:
    def test_retirement_behind_the_tailer_is_harmless(self, tmp_path, fmt):
        with open_log(tmp_path, fmt, segment_bytes=256) as journal:
            append_n(journal, 30)
        tailer = JournalTailer(tmp_path)
        assert drain(tailer) == list(range(1, 31))
        with Journal.open(
            tmp_path, fsync="never", segment_bytes=256
        ) as journal:
            assert journal.retire_covered(tailer.position)
            append_n(journal, 5, start=30)
            assert drain(tailer) == list(range(31, 36))

    def test_retirement_ahead_of_the_tailer_raises(self, tmp_path, fmt):
        with open_log(tmp_path, fmt, segment_bytes=256) as journal:
            append_n(journal, 30)
        segments = segment_files(tmp_path)
        assert len(segments) > 2
        # a tailer parked before records that compaction then retires
        tailer = JournalTailer(tmp_path, start_lsn=1)
        segments[0].unlink()
        with pytest.raises(TailTruncatedError):
            tailer.poll()
