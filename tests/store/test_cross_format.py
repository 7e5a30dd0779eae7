"""Cross-format differential suite: JSONL v1 ≡ binary.

The wire format is an encoding choice, not a semantic one: the same
event stream journaled as v1 (by ``v1log.V1Log``, as older builds
wrote it) and as binary must decode to the *same records* and recover
to the *same LMS* — including directories that changed format
mid-stream.  The fuzz half extends the kill-at-byte-N torn-tail
property to binary segments and to group-commit flush boundaries: any
prefix of a binary log is a valid log, and damage never resurrects a
torn record.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from store_helpers import build_exam, enroll_cohort
from v1log import open_log

from repro.core.errors import AssessmentError
from repro.delivery.clock import ManualClock
from repro.lms.lms import Lms
from repro.store import (
    Journal,
    read_records,
    recover,
    segment_files,
    state_fingerprint,
)

LEARNERS = ["amy", "ben", "cal"]


def journaled(wal_dir, fmt=2, origin=100.0):
    journal = open_log(wal_dir, fmt)
    clock = ManualClock(origin)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(build_exam())
    enroll_cohort(lms, LEARNERS)
    return lms, clock, journal


def drive_first_half(lms, clock):
    """A deterministic workload touching every journaled event type."""
    for learner_id in LEARNERS:
        lms.start_exam(learner_id, "ex1")
    clock.advance(10.0)
    lms.answer("amy", "ex1", "q1", "A")
    lms.answer_batch("ben", "ex1", [("q1", "B"), ("q2", "A")])
    clock.advance(5.0)
    lms.suspend("cal", "ex1")


def drive_second_half(lms, clock):
    lms.resume("cal", "ex1")
    clock.advance(7.0)
    lms.answer_batch("cal", "ex1", [("q1", "A"), ("q3", "C")], submit=True)
    lms.answer_batch("amy", "ex1", [("q2", "B"), ("q3", "A")])
    clock.advance(3.0)
    lms.submit("amy", "ex1")
    lms.submit("ben", "ex1")


class TestCrossFormatEquivalence:
    def test_same_stream_decodes_identically_in_both_formats(self, tmp_path):
        streams = {}
        for fmt in (1, 2):
            wal_dir = tmp_path / f"v{fmt}"
            lms, clock, journal = journaled(wal_dir, fmt)
            drive_first_half(lms, clock)
            drive_second_half(lms, clock)
            journal.close()
            streams[fmt] = list(read_records(wal_dir))
        assert streams[1] == streams[2]
        # and v2 pays fewer bytes for the privilege
        v1_bytes = sum(p.stat().st_size for p in segment_files(tmp_path / "v1"))
        v2_bytes = sum(p.stat().st_size for p in segment_files(tmp_path / "v2"))
        assert v2_bytes < v1_bytes

    def test_both_formats_recover_to_the_same_state(self, tmp_path):
        fingerprints = {}
        for fmt in (1, 2):
            wal_dir = tmp_path / f"v{fmt}"
            lms, clock, journal = journaled(wal_dir, fmt)
            drive_first_half(lms, clock)
            drive_second_half(lms, clock)
            journal.close()
            live = state_fingerprint(lms)
            recovered = state_fingerprint(recover(wal_dir).lms)
            assert recovered == live
            fingerprints[fmt] = recovered
        assert fingerprints[1] == fingerprints[2]

    def test_mid_stream_upgrade_recovers_identically(self, tmp_path):
        # reference: the whole run in one v2 directory
        ref_lms, ref_clock, ref_journal = journaled(tmp_path / "ref")
        drive_first_half(ref_lms, ref_clock)
        drive_second_half(ref_lms, ref_clock)
        ref_journal.close()

        # upgraded: v1 history, process restart, v2 tail
        wal_dir = tmp_path / "mixed"
        lms, clock, journal = journaled(wal_dir, 1)
        drive_first_half(lms, clock)
        journal.sync()
        journal.close()
        recovered = recover(wal_dir)
        journal = Journal.open(wal_dir, fsync="never")
        lms2 = recovered.lms
        lms2.attach_journal(journal)
        # continue on the replayed timeline at the reference clock's point
        drive_second_half(lms2, _Advancer(lms2))
        journal.close()

        suffixes = {p.suffix for p in segment_files(wal_dir)}
        assert suffixes == {".jsonl", ".walb"}
        final = recover(wal_dir)
        assert state_fingerprint(final.lms) == state_fingerprint(lms2)


class _Advancer:
    """Adapter: drive_* advances a ManualClock; a recovered LMS runs on
    a ReplayClock gone live.  Timestamps differ from the reference run,
    so the mixed-dir test compares mixed-live vs mixed-recovered only —
    this shim just absorbs the advance() calls."""

    def __init__(self, lms):
        self._lms = lms

    def advance(self, seconds):
        pass


class TestBinaryTornTailFuzz:
    def _filled_dir(self, tmp_path):
        lms, clock, journal = journaled(tmp_path)
        drive_first_half(lms, clock)
        drive_second_half(lms, clock)
        journal.sync()
        journal.close()
        return tmp_path

    def test_kill_at_every_byte_of_a_binary_segment(self, tmp_path):
        wal_dir = self._filled_dir(tmp_path)
        tail = segment_files(wal_dir)[-1]
        whole = tail.read_bytes()
        previous = -1
        for cut in range(len(whole) + 1):
            tail.write_bytes(whole[:cut])
            report = recover(wal_dir)  # must never raise
            assert report.last_lsn <= len(whole)
            lsns = [r.lsn for r in read_records(wal_dir)]
            assert lsns == list(range(1, len(lsns) + 1))
            assert previous == -1 or len(lsns) >= previous
            previous = len(lsns)

    @settings(max_examples=30, deadline=None)
    @given(
        damage=st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=255),
        )
    )
    def test_flipped_bytes_never_fabricate_records(
        self, tmp_path_factory, damage
    ):
        """Bit rot in the tail segment can only shorten the record
        stream (or raise for mid-log damage) — never invent records or
        decode garbage."""
        wal_dir = self._filled_dir(tmp_path_factory.mktemp("fuzz"))
        intact = [(r.lsn, r.type) for r in read_records(wal_dir)]
        tail = segment_files(wal_dir)[-1]
        raw = bytearray(tail.read_bytes())
        offset, xor = damage
        raw[offset % len(raw)] ^= xor
        tail.write_bytes(bytes(raw))
        try:
            damaged = [(r.lsn, r.type) for r in read_records(wal_dir)]
        except AssessmentError:
            return  # mid-log damage is allowed to raise, never to lie
        assert damaged == intact[: len(damaged)]

    def test_group_commit_flush_boundaries_leave_no_torn_records(
        self, tmp_path
    ):
        """Concurrent group-committed writers, then kill-at-byte-N on
        the result: every prefix is a clean record stream, so a crash
        inside any flush window loses only un-acked suffix records.
        Writers append while a leader fsyncs outside the lock, so flush
        boundaries fall between any two writes."""
        journal = Journal.open(tmp_path, fsync="always")
        clock = ManualClock(100.0)
        lms = Lms(clock=clock, journal=journal)
        lms.offer_exam(build_exam(questions=8))
        enroll_cohort(lms, LEARNERS)
        for learner_id in LEARNERS:
            lms.start_exam(learner_id, "ex1")

        def writer(learner_id):
            for n in range(1, 9):
                try:
                    lms.answer_batch(
                        learner_id, "ex1", [(f"q{n}", "A"), (f"q{n}", "B")]
                    )
                except AssessmentError:
                    pass

        threads = [
            threading.Thread(target=writer, args=(lid,)) for lid in LEARNERS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        acked = journal.last_lsn
        assert journal.group_commits >= 1
        journal.close()

        tail = segment_files(tmp_path)[-1]
        whole = tail.read_bytes()
        # every acked record is on disk before the cut
        assert [r.lsn for r in read_records(tmp_path)][-1] == acked
        for cut in range(0, len(whole), 7):
            tail.write_bytes(whole[:cut])
            lsns = [r.lsn for r in read_records(tmp_path)]
            assert lsns == list(range(1, len(lsns) + 1))
        tail.write_bytes(whole)
        report = recover(tmp_path)
        assert report.last_lsn == acked
