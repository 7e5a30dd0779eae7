"""The checkpoint write path (repro.store.checkpoint, repro.lms.persistence).

A pass collects the payload under the LMS lock, streams it as compact
JSON after releasing the lock, and makes the file and its directory
entry durable before compaction deletes anything the file covers.
"""

import os
import pathlib
import shutil
import threading

import pytest
from store_helpers import enroll_cohort, journaled_lms

from repro.core.errors import StoreError
from repro.delivery.clock import ManualClock
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.lms.persistence import load_payload
from repro.sim.workloads import classroom_exam
from repro.store import (
    Checkpointer,
    Journal,
    checkpoint_files,
    recover,
    state_fingerprint,
)
from repro.store.journal import segment_files, segment_first_lsn


class RecordingStream:
    """A file object that records each ``write()`` size and can run a
    hook just before its first write."""

    def __init__(self, stream, sizes, before_first_write=None):
        self._stream = stream
        self._sizes = sizes
        self._hook = before_first_write

    def write(self, data):
        hook, self._hook = self._hook, None
        if hook is not None:
            hook()
        self._sizes.append(len(data))
        return self._stream.write(data)

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._stream.__exit__(*exc_info)


def record_writes(monkeypatch, before_first_write=None):
    """Wrap every file ``os.fdopen`` opens; returns the write sizes."""
    sizes = []
    real_fdopen = os.fdopen

    def fdopen(*args, **kwargs):
        return RecordingStream(
            real_fdopen(*args, **kwargs), sizes, before_first_write
        )

    monkeypatch.setattr(os, "fdopen", fdopen)
    return sizes


def classroom_lms(journal, sittings):
    """``sittings`` graded 20-item sittings, answered in chunks of 5."""
    clock = ManualClock(1000.0)
    lms = Lms(clock=clock, journal=journal)
    exam = classroom_exam(20)
    lms.offer_exam(exam)
    items = [item.item_id for item in exam.items]
    for index in range(sittings):
        learner_id = f"s{index:03d}"
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
        lms.enroll(learner_id, exam.exam_id)
        lms.start_exam(learner_id, exam.exam_id)
        response = "ABCDE"[index % 5]
        for start in range(0, len(items), 5):
            clock.advance(5.0)
            lms.answer_batch(
                learner_id,
                exam.exam_id,
                [(item_id, response) for item_id in items[start:start + 5]],
                submit=start + 5 == len(items),
            )
    return lms


def per_learner_tracking(fingerprint):
    """``fingerprint`` with its tracking log split per learner.

    Concurrent sittings append to the tracking log in the order their
    threads reach it, which need not be the order their records reach
    the journal, so replay may interleave two learners' events
    differently.  Each learner's own events keep their order.
    """
    split = {}
    for event in fingerprint["tracking"]:
        split.setdefault(event["learner_id"], []).append(event)
    return dict(fingerprint, tracking=split)


def rte_records(lms):
    """Every SCORM attempt record: launches, suspend flag, last commit."""
    return {
        (record.learner_id, record.sco_id): (
            record.attempts, record.suspended, record.last_snapshot
        )
        for record in lms.rte.all_records()
    }


def identity(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


class TestDurableBeforeCompaction:
    def test_file_and_directory_are_fsynced_before_the_first_unlink(
        self, tmp_path, monkeypatch
    ):
        journal = Journal.open(tmp_path, fsync="always", segment_bytes=64)
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob", "cal"])
        events = []
        real_fsync = os.fsync
        real_unlink = pathlib.Path.unlink

        def fsync(fd):
            stat = os.fstat(fd)
            events.append(("fsync", (stat.st_dev, stat.st_ino)))
            return real_fsync(fd)

        def unlink(self, *args, **kwargs):
            events.append(("unlink", self.name))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(pathlib.Path, "unlink", unlink)
        result = Checkpointer(lms, journal).checkpoint()
        monkeypatch.undo()
        assert result.retired_segments
        first_unlink = [kind for kind, _ in events].index("unlink")
        synced = {target for kind, target in events[:first_unlink]
                  if kind == "fsync"}
        assert identity(result.path) in synced
        assert identity(tmp_path) in synced
        journal.close()

    @pytest.mark.parametrize("fsync", ["interval", "always"])
    def test_covered_records_are_durable_before_the_snapshot_is_written(
        self, tmp_path, monkeypatch, fsync
    ):
        """A snapshot that reached the disk ahead of the records it
        covers would, after a power loss, sit above the WAL's end."""
        from repro.lms import persistence

        journal = Journal.open(tmp_path, fsync=fsync)
        lms, _ = journaled_lms(journal)
        for index in range(10):
            lms.register_learner(Learner(learner_id=f"l{index}", name=""))
        written = []
        real_save = persistence.save_lms

        def save_lms(payload, path, wal_lsn):
            written.append((journal.durable_lsn, wal_lsn))
            return real_save(payload, path, wal_lsn=wal_lsn)

        monkeypatch.setattr(persistence, "save_lms", save_lms)
        Checkpointer(lms, journal).checkpoint()
        ((durable, covered),) = written
        assert covered == journal.last_lsn == 11
        assert durable >= covered
        journal.close()


class TestWalGap:
    def build(self, directory):
        """Two checkpoints over one-record segments, then a suffix."""
        journal = Journal.open(directory, fsync="never", segment_bytes=20)
        lms = Lms(clock=ManualClock(100.0), journal=journal)
        checkpointer = Checkpointer(lms, journal)
        results = []
        for group in (("a0", "a1", "a2"), ("b0", "b1", "b2"), ("c0", "c1")):
            for learner_id in group:
                lms.register_learner(Learner(learner_id=learner_id, name=""))
            if len(results) < 2:
                results.append(checkpointer.checkpoint())
        journal.close()
        return lms, results

    def test_losing_the_newest_checkpoint_raises_naming_the_gap(
        self, tmp_path
    ):
        _, (older, newest) = self.build(tmp_path)
        newest.path.unlink()
        first = segment_first_lsn(segment_files(tmp_path)[0])
        assert first > older.covered_lsn + 1
        with pytest.raises(
            StoreError,
            match=rf"records {older.covered_lsn + 1}\.\.{first - 1} are "
            rf"missing: checkpoint {older.path.name}",
        ):
            recover(tmp_path)

    def test_with_the_newest_checkpoint_every_learner_recovers(
        self, tmp_path
    ):
        lms, _ = self.build(tmp_path)
        recovered = recover(tmp_path).lms
        assert [l.learner_id for l in recovered.learners] == [
            "a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1",
        ]
        assert state_fingerprint(recovered) == state_fingerprint(lms)

    def test_a_retired_head_without_a_checkpoint_raises(self, tmp_path):
        _, results = self.build(tmp_path)
        for result in results:
            result.path.unlink()
        with pytest.raises(
            StoreError, match=r"records 1\.\.\d+ are missing: there is no"
        ):
            recover(tmp_path)


class TestWriteOutsideTheLock:
    def test_answer_batch_returns_while_the_file_write_is_held(
        self, tmp_path, monkeypatch
    ):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        lms.start_exam("bob", "ex1")
        writing, release = threading.Event(), threading.Event()

        def hold():
            writing.set()
            release.wait(10)

        record_writes(monkeypatch, before_first_write=hold)
        checkpoint = threading.Thread(
            target=Checkpointer(lms, journal).checkpoint
        )
        checkpoint.start()
        answered = threading.Event()
        try:
            assert writing.wait(10)

            def answer():
                lms.answer_batch("bob", "ex1", [("q1", "A"), ("q2", "B")])
                answered.set()

            threading.Thread(target=answer, daemon=True).start()
            returned = answered.wait(5)
        finally:
            release.set()
            checkpoint.join(10)
        assert returned, "answer_batch waited for the checkpoint's write"
        monkeypatch.undo()
        journal.close()
        assert state_fingerprint(recover(tmp_path).lms) == state_fingerprint(
            lms
        )

    def test_no_write_of_a_200_sitting_checkpoint_exceeds_64_kib(
        self, tmp_path, monkeypatch
    ):
        journal = Journal.open(tmp_path, fsync="never")
        lms = classroom_lms(journal, 200)
        sizes = record_writes(monkeypatch)
        result = Checkpointer(lms, journal).checkpoint()
        size = result.path.stat().st_size
        assert size > 1 << 20
        assert sum(sizes) == size
        assert max(sizes) <= 64 << 10
        journal.close()

    def test_mutations_after_collection_do_not_reach_the_file(
        self, tmp_path, monkeypatch
    ):
        wal = tmp_path / "wal"
        journal = Journal.open(wal, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        for learner_id, response in (("amy", "A"), ("bob", "B")):
            lms.start_exam(learner_id, "ex1")
            clock.advance(1.0)
            lms.answer(learner_id, "ex1", "q1", response)
        collected = state_fingerprint(lms)
        finished = threading.Event()
        waited = []

        def mutate():
            lms.answer("amy", "ex1", "q2", "C")
            lms.submit("bob", "ex1")
            finished.set()

        def between_collection_and_encoding():
            threading.Thread(target=mutate, daemon=True).start()
            waited.append(finished.wait(5))

        record_writes(
            monkeypatch, before_first_write=between_collection_and_encoding
        )
        result = Checkpointer(lms, journal).checkpoint()
        monkeypatch.undo()
        assert waited == [True], "the mutations waited for the checkpoint"
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy(result.path, alone)
        assert state_fingerprint(recover(alone).lms) == collected
        journal.close()
        live = state_fingerprint(lms)
        assert live != collected
        assert state_fingerprint(recover(wal).lms) == live


class TestConcurrentCheckpoints:
    def test_writers_beside_a_checkpoint_loop_recover_to_the_live_state(
        self, tmp_path
    ):
        journal = Journal.open(tmp_path, fsync="never", segment_bytes=1024)
        lms, clock = journaled_lms(journal)
        writers = [[f"w{t}s{i}" for i in range(12)] for t in range(4)]
        enroll_cohort(lms, [lid for group in writers for lid in group])
        checkpointer = Checkpointer(lms, journal)
        done = threading.Event()
        errors = []

        def write(learner_ids):
            try:
                for learner_id in learner_ids:
                    lms.start_exam(learner_id, "ex1")
                    for index in (1, 2, 3):
                        lms.answer(learner_id, "ex1", f"q{index}", "A")
                    if learner_id.endswith(("s3", "s7")):
                        continue  # left in flight
                    lms.submit(learner_id, "ex1")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def checkpoint_loop():
            try:
                while not done.is_set():
                    checkpointer.checkpoint()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        looping = threading.Thread(target=checkpoint_loop)
        looping.start()
        threads = [threading.Thread(target=write, args=(group,))
                   for group in writers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        done.set()
        looping.join(60)
        assert errors == []
        assert checkpointer.checkpoints_taken >= 2
        for path in checkpoint_files(tmp_path):
            load_payload(path)
        journal.close()
        recovered_lms = recover(tmp_path).lms
        recovered = state_fingerprint(recovered_lms)
        assert per_learner_tracking(recovered) == per_learner_tracking(
            state_fingerprint(lms)
        )
        assert rte_records(recovered_lms) == rte_records(lms)
