"""Lock semantics and contention accounting for the sharded LMS.

The coarse ``Lms`` RLock became a reader-writer :class:`ShardLock` plus
per-sitting :class:`InstrumentedRLock`\\ s.  These tests pin the
semantics the refactor depends on: shared sections genuinely overlap,
exclusive sections exclude everything, a shared→exclusive upgrade is a
programming error (deadlock otherwise), reentrancy works both ways, and
every acquisition feeds the :class:`LockStats` that ``/metrics``
surfaces.
"""

import threading
import time

import pytest

from repro.lms.locks import (
    MAX_SITTING_LABELS,
    InstrumentedRLock,
    LockStats,
    ShardLock,
)


class TestShardLockSemantics:
    def test_shared_sections_overlap(self):
        lock = ShardLock(LockStats())
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.shared():
                inside.wait()  # both readers in simultaneously or bust

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_exclusive_excludes_shared(self):
        lock = ShardLock(LockStats())
        order = []
        entered = threading.Event()

        def reader():
            entered.set()
            with lock.shared():
                order.append("reader")

        with lock:
            thread = threading.Thread(target=reader)
            thread.start()
            entered.wait(timeout=5)
            time.sleep(0.05)  # give the reader a chance to (wrongly) enter
            order.append("writer-done")
        thread.join(timeout=5)
        assert order == ["writer-done", "reader"]

    def test_writer_waits_for_readers(self):
        lock = ShardLock(LockStats())
        order = []
        in_read = threading.Event()

        def writer():
            with lock:
                order.append("writer")

        with lock.shared():
            in_read.set()
            thread = threading.Thread(target=writer)
            thread.start()
            time.sleep(0.05)
            order.append("reader-done")
        thread.join(timeout=5)
        assert order == ["reader-done", "writer"]

    def test_exclusive_is_reentrant(self):
        lock = ShardLock(LockStats())
        with lock:
            with lock:
                pass  # no deadlock

    def test_shared_inside_exclusive_passes_through(self):
        lock = ShardLock(LockStats())
        with lock:
            with lock.shared():
                pass  # the writer already excludes everyone

    def test_upgrade_is_a_programming_error(self):
        lock = ShardLock(LockStats())
        with lock.shared():
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_reentrant_shared(self):
        lock = ShardLock(LockStats())
        with lock.shared():
            with lock.shared():
                pass


class TestStats:
    def test_acquisitions_counted_per_scope(self):
        stats = LockStats()
        lock = ShardLock(stats)
        with lock:
            pass
        with lock.shared():
            pass
        snapshot = stats.snapshot()
        assert snapshot["scopes"]["shard.exclusive"]["acquisitions"] == 1
        assert snapshot["scopes"]["shard.shared"]["acquisitions"] == 1

    def test_contention_counted_with_wait_time(self):
        stats = LockStats()
        lock = ShardLock(stats)
        released = threading.Event()
        holding = threading.Event()

        def holder():
            with lock:
                holding.set()
                released.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        holding.wait(timeout=5)
        timer = threading.Timer(0.08, released.set)
        timer.start()
        with lock:  # must wait for the holder → contended
            pass
        thread.join(timeout=5)
        scope = stats.snapshot()["scopes"]["shard.exclusive"]
        assert scope["contended"] >= 1
        assert scope["wait_ms_total"] > 0

    def test_sitting_lock_reports_its_label(self):
        stats = LockStats()
        lock = InstrumentedRLock(stats, "amy:exam-1")
        blocking = threading.Event()
        go = threading.Event()

        def holder():
            with lock:
                blocking.set()
                go.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        blocking.wait(timeout=5)
        timer = threading.Timer(0.05, go.set)
        timer.start()
        with lock:
            pass
        thread.join(timeout=5)
        snapshot = stats.snapshot()
        assert "amy:exam-1" in snapshot["contended_sittings"]

    def test_sitting_label_map_is_bounded(self):
        stats = LockStats()
        for index in range(MAX_SITTING_LABELS * 2):
            stats.record(
                "sitting", 0.001, True, label=f"learner-{index}:exam"
            )
        snapshot = stats.snapshot()
        contended = snapshot["contended_sittings"]
        assert len(contended) <= MAX_SITTING_LABELS + 1  # + "(other)"
        assert contended.get("(other)", 0) >= MAX_SITTING_LABELS

    def test_uncontended_acquire_is_not_contended(self):
        stats = LockStats()
        lock = InstrumentedRLock(stats, "solo:exam")
        with lock:
            pass
        snapshot = stats.snapshot()
        assert snapshot["scopes"]["sitting"]["contended"] == 0
        assert snapshot["contended_sittings"] == {}


class TestLmsWiring:
    def test_lms_snapshot_appears_in_lock_stats(self):
        from repro.lms.lms import Lms

        lms = Lms()
        lms.offered_exams()  # a shared acquisition
        snapshot = lms.lock_stats.snapshot()
        assert snapshot["scopes"]["shard.shared"]["acquisitions"] >= 1

    def test_concurrent_sittings_do_not_serialize_on_the_shard(self):
        """Two learners answering simultaneously overlap: the shard
        lock is held shared, only each learner's own sitting lock is
        exclusive.  (With the old single RLock this test deadlocks on
        the barrier.)"""
        from repro.lms.learners import Learner
        from repro.lms.lms import Lms
        from repro.sim.workloads import classroom_exam

        exam = classroom_exam(4)
        lms = Lms()
        lms.offer_exam(exam)
        for learner_id in ("amy", "bob"):
            lms.register_learner(
                Learner(learner_id=learner_id, name=learner_id)
            )
            lms.enroll(learner_id, exam.exam_id)
            lms.start_exam(learner_id, exam.exam_id)

        barrier = threading.Barrier(2, timeout=5)
        errors = []

        def sit(learner_id):
            try:
                barrier.wait()
                for item in exam.analyzable_items():
                    lms.answer(learner_id, exam.exam_id, item.item_id, "A")
                lms.submit(learner_id, exam.exam_id)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=sit, args=(learner_id,))
            for learner_id in ("amy", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(lms.results_for(exam.exam_id)) == 2

    def test_a_restored_sitting_counts_its_lock_like_a_replayed_one(
        self, tmp_path
    ):
        """``amy``'s sitting is restored from a checkpoint and ``bob``'s
        replayed from the WAL after it: an answer on either counts one
        sitting-lock acquisition in the recovered LMS's stats."""
        from repro.delivery.clock import ManualClock
        from repro.lms.learners import Learner
        from repro.lms.lms import Lms
        from repro.sim.workloads import classroom_exam
        from repro.store import Checkpointer, Journal, recover

        exam = classroom_exam(4)
        journal = Journal.open(tmp_path, fsync="never")
        lms = Lms(clock=ManualClock(100.0), journal=journal)
        lms.offer_exam(exam)
        for learner_id in ("amy", "bob"):
            lms.register_learner(
                Learner(learner_id=learner_id, name=learner_id)
            )
            lms.enroll(learner_id, exam.exam_id)
        lms.start_exam("amy", exam.exam_id)
        lms.answer("amy", exam.exam_id, "q01", "A")
        Checkpointer(lms, journal).checkpoint()
        lms.start_exam("bob", exam.exam_id)
        journal.close()

        report = recover(tmp_path)
        assert report.checkpoint_path is not None
        recovered = report.lms

        def acquisitions():
            scopes = recovered.lock_stats.snapshot()["scopes"]
            return scopes.get("sitting", {}).get("acquisitions", 0)

        for learner_id in ("amy", "bob"):
            before = acquisitions()
            recovered.answer(learner_id, exam.exam_id, "q02", "B")
            assert acquisitions() == before + 1, learner_id
