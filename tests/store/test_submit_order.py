"""The journal holds submits in the order they committed.

``Lms._submit`` adds a graded sitting to the results and the live
analysis under its commit lock.  If the ``submit`` record were written
after that lock is released, a second learner could commit *and*
journal in between, and the log would hold the two submits in the
opposite order from ``results_for`` — so recovery would rebuild a
different results list than the one served.  These tests force exactly
that interleaving: the first learner's submit is held back on its way
into the journal while the second learner submits.
"""

import sys
import threading

import pytest

from store_helpers import build_exam, enroll_cohort

from repro.delivery.clock import ManualClock
from repro.lms.lms import Lms
from repro.store import Journal, read_records, recover

#: how long the held-back submit waits for the other learner's to finish
HOLD_SECONDS = 0.5


class HeldJournal:
    """A journal whose first write carrying ``learner_id``'s submit is
    held back until :attr:`release` is set (or :data:`HOLD_SECONDS`
    pass); every other call goes straight through."""

    def __init__(self, journal, learner_id):
        self._journal = journal
        self._learner_id = learner_id
        self.reached = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        target = getattr(self._journal, name)
        if name not in ("append", "append_batch", "write"):
            return target

        def call(*args):
            events = [args] if name == "append" else list(args[0])
            if not self.reached.is_set() and any(
                type_ == "submit" and data["learner_id"] == self._learner_id
                for type_, data in events
            ):
                self.reached.set()
                self.release.wait(HOLD_SECONDS)
            return target(*args)

        return call


def journal_submits(wal_dir):
    return [r.data["learner_id"] for r in read_records(wal_dir)
            if r.type == "submit"]


def result_order(lms):
    return [sitting.learner_id for sitting in lms.results_for("ex1")]


@pytest.mark.parametrize("batch", [False, True], ids=["submit", "batch"])
@pytest.mark.parametrize("fsync", ["interval", "always"])
def test_journal_submit_order_matches_commit_order(tmp_path, batch, fsync):
    journal = Journal.open(tmp_path, fsync=fsync)
    held = HeldJournal(journal, "amy")
    lms = Lms(clock=ManualClock(100.0), journal=held)
    lms.offer_exam(build_exam())
    enroll_cohort(lms, ["amy", "ben"])
    for learner_id in ("amy", "ben"):
        lms.start_exam(learner_id, "ex1")

    def finish(learner_id):
        if batch:
            lms.answer_batch(learner_id, "ex1", [("q1", "A"), ("q2", "B")],
                             submit=True)
        else:
            lms.submit(learner_id, "ex1")

    first = threading.Thread(target=finish, args=("amy",))
    first.start()
    assert held.reached.wait(10)
    finish("ben")  # waits for amy's write when submits journal in order
    held.release.set()
    first.join(10)
    assert not first.is_alive()
    journal.close()

    committed = result_order(lms)
    assert sorted(committed) == ["amy", "ben"]
    assert journal_submits(tmp_path) == committed
    assert result_order(recover(tmp_path).lms) == committed


def test_result_readers_do_not_wait_on_a_group_commit(tmp_path):
    """The submit's fsync wait comes after the commit lock is released:
    while it is held back, ``results_for`` and the live analysis's
    partial (both under that lock) answer, and already hold the
    sitting."""
    journal = Journal.open(tmp_path, fsync="always")
    lms = Lms(clock=ManualClock(100.0), journal=journal)
    lms.offer_exam(build_exam())
    enroll_cohort(lms, ["amy"])
    lms.start_exam("amy", "ex1")
    waiting = threading.Event()
    release = threading.Event()
    commit = journal.commit

    def held_commit(lsn):
        waiting.set()
        release.wait(10)
        commit(lsn)

    journal.commit = held_commit
    submitter = threading.Thread(target=lms.submit, args=("amy", "ex1"))
    submitter.start()
    seen = []

    def read():
        seen.append(result_order(lms))
        seen.append(lms.analysis_partial("ex1")["examinee_ids"])

    reader = threading.Thread(target=read)
    try:
        assert waiting.wait(10)
        reader.start()
        reader.join(5)
        assert not reader.is_alive(), "a reader waited on the disk flush"
    finally:
        release.set()
        submitter.join(10)
        if reader.ident is not None:
            reader.join(10)
    assert not submitter.is_alive()
    assert seen == [["amy"], ["amy"]]
    journal.close()
    assert journal_submits(tmp_path) == ["amy"]


def test_concurrent_submits_journal_in_commit_order(tmp_path):
    """Many learners finishing at once, by plain submits and by
    submitting batches, over a group-committed journal: the log, the
    served results and the recovered results agree on one order."""
    learners = [f"l{index:02d}" for index in range(16)]
    journal = Journal.open(tmp_path, fsync="always")
    lms = Lms(clock=ManualClock(100.0), journal=journal)
    lms.offer_exam(build_exam())
    enroll_cohort(lms, learners)
    for learner_id in learners:
        lms.start_exam(learner_id, "ex1")
    start = threading.Barrier(len(learners))

    def finish(index, learner_id):
        start.wait(10)
        if index % 2:
            lms.answer_batch(learner_id, "ex1", [("q1", "A")], submit=True)
        else:
            lms.submit(learner_id, "ex1")

    threads = [threading.Thread(target=finish, args=pair)
               for pair in enumerate(learners)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    journal.close()
    committed = result_order(lms)
    assert sorted(committed) == learners
    assert journal_submits(tmp_path) == committed
    assert result_order(recover(tmp_path).lms) == committed
