"""Recovery runs each event at the time it was journaled with.

A mutator reads the clock, applies, then journals, so two sittings can
journal in the other order from the one they read the clock in: the log
then holds a record stamped earlier than the one before it.  Recovery
pins the clock to each record's own timestamp, and the recovered clock
goes live from the latest one.
"""

import threading

from repro.delivery.clock import ManualClock
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.sim.workloads import classroom_exam
from repro.store import Journal, read_records, recover
from repro.store.recovery import ReplayClock


def test_a_record_journaled_after_a_later_one_keeps_its_time(tmp_path):
    """``a`` answers at t=101 and its ``Journal.append`` is held until
    ``b`` has answered at t=102 and been journaled."""
    exam = classroom_exam(4)
    journal = Journal.open(tmp_path, fsync="never")
    clock = ManualClock(100.0)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(exam)
    for learner_id in ("a", "b"):
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
        lms.enroll(learner_id, exam.exam_id)
        lms.start_exam(learner_id, exam.exam_id)
    append = journal.append
    a_held = threading.Event()
    b_journaled = threading.Event()

    def ordered_append(type_, data):
        if type_ == "answer" and data["learner_id"] == "a":
            a_held.set()
            b_journaled.wait(timeout=5)
            return append(type_, data)
        lsn = append(type_, data)
        if type_ == "answer":
            b_journaled.set()
        return lsn

    journal.append = ordered_append
    clock.advance(1.0)
    first = threading.Thread(
        target=lms.answer, args=("a", exam.exam_id, "q01", "A")
    )
    first.start()
    assert a_held.wait(timeout=5)
    clock.advance(1.0)
    lms.answer("b", exam.exam_id, "q01", "A")
    first.join(timeout=15)
    assert not first.is_alive()
    journal.close()
    stamps = [
        (record.data["learner_id"], record.data["ts"])
        for record in read_records(tmp_path, 0)
        if record.type == "answer"
    ]
    assert stamps == [("b", 102.0), ("a", 101.0)]

    recovered = recover(tmp_path).lms

    def sitting_state(source, learner_id):
        events = [
            (event.kind.value, event.timestamp)
            for event in source.tracking
            if event.learner_id == learner_id
        ]
        session = source.sitting(learner_id, exam.exam_id).session
        return events, session.export_state()

    for learner_id in ("a", "b"):
        assert sitting_state(recovered, learner_id) == sitting_state(
            lms, learner_id
        )
    assert recovered.clock.now() >= 102.0


def test_the_clock_goes_live_from_the_latest_pinned_time():
    clock = ReplayClock()
    clock.pin(5.0)
    clock.pin(3.0)
    assert clock.now() == 3.0
    clock.go_live()
    assert clock.now() >= 5.0
