"""Differential property test: ``recover()`` == the live Lms.

Hypothesis drives random operation sequences against a journaled LMS
(with checkpoints taken at arbitrary points mid-stream), then recovers
from the WAL directory and asserts ``state_fingerprint`` equality.

Invalid operations (answering before starting, double enrollment,
resuming an in-progress sitting, ...) are part of the point: they raise
domain errors *before* the journal append, so the log only ever holds
mutations that succeeded — a recovered LMS must match regardless of how
much garbage the caller threw at the live one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from store_helpers import build_exam

from repro.core.errors import AssessmentError
from repro.delivery.clock import ManualClock
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.store import (
    Checkpointer,
    Journal,
    recover,
    segment_files,
    state_fingerprint,
)

LEARNERS = ["l0", "l1", "l2"]
ITEMS = ["q1", "q2", "q3", "q9"]  # q9 does not exist in the exam
RESPONSES = ["a", "b", "c", ""]

learner_ids = st.sampled_from(LEARNERS)

operations = st.one_of(
    st.tuples(st.just("register"), learner_ids),
    st.tuples(st.just("enroll"), learner_ids),
    st.tuples(st.just("start"), learner_ids),
    st.tuples(
        st.just("answer"),
        learner_ids,
        st.sampled_from(ITEMS),
        st.sampled_from(RESPONSES),
    ),
    st.tuples(st.just("suspend"), learner_ids),
    st.tuples(st.just("resume"), learner_ids),
    st.tuples(st.just("submit"), learner_ids),
    st.tuples(st.just("capture"), learner_ids),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=120)),
    st.tuples(st.just("checkpoint")),
)


def apply_operation(lms, clock, checkpointer, op):
    kind = op[0]
    try:
        if kind == "register":
            lms.register_learner(Learner(learner_id=op[1], name=op[1]))
        elif kind == "enroll":
            lms.enroll(op[1], "ex1")
        elif kind == "start":
            lms.start_exam(op[1], "ex1")
        elif kind == "answer":
            lms.answer(op[1], "ex1", op[2], op[3])
        elif kind == "suspend":
            lms.suspend(op[1], "ex1")
        elif kind == "resume":
            lms.resume(op[1], "ex1")
        elif kind == "submit":
            lms.submit(op[1], "ex1")
        elif kind == "capture":
            lms.capture_frame(op[1], "ex1")
        elif kind == "advance":
            clock.advance(float(op[1]))
        elif kind == "checkpoint":
            checkpointer.checkpoint()
    except AssessmentError:
        # rejected before the journal append — both sides unaffected
        pass


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations, min_size=0, max_size=40))
def test_recovered_state_equals_live_state(tmp_path_factory, ops):
    wal_dir = tmp_path_factory.mktemp("wal")
    journal = Journal.open(wal_dir, fsync="never", segment_bytes=2048)
    clock = ManualClock(100.0)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(build_exam())
    checkpointer = Checkpointer(lms, journal, keep=3)
    for op in ops:
        apply_operation(lms, clock, checkpointer, op)
    journal.sync()
    report = recover(wal_dir)
    assert state_fingerprint(report.lms) == state_fingerprint(lms)
    journal.close()


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(operations, min_size=5, max_size=30),
    cut=st.integers(min_value=0, max_value=200),
)
def test_recovery_tolerates_a_torn_tail(tmp_path_factory, ops, cut):
    """Chopping bytes off the final segment never breaks recovery: the
    recovered state is some valid prefix of the history."""
    wal_dir = tmp_path_factory.mktemp("wal")
    journal = Journal.open(wal_dir, fsync="never", segment_bytes=4096)
    clock = ManualClock(100.0)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(build_exam())
    checkpointer = Checkpointer(lms, journal, keep=3)
    for op in ops:
        apply_operation(lms, clock, checkpointer, op)
    journal.sync()
    journal.close()
    segments = segment_files(wal_dir)
    if segments:
        tail = segments[-1]
        raw = tail.read_bytes()
        tail.write_bytes(raw[: max(0, len(raw) - cut)])
    report = recover(wal_dir)  # must not raise
    assert report.last_lsn >= report.checkpoint_lsn
