"""Differential property suite: batched ingestion ≡ one-at-a-time.

The batch endpoint's contract is that a cohort driven through
``Lms.answer_batch`` is *observably identical* to the same answers
applied through ``Lms.answer`` one at a time — same ``live_analysis``,
same ``state_fingerprint``, and the same state again after journal
replay on both sides.  Hypothesis drives interleavings of batch sizes,
invalid answers, omissions, suspend/resume, and submits against two
mirrored LMS instances and asserts exactly that.

All-or-nothing semantics make the mirror well-defined: a batch that
raises applies *nothing* (asserted directly below), so the sequential
twin applies the group's answers only when the batch side accepted it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from store_helpers import build_exam, enroll_cohort

from repro.core.errors import AssessmentError
from repro.delivery.clock import ManualClock
from repro.lms.lms import Lms
from repro.store import Journal, recover, state_fingerprint

LEARNERS = ["l0", "l1", "l2"]
ITEMS = ["q1", "q2", "q3", "q9"]  # q9 does not exist in the exam
RESPONSES = ["A", "B", "C", "z"]  # "z" is not a valid option

learner_ids = st.sampled_from(LEARNERS)

answer_groups = st.lists(
    st.tuples(st.sampled_from(ITEMS), st.sampled_from(RESPONSES)),
    min_size=0,
    max_size=6,
)

operations = st.one_of(
    st.tuples(st.just("start"), learner_ids),
    st.tuples(st.just("batch"), learner_ids, answer_groups, st.booleans()),
    st.tuples(st.just("suspend"), learner_ids),
    st.tuples(st.just("resume"), learner_ids),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=120)),
)


def make_pair(tmp_path, name):
    wal_dir = tmp_path / name
    journal = Journal.open(wal_dir, fsync="never")
    clock = ManualClock(100.0)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(build_exam())
    enroll_cohort(lms, LEARNERS)
    return lms, clock, journal, wal_dir


def mirrored(call_a, call_b):
    """Run the same mutation on both sides; outcomes must agree."""
    try:
        call_a()
        ok_a = True
    except AssessmentError:
        ok_a = False
    try:
        call_b()
        ok_b = True
    except AssessmentError:
        ok_b = False
    assert ok_a == ok_b
    return ok_a


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(operations, min_size=0, max_size=25))
def test_batched_cohort_is_bit_identical_to_sequential(
    tmp_path_factory, ops
):
    base = tmp_path_factory.mktemp("diff")
    batch_lms, batch_clock, batch_journal, batch_wal = make_pair(
        base, "batch"
    )
    seq_lms, seq_clock, seq_journal, seq_wal = make_pair(base, "seq")

    for op in ops:
        kind = op[0]
        if kind == "advance":
            batch_clock.advance(float(op[1]))
            seq_clock.advance(float(op[1]))
        elif kind == "batch":
            _, learner_id, pairs, submit = op
            try:
                batch_lms.answer_batch(
                    learner_id, "ex1", pairs, submit=submit
                )
            except AssessmentError:
                continue  # all-or-nothing: the twin applies nothing
            for item_id, response in pairs:
                seq_lms.answer(learner_id, "ex1", item_id, response)
            if submit:
                seq_lms.submit(learner_id, "ex1")
        else:
            method = {
                "start": "start_exam",
                "suspend": "suspend",
                "resume": "resume",
            }[kind]
            mirrored(
                lambda: getattr(batch_lms, method)(op[1], "ex1"),
                lambda: getattr(seq_lms, method)(op[1], "ex1"),
            )

    # live state: analysis, sittings, results, tracking — all equal
    assert state_fingerprint(batch_lms) == state_fingerprint(seq_lms)

    # journal replay converges on the same state on both sides
    batch_journal.sync()
    seq_journal.sync()
    live = state_fingerprint(batch_lms)
    recovered_batch = recover(batch_wal)
    recovered_seq = recover(seq_wal)
    assert state_fingerprint(recovered_batch.lms) == live
    assert state_fingerprint(recovered_seq.lms) == live
    batch_journal.close()
    seq_journal.close()


@settings(max_examples=40, deadline=None)
@given(
    good=st.lists(
        st.tuples(st.sampled_from(["q1", "q2", "q3"]), st.sampled_from("ABC")),
        min_size=0,
        max_size=5,
    ),
    bad_index=st.integers(min_value=0, max_value=5),
    bad=st.sampled_from([("q9", "A"), ("q1", "z"), ("q2", "")]),
)
def test_invalid_batch_applies_nothing(tmp_path_factory, good, bad_index, bad):
    """One bad answer anywhere in the batch → no state change at all."""
    base = tmp_path_factory.mktemp("atomic")
    lms, clock, journal, wal_dir = make_pair(base, "wal")
    lms.start_exam("l0", "ex1")
    before_lsn = journal.last_lsn
    before = state_fingerprint(lms)

    pairs = list(good)
    pairs.insert(min(bad_index, len(pairs)), bad)
    with pytest.raises(AssessmentError) as excinfo:
        lms.answer_batch("l0", "ex1", pairs)

    # the error names the offending index and item
    position = pairs.index(bad)
    assert f"answers[{position}]" in str(excinfo.value)
    # nothing was applied, nothing was journaled
    assert journal.last_lsn == before_lsn
    assert state_fingerprint(lms) == before
    assert lms.sitting("l0", "ex1").session.answered_item_ids() == []
    journal.close()


def test_recovery_reports_batched_answers(tmp_path_factory):
    base = tmp_path_factory.mktemp("report")
    lms, clock, journal, wal_dir = make_pair(base, "wal")
    lms.start_exam("l0", "ex1")
    lms.answer_batch("l0", "ex1", [("q1", "A"), ("q2", "B"), ("q3", "C")])
    journal.sync()
    report = recover(wal_dir)
    assert report.batched_answers == 3
    assert "3 answer(s) via batch events" in report.summary()
    journal.close()


def test_batch_timestamps_are_shared(tmp_path_factory):
    """All answers of one batch carry the same clock reading."""
    base = tmp_path_factory.mktemp("ts")
    lms, clock, journal, wal_dir = make_pair(base, "wal")
    lms.start_exam("l0", "ex1")
    clock.advance(30.0)
    lms.answer_batch("l0", "ex1", [("q1", "A"), ("q2", "B"), ("q3", "C")])
    clock.advance(5.0)
    graded = lms.submit("l0", "ex1")
    assert graded.answer_times == [30.0, 30.0, 30.0]
    journal.close()
