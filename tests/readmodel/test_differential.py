"""Differential property test: the read-model fold == the live LMS.

Hypothesis drives random operation sequences (including invalid ones,
re-sits, skips, overwrites, batch answers, and mid-stream read-model
checkpoints) against a journaled LMS, then folds the same WAL through
:func:`repro.readmodel.rebuild` and asserts the cohort analysis is
**bit-identical** to the serving tier's ``live_analysis`` — the
property the CQRS split rests on.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from readmodel_helpers import journaled_lms, enroll_cohort

from repro.core.errors import AnalysisError, AssessmentError, NotFoundError
from repro.lms.learners import Learner
from repro.readmodel import ReadModel, as_of, rebuild, save_readmodel
from repro.server.serialize import analysis_to_dict
from repro.store import Journal

LEARNERS = ["l0", "l1", "l2", "l3"]
ITEMS = ["q1", "q2", "q3", "q4", "tf1", "essay1", "q9"]  # q9: unknown
RESPONSES = ["a", "b", "c", "A", "B", "C", "true", "false", "words", ""]

learner_ids = st.sampled_from(LEARNERS)
answer_pairs = st.tuples(
    st.sampled_from(ITEMS), st.sampled_from(RESPONSES)
)

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
    st.tuples(
        st.just("batch"),
        learner_ids,
        st.lists(answer_pairs, min_size=1, max_size=4),
        st.booleans(),
    ),
    st.tuples(st.just("suspend"), learner_ids),
    st.tuples(st.just("resume"), learner_ids),
    st.tuples(st.just("submit"), learner_ids),
    st.tuples(st.just("capture"), learner_ids),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=90)),
    st.tuples(st.just("rm-checkpoint")),
)


def apply_operation(lms, clock, wal_dir, op):
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
        elif kind == "batch":
            lms.answer_batch(op[1], "ex1", op[2], submit=op[3])
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
        elif kind == "rm-checkpoint":
            # fold what the journal holds so far, persist it: later
            # as_of() queries must restore through these mid-stream
            # checkpoints without changing any answer
            save_readmodel(rebuild(wal_dir), wal_dir, keep=3)
    except AssessmentError:
        # rejected before the journal append — both sides unaffected
        pass


def live_analysis_dump(lms):
    try:
        return json.dumps(
            analysis_to_dict(lms.live_analysis("ex1")), sort_keys=True
        )
    except AnalysisError:
        return "<no-analysis>"


def model_analysis_dump(model):
    try:
        return json.dumps(
            analysis_to_dict(model.exam("ex1").analysis()), sort_keys=True
        )
    except (AnalysisError, NotFoundError):
        return "<no-analysis>"


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(operations, min_size=0, max_size=40))
def test_rebuild_is_bit_identical_to_live_analysis(tmp_path_factory, ops):
    wal_dir = tmp_path_factory.mktemp("wal")
    journal = Journal.open(wal_dir, fsync="never", segment_bytes=2048)
    lms, clock = journaled_lms(journal)
    enroll_cohort(lms, LEARNERS[:2])  # two learners pre-enrolled
    for op in ops:
        apply_operation(lms, clock, wal_dir, op)
    journal.sync()

    model = rebuild(wal_dir)
    assert model_analysis_dump(model) == live_analysis_dump(lms)

    # the scalar aggregates agree with the LMS's own view of the cohort
    exam_model = model.exam("ex1")
    assert len(exam_model.enrolled) == len(lms.enrolled("ex1"))
    # one latest sitting per learner: a re-sit replaces the earlier one
    learners = {graded.learner_id for graded in lms.results_for("ex1")}
    assert len(exam_model.cohort.percents) == len(learners)
    assert sum(exam_model.cohort.buckets) == len(exam_model.cohort.percents)

    # snapshot -> restore -> identical analysis (row order preserved)
    restored = ReadModel.from_snapshot(
        json.loads(json.dumps(model.snapshot()))
    )
    assert model_analysis_dump(restored) == model_analysis_dump(model)
    assert restored.applied_lsn == model.applied_lsn

    # time-travel to the tip == the full rebuild, regardless of which
    # mid-stream checkpoints exist to restore through
    at_tip, _ = as_of(wal_dir, lsn=journal.last_lsn)
    assert model_analysis_dump(at_tip) == model_analysis_dump(model)
    journal.close()


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(operations, min_size=5, max_size=30),
    probe=st.integers(min_value=0, max_value=100),
)
def test_as_of_any_lsn_equals_a_bounded_rebuild(tmp_path_factory, ops, probe):
    """Folding records 1..K directly == as_of(lsn=K) for any K, even
    when as_of restores through a mid-stream checkpoint."""
    from repro.store import read_records

    wal_dir = tmp_path_factory.mktemp("wal")
    journal = Journal.open(wal_dir, fsync="never", segment_bytes=2048)
    lms, clock = journaled_lms(journal)
    enroll_cohort(lms, LEARNERS[:2])
    for op in ops:
        apply_operation(lms, clock, wal_dir, op)
    journal.sync()
    target = min(probe, journal.last_lsn)
    journal.close()

    expected = ReadModel()
    for record in read_records(wal_dir):
        if record.lsn > target:
            break
        expected.apply(record)
    actual, replayed = as_of(wal_dir, lsn=target)
    assert actual.applied_lsn == expected.applied_lsn
    assert model_analysis_dump(actual) == model_analysis_dump(expected)
    assert json.dumps(actual.overview(), sort_keys=True) == json.dumps(
        expected.overview(), sort_keys=True
    )
    assert replayed <= expected.applied_events
