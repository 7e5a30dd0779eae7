"""Property: an adaptive sitting replayed from the WAL is bit-identical.

Replay determinism is the load-bearing invariant of journaled CAT: the
journal records only ``(item_id, response)`` pairs, so recovery re-runs
the selection and estimation pipeline — any float drift or tie-break
divergence would silently fork the administered sequence. Hypothesis
drives random interleaved cohorts and asserts the recovered sessions
match the live ones exactly: item sequence, responses, and the full
``(theta, SE)`` trajectory, compared as raw floats, plus the global
``state_fingerprint``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from store_helpers import build_exam, enroll_cohort

from repro.adaptive.online import AdaptivePolicy
from repro.core.errors import AssessmentError
from repro.delivery.clock import ManualClock
from repro.lms.lms import Lms
from repro.store.journal import Journal
from repro.store.recovery import recover, state_fingerprint

LEARNERS = ("amy", "bob", "cal")


def adaptive_exam(questions=6, max_items=4):
    exam = build_exam(exam_id="ex1", questions=questions)
    exam.adaptive = AdaptivePolicy(
        max_items=max_items, min_items=min(2, max_items), se_target=0.45
    )
    exam.validate()
    return exam


# one cohort = interleaved per-learner actions; answers carry only a
# correctness bit — the policy decides which item it lands on
actions = st.lists(
    st.tuples(
        st.sampled_from(LEARNERS),
        st.sampled_from(["start", "answer", "submit"]),
        st.booleans(),
    ),
    max_size=40,
)


def apply_action(lms, learner_id, verb, correct):
    try:
        if verb == "start":
            lms.start_exam(learner_id, "ex1")
        elif verb == "answer":
            status = lms.next_item(learner_id, "ex1")
            if status["done"]:
                return
            lms.answer(
                learner_id, "ex1", status["item_id"],
                "A" if correct else "B",
            )
        else:
            lms.submit(learner_id, "ex1")
    except AssessmentError:
        pass  # illegal in current state — the property only replays acks


def adaptive_transcripts(lms):
    """(sequence, responses, trajectory) per open adaptive sitting."""
    transcripts = {}
    for learner_id in LEARNERS:
        try:
            sitting = lms.sitting(learner_id, "ex1")
        except AssessmentError:
            continue
        if getattr(sitting, "adaptive", None) is None:
            continue
        session = sitting.adaptive
        transcripts[learner_id] = (
            list(session.administered),
            list(session.responses),
            list(session.trajectory),
        )
    return transcripts


class TestAdaptiveReplayBitIdentity:
    @settings(max_examples=50, deadline=None)
    @given(operations=actions)
    def test_recovered_sittings_match_exactly(self, tmp_path_factory, operations):
        wal_dir = tmp_path_factory.mktemp("wal")
        clock = ManualClock(100.0)
        journal = Journal.open(wal_dir, fsync="never", segment_bytes=2048)
        lms = Lms(clock=clock, journal=journal)
        lms.offer_exam(adaptive_exam())
        enroll_cohort(lms, LEARNERS)
        for learner_id, verb, correct in operations:
            clock.advance(1.0)
            apply_action(lms, learner_id, verb, correct)
        journal.sync()

        recovered = recover(wal_dir).lms
        # the fingerprint hashes raw trajectory floats — equality here
        # IS bit-identity, not approximate agreement
        assert state_fingerprint(recovered) == state_fingerprint(lms)
        live = adaptive_transcripts(lms)
        replayed = adaptive_transcripts(recovered)
        assert replayed == live
        for sequence, responses, trajectory in live.values():
            assert len(sequence) == len(responses) == len(trajectory)
