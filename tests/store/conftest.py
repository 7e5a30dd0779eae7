"""Shared fixtures for the durable-store suite."""

import pytest

from v1log import FORMATS

from repro.delivery.clock import ManualClock
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem
from repro.lms.learners import Learner
from repro.lms.lms import Lms


def build_exam(exam_id="ex1", questions=3, resumable=True, time_limit=600):
    builder = ExamBuilder(exam_id, f"Exam {exam_id}").resumable(resumable)
    if time_limit is not None:
        builder.time_limit(time_limit)
    for index in range(1, questions + 1):
        builder.add_item(
            MultipleChoiceItem.build(
                f"q{index}", f"Q{index}?", ["a", "b", "c"], correct_index=0
            )
        )
    return builder.build()


def journaled_lms(journal, start=100.0):
    """A ManualClock LMS with ``journal`` attached, one exam offered."""
    clock = ManualClock(start)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(build_exam())
    return lms, clock


def enroll_cohort(lms, learner_ids, exam_id="ex1"):
    for learner_id in learner_ids:
        lms.register_learner(
            Learner(learner_id=learner_id, name=learner_id.title())
        )
        lms.enroll(learner_id, exam_id)


@pytest.fixture(params=FORMATS, ids=lambda f: f"format{f}")
def fmt(request):
    """A segment format the reader decodes: 1 (v1 JSON lines), 2 (binary)."""
    return request.param
