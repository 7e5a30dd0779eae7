"""Builders shared by the read-model suite.

The differential tests need an exam that exercises every scoring path
the fold replicates: analyzable multiple-choice items (they feed the
cohort matrix), a true/false item, and a non-analyzable essay (it
contributes points but no matrix column).

They live here, not in ``conftest.py``: pytest imports every directory's
``conftest.py`` as the one module ``conftest``, so ``from conftest import
...`` binds whichever directory's was imported last.
"""

from repro.core.metadata import CognitionLevel
from repro.delivery.clock import ManualClock
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem
from repro.items.essay import EssayItem
from repro.items.truefalse import TrueFalseItem
from repro.lms.learners import Learner
from repro.lms.lms import Lms

LEVELS = list(CognitionLevel)


def build_exam(exam_id="ex1", questions=4):
    """A mixed-item exam with subjects and cognition levels tagged."""
    builder = ExamBuilder(exam_id, f"Exam {exam_id}")
    builder.resumable(True).time_limit(600)
    for index in range(1, questions + 1):
        builder.add_item(
            MultipleChoiceItem.build(
                f"q{index}",
                f"Q{index}?",
                ["a", "b", "c"],
                correct_index=(index - 1) % 3,
                subject=f"concept-{index % 2}",
                cognition_level=LEVELS[index % len(LEVELS)],
            )
        )
    builder.add_item(
        TrueFalseItem(
            item_id="tf1",
            question="True?",
            correct_value=True,
            subject="concept-0",
            cognition_level=LEVELS[0],
        )
    )
    builder.add_item(
        EssayItem(item_id="essay1", question="Discuss.", max_points=5.0)
    )
    return builder.build()


def journaled_lms(journal, start=100.0, questions=4):
    """A ManualClock LMS with ``journal`` attached, one exam offered."""
    clock = ManualClock(start)
    lms = Lms(clock=clock, journal=journal)
    lms.offer_exam(build_exam(questions=questions))
    return lms, clock


def enroll_cohort(lms, learner_ids, exam_id="ex1"):
    for learner_id in learner_ids:
        lms.register_learner(
            Learner(learner_id=learner_id, name=learner_id.title())
        )
        lms.enroll(learner_id, exam_id)
