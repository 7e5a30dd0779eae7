"""Helpers shared by the durable-store suite: a three-question exam, a
journaled LMS that offers it, enrolled cohorts, and the comparison of a
recovered state with a committed ``fingerprint.json``.

They live here, not in ``conftest.py``: pytest imports every directory's
``conftest.py`` as the one module ``conftest``, so ``from conftest import
...`` binds whichever directory's was imported last.
"""

import json
import math

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


def fingerprint_mismatches(actual, expected, path="fingerprint"):
    """Where a ``state_fingerprint`` differs from a committed one.

    The fixtures were recorded on Python 3.11, and 3.12 computes some
    adaptive floats (theta, standard errors) one ulp apart, so float
    leaves match within ``math.isclose(rel_tol=1e-12)``; every other
    leaf, and the shape, must be equal exactly.  Returns the differing
    paths (empty when the states match).
    """
    actual = json.loads(json.dumps(actual))  # tuples, keys as JSON has them
    return _mismatches(actual, expected, path)


def _mismatches(actual, expected, path):
    if type(actual) is not type(expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, float):
        if math.isclose(actual, expected, rel_tol=1e-12):
            return []
    elif isinstance(expected, dict):
        if actual.keys() == expected.keys():
            return [
                found
                for key in expected
                for found in _mismatches(
                    actual[key], expected[key], f"{path}.{key}"
                )
            ]
    elif isinstance(expected, list):
        if len(actual) == len(expected):
            return [
                found
                for index, pair in enumerate(zip(actual, expected))
                for found in _mismatches(*pair, f"{path}[{index}]")
            ]
    elif actual == expected:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]
