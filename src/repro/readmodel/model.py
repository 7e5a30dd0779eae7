"""The fold engine: journal events -> incrementally maintained read models.

:class:`ReadModel` consumes :class:`~repro.store.journal.JournalRecord`
objects in LSN order (from a :class:`~repro.store.tail.JournalTailer`,
or a :func:`~repro.store.journal.read_records` replay) and folds each
event into per-exam aggregates:

* the **cohort aggregates** — the cohort matrix, score distribution and
  per-level correct counts of an :class:`~repro.delivery.scoring.
  ExamCohort`, the fold the live LMS owns per exam.  A ``submit`` is
  graded with :func:`~repro.delivery.scoring.score_responses`, as
  ``grade_session`` grades, and folded by the method the LMS folds
  with, so :meth:`ExamReadModel.analysis` equals the serving tier's
  ``live_analysis`` over the same event history by construction;
* the **Bloom blueprint rollup** — static per-level question counts
  crossed with the cohort's per-level correct totals;
* the **specification-table aggregate** — the §4.2.2 concept × level
  table, static per offering.

Every aggregate is O(cohort) or O(exam) in size — never O(history) —
which is what makes the admin query surface O(1) against a checkpoint
regardless of how much journal lies beneath it.

The fold is **deterministic and replayable**: applying the same records
in the same LSN order from any snapshot produces the same state, and
:meth:`ReadModel.apply` ignores records at or below ``applied_lsn`` so
overlapping replays (checkpoint + suffix) are idempotent.  A record
whose fold raises leaves the model as it was.
"""

from __future__ import annotations

import base64
from collections import Counter
from typing import Dict, Sequence, Tuple

from repro.core.cognition import COGNITIVE_LEVELS
from repro.core.columnar import LiveCohortAnalysis
from repro.core.errors import NotFoundError, StoreError
from repro.core.question_analysis import CohortAnalysis
from repro.delivery.scoring import DISTRIBUTION_BUCKETS, ExamCohort
from repro.delivery.scoring import score_responses
from repro.store.events import event_timestamp
from repro.store.journal import JournalRecord

__all__ = ["ReadModel", "ExamReadModel", "SNAPSHOT_FORMAT", "merge_summaries"]

#: on-disk snapshot format tag (see :mod:`repro.readmodel.checkpoint`)
SNAPSHOT_FORMAT = "mine-readmodel-v1"


def _per_level(tagged) -> Counter:
    """How many of ``tagged`` (items or specs) carry each Bloom level."""
    return Counter(
        t.cognition_level.letter for t in tagged if t.cognition_level is not None
    )


class ExamReadModel:
    """One offering: its cohort fold plus what only the read model serves."""

    def __init__(self, exam) -> None:
        self.exam = exam
        self.cohort = ExamCohort(exam)
        self.enrolled: set = set()
        self.submits = 0
        #: static blueprint shape, computed once at offer time
        self._level_questions = _per_level(exam.items)
        self._level_analyzable = _per_level(self.cohort.specs)
        self._spec_table = self._build_spec_table()

    def _build_spec_table(self) -> Dict[str, object]:
        table = self.exam.specification_table()
        return {
            "concepts": list(table.concepts),
            "levels": [level.letter for level in COGNITIVE_LEVELS],
            "cells": {
                concept: [
                    table.count(concept, level) for level in COGNITIVE_LEVELS
                ]
                for concept in table.concepts
            },
            "level_sums": table.level_sums(),
            "total": table.total(),
            "lost_concepts": table.lost_concepts(),
            "pyramid_violations": [
                [low.letter, high.letter]
                for low, high in table.pyramid_violations()
            ],
        }

    # -- views ---------------------------------------------------------------

    def distribution(self) -> Dict[str, object]:
        """The score distribution over the cohort's latest sittings."""
        percents = self.cohort.percents
        return {
            "count": len(percents),
            "buckets": list(self.cohort.buckets),
            "min": min(percents.values()) if percents else None,
            "max": max(percents.values()) if percents else None,
        }

    def blueprint(self) -> Dict[str, object]:
        """The Bloom-level rollup: exam shape × cohort correctness."""
        cohort = len(self.cohort.percents)
        levels = []
        for level in COGNITIVE_LEVELS:
            letter = level.letter
            analyzable = self._level_analyzable[letter]
            levels.append(
                {
                    "letter": letter,
                    "label": level.label,
                    "questions": self._level_questions[letter],
                    "analyzable": analyzable,
                    "attempts": analyzable * cohort,
                    "correct": self.cohort.level_totals[letter],
                }
            )
        return {
            "levels": levels,
            "cohort": cohort,
            "pyramid_violations": list(
                self._spec_table["pyramid_violations"]
            ),
        }

    def spec_table(self) -> Dict[str, object]:
        """The static §4.2.2 specification-table aggregate."""
        return dict(self._spec_table)

    def analysis(self) -> CohortAnalysis:
        """The current cohort's §4.1 analysis (the engine's error when no
        cohort matrix holds this exam)."""
        return self.cohort.analysis()

    def summary(self) -> Dict[str, object]:
        return {
            "exam_id": self.exam.exam_id,
            "title": self.exam.title,
            "questions": len(self.exam.items),
            "analyzable": len(self.cohort.specs),
            "enrolled": len(self.enrolled),
            "submits": self.submits,
            "distribution": self.distribution(),
            "blueprint": self.blueprint(),
            "spec_table": self.spec_table(),
        }


class ReadModel:
    """The whole journal folded into queryable aggregates.

    Not thread-safe on its own — the service tier serializes access.
    """

    def __init__(self) -> None:
        self.applied_lsn = 0
        self.applied_events = 0
        self.last_event_ts = 0.0
        self.events: Dict[str, int] = {}
        self.learners: set = set()
        self.exams: Dict[str, ExamReadModel] = {}
        #: open sittings' answer maps, keyed (learner_id, exam_id)
        self.pending: Dict[Tuple[str, str], Dict[str, object]] = {}

    # -- folding -------------------------------------------------------------

    def apply(self, record: JournalRecord) -> bool:
        """Fold one journal record; False when it was already applied.

        Records must arrive in LSN order; the guard makes overlapping
        replays (a checkpoint plus a suffix that re-reads the boundary)
        idempotent rather than double-counted.
        """
        if record.lsn <= self.applied_lsn:
            return False
        self._fold(record.type, record.data)
        self.applied_lsn = record.lsn
        self.applied_events += 1
        self.events[record.type] = self.events.get(record.type, 0) + 1
        ts = event_timestamp(record.type, record.data)
        if ts > self.last_event_ts:
            self.last_event_ts = ts
        return True

    def apply_all(self, records) -> int:
        """Fold an iterable of records; the number newly applied."""
        applied = 0
        for record in records:
            if self.apply(record):
                applied += 1
        return applied

    def _fold(self, type_: str, data: Dict[str, object]) -> None:
        if type_ == "offer":
            from repro.bank.exambank import exam_from_record

            exam = exam_from_record(data["exam"])
            self.exams[exam.exam_id] = ExamReadModel(exam)
        elif type_ == "register":
            self.learners.add(data["learner_id"])
        elif type_ == "enroll":
            model = self.exams.get(data["exam_id"])
            if model is not None:
                model.enrolled.add(data["learner_id"])
        elif type_ == "start":
            # a fresh sitting: any earlier answers belong to a sitting
            # that was already submitted (or is being re-sat)
            self.pending[(data["learner_id"], data["exam_id"])] = {}
        elif type_ == "answer":
            key = (data["learner_id"], data["exam_id"])
            self.pending.setdefault(key, {})[data["item_id"]] = data[
                "response"
            ]
        elif type_ == "answers":
            key = (data["learner_id"], data["exam_id"])
            answers = self.pending.setdefault(key, {})
            for item_id, response in data["answers"]:
                answers[item_id] = response
        elif type_ == "submit":
            learner_id, exam_id = data["learner_id"], data["exam_id"]
            model = self.exams.get(exam_id)
            if model is not None:
                answers = self.pending.get((learner_id, exam_id), {})
                scores = score_responses(model.exam, answers.get)
                model.cohort.fold(learner_id, scores)
                model.submits += 1
            self.pending.pop((learner_id, exam_id), None)
        elif type_ in ("suspend", "resume", "monitor", "calibrate"):
            # lifecycle-only: counted in the per-type totals.  A
            # calibrate swap changes *selection* parameters, not the
            # response matrix this read model folds.
            pass
        else:
            raise StoreError(
                f"unknown journal event type {type_!r}; "
                f"this read model needs a newer fold"
            )

    # -- views ---------------------------------------------------------------

    def exam(self, exam_id: str) -> ExamReadModel:
        model = self.exams.get(exam_id)
        if model is None:
            raise NotFoundError(
                f"read model has no exam {exam_id!r} "
                f"(not offered before lsn {self.applied_lsn})"
            )
        return model

    def overview(self) -> Dict[str, object]:
        return {
            "applied_lsn": self.applied_lsn,
            "applied_events": self.applied_events,
            "last_event_ts": self.last_event_ts,
            "events": dict(sorted(self.events.items())),
            "learners": len(self.learners),
            "open_sittings": len(self.pending),
            "exams": [
                {
                    "exam_id": exam_id,
                    "submits": model.submits,
                    "enrolled": len(model.enrolled),
                }
                for exam_id, model in sorted(self.exams.items())
            ],
        }

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The full fold state as a JSON-shaped document.

        The cohort matrix rides as its scatter-gather partial — row
        order (submission order) is preserved, which matters: extreme-
        group boundary ties break by row order, so a restored model must
        analyze bit-identically to the one that was snapshotted.
        """
        from repro.bank.exambank import exam_to_record

        exams = {}
        for exam_id, model in self.exams.items():
            exams[exam_id] = {
                "record": exam_to_record(model.exam),
                "partial": (
                    model.cohort.live.export_partial()
                    if model.cohort.live is not None
                    else None
                ),
                "enrolled": sorted(model.enrolled),
                "submits": model.submits,
                "percents": dict(model.cohort.percents),
                "level_correct": {
                    learner: dict(vector)
                    for learner, vector in model.cohort.level_correct.items()
                },
            }
        return {
            "format": SNAPSHOT_FORMAT,
            "applied_lsn": self.applied_lsn,
            "applied_events": self.applied_events,
            "last_event_ts": self.last_event_ts,
            "events": dict(self.events),
            "learners": sorted(self.learners),
            "pending": [
                [learner_id, exam_id, [[k, v] for k, v in answers.items()]]
                for (learner_id, exam_id), answers in self.pending.items()
            ],
            "exams": exams,
        }

    @classmethod
    def from_snapshot(cls, document: Dict[str, object]) -> "ReadModel":
        from repro.bank.exambank import exam_from_record

        if document.get("format") != SNAPSHOT_FORMAT:
            raise StoreError(
                f"unknown read-model snapshot format "
                f"{document.get('format')!r}"
            )
        model = cls()
        model.applied_lsn = int(document["applied_lsn"])
        model.applied_events = int(document.get("applied_events", 0))
        model.last_event_ts = float(document.get("last_event_ts", 0.0))
        model.events = {
            str(k): int(v) for k, v in document.get("events", {}).items()
        }
        model.learners = set(document.get("learners", ()))
        for learner_id, exam_id, pairs in document.get("pending", ()):
            model.pending[(learner_id, exam_id)] = {
                pair[0]: pair[1] for pair in pairs
            }
        for exam_id, state in document.get("exams", {}).items():
            exam_model = ExamReadModel(exam_from_record(state["record"]))
            exam_model.enrolled = set(state.get("enrolled", ()))
            exam_model.submits = int(state.get("submits", 0))
            cohort = exam_model.cohort
            levels = state.get("level_correct", {})
            for learner, percent in state.get("percents", {}).items():
                vector = levels.get(learner, {})
                cohort.set_latest(
                    learner,
                    float(percent),
                    {str(k): int(v) for k, v in vector.items()},
                )
            partial = state.get("partial")
            if cohort.live is not None and partial is not None:
                _restore_matrix(cohort.live, cohort.specs, partial)
            model.exams[exam_id] = exam_model
        return model


def _restore_matrix(
    live: LiveCohortAnalysis, specs, partial: Dict[str, object]
) -> None:
    """Rebuild a cohort matrix from its partial, preserving row order.

    Unlike :func:`~repro.core.columnar.merge_partials` this must NOT
    canonical-sort: a single shard's row order (submission order) is the
    tie-break order for extreme-group boundaries, and restore has to
    reproduce the snapshotted model exactly.  The fold only ever codes
    the exam's own option labels, so the codes are adopted as written.
    """
    if partial["labels"] != [list(spec.options) for spec in specs]:
        raise StoreError("read-model snapshot codes labels outside the exam")
    ids = [str(identifier) for identifier in partial["examinee_ids"]]
    if ids:
        live.extend_codes(ids, base64.b64decode(partial["codes_b64"]))


def merge_summaries(
    summaries: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge per-shard exam summaries into one cohort-wide summary.

    Shards own disjoint learners, so the integer aggregates simply sum;
    min/max combine; the static exam shape (questions, spec table,
    blueprint levels) is identical on every shard and taken from the
    first.
    """
    if not summaries:
        raise NotFoundError("no shard summaries to merge")
    merged = {
        "exam_id": summaries[0]["exam_id"],
        "title": summaries[0]["title"],
        "questions": summaries[0]["questions"],
        "analyzable": summaries[0]["analyzable"],
        "enrolled": sum(s["enrolled"] for s in summaries),
        "submits": sum(s["submits"] for s in summaries),
        "spec_table": summaries[0]["spec_table"],
    }
    buckets = [0] * DISTRIBUTION_BUCKETS
    count = 0
    lows = []
    highs = []
    for summary in summaries:
        distribution = summary["distribution"]
        for index, value in enumerate(distribution["buckets"]):
            buckets[index] += value
        count += distribution["count"]
        if distribution["min"] is not None:
            lows.append(distribution["min"])
        if distribution["max"] is not None:
            highs.append(distribution["max"])
    merged["distribution"] = {
        "count": count,
        "buckets": buckets,
        "min": min(lows) if lows else None,
        "max": max(highs) if highs else None,
    }
    cohort = sum(s["blueprint"]["cohort"] for s in summaries)
    levels = []
    for index, level in enumerate(summaries[0]["blueprint"]["levels"]):
        levels.append(
            {
                "letter": level["letter"],
                "label": level["label"],
                "questions": level["questions"],
                "analyzable": level["analyzable"],
                "attempts": level["analyzable"] * cohort,
                "correct": sum(
                    s["blueprint"]["levels"][index]["correct"]
                    for s in summaries
                ),
            }
        )
    merged["blueprint"] = {
        "levels": levels,
        "cohort": cohort,
        "pyramid_violations": list(
            summaries[0]["blueprint"]["pyramid_violations"]
        ),
    }
    return merged
