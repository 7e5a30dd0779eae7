"""Machine-readable export of assessment reports.

The text rendering in :mod:`repro.core.report` is for teachers; this
module serializes the same analysis to plain JSON-compatible dicts (and
CSV rows for the §4.1.1 table) so downstream tools — gradebooks,
dashboards, the LMS — can consume it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List

from repro.core.question_analysis import CohortAnalysis
from repro.core.report import AssessmentReport

__all__ = [
    "analysis_to_dict",
    "report_to_dict",
    "report_to_json",
    "number_representation_csv",
]


def analysis_to_dict(cohort: CohortAnalysis) -> Dict[str, object]:
    """A :class:`CohortAnalysis` as a JSON-compatible dict: what the
    served analyses answer and the report's ``questions`` part."""
    questions: List[Dict[str, object]] = []
    for question in cohort.questions:
        questions.append(
            {
                "number": question.number,
                "p_high": question.p_high,
                "p_low": question.p_low,
                "difficulty": question.difficulty,
                "discrimination": question.discrimination,
                "signal": question.signal.value,
                "rules_fired": list(question.rules.fired_rules),
                "statuses": [
                    str(status) for status in question.rules.statuses
                ],
                "advice": question.advice.render(),
                "distraction": (
                    question.distraction.describe()
                    if question.distraction is not None
                    else None
                ),
                "option_matrix": {
                    "options": list(question.matrix.options),
                    "high": dict(question.matrix.high),
                    "low": dict(question.matrix.low),
                    "correct": question.matrix.correct,
                },
            }
        )
    return {
        "questions": questions,
        "high_group": list(cohort.high_group),
        "low_group": list(cohort.low_group),
        "scores": dict(cohort.scores),
    }


def report_to_dict(report: AssessmentReport) -> Dict[str, object]:
    """The full report as a JSON-compatible dict."""
    payload: Dict[str, object] = {
        "title": report.title,
        **analysis_to_dict(report.cohort),
    }
    if report.concept_rows:
        payload["concept_performance"] = [
            {
                "concept": row.concept,
                "question_numbers": list(row.question_numbers),
                "mean_difficulty": row.mean_difficulty,
                "mean_discrimination": row.mean_discrimination,
                "high_group_rate": row.high_group_rate,
                "low_group_rate": row.low_group_rate,
                "needs_remedial_course": row.needs_remedial_course,
                "needs_reteaching": row.needs_reteaching,
            }
            for row in report.concept_rows
        ]
    if report.reliability is not None:
        payload["reliability"] = {
            "kr20": report.reliability,
            "sem": report.sem,
        }
    if report.time_analysis is not None:
        payload["time_analysis"] = {
            "series": [
                {"time_seconds": point.time_seconds, "answered": point.answered}
                for point in report.time_analysis.series
            ],
            "time_limit_seconds": report.time_analysis.time_limit_seconds,
            "fraction_finished_in_limit": (
                report.time_analysis.fraction_finished_in_limit
            ),
            "time_enough": report.time_analysis.time_enough,
        }
    if report.score_difficulty is not None:
        payload["score_difficulty"] = [
            {
                "score": band.score,
                "examinees": band.examinees,
                "mean_difficulty_of_correct": band.mean_difficulty_of_correct,
            }
            for band in report.score_difficulty.bands
        ]
    if report.spec_table is not None:
        table = report.spec_table
        payload["specification_table"] = {
            "concepts": list(table.concepts),
            "level_sums": table.level_sums(),
            "lost_concepts": table.lost_concepts(),
            "pyramid_violations": [
                [low.name.lower(), high.name.lower()]
                for low, high in table.pyramid_violations()
            ],
        }
    return payload


def report_to_json(report: AssessmentReport, indent: int = 2) -> str:
    """The full report as a JSON string (validated round-trippable)."""
    return json.dumps(report_to_dict(report), indent=indent)


def number_representation_csv(report: AssessmentReport) -> str:
    """The §4.1.1 table as CSV text with the paper's column headers."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["No", "PH", "PL", "D=PH-PL", "P=(PH+PL)/2", "signal"])
    for question in report.cohort.questions:
        writer.writerow(
            [
                question.number,
                f"{question.p_high:.4f}",
                f"{question.p_low:.4f}",
                f"{question.discrimination:.4f}",
                f"{question.difficulty:.4f}",
                question.signal.value,
            ]
        )
    return buffer.getvalue()
