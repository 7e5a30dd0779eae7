"""Single-question statistics and analysis (paper §4.1).

This module implements the full §4.1 pipeline over a cohort's responses:

1. arrange examinees by total score and split the extreme groups
   (:mod:`repro.core.grouping`);
2. build each question's option matrix (Table 1);
3. compute PH, PL, D = PH − PL and P = (PH + PL)/2 — the "number
   representation" of §4.1.1;
4. run the four diagnostic rules (§4.1.2) and classify the light signal
   (Table 3) — the "signal representation";
5. attach teacher advice (:mod:`repro.core.advice`).

The cohort input is deliberately simple: a list of
:class:`ExamineeResponses` (one selected option label, or ``None`` for
skipped, per question) plus the answer key.  Higher layers
(:mod:`repro.delivery`, :mod:`repro.sim`) produce this shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.advice import Advice, advise
from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.grouping import GroupSplit
from repro.core.indices import (
    DistractionReport,
    discrimination_index,
    distraction_analysis,
    split_difficulty_index,
)
from repro.core.rules import (
    DEFAULT_SPREAD_THRESHOLD,
    OptionMatrix,
    RuleOutcome,
    evaluate_rules,
)
from repro.core.signals import DEFAULT_POLICY, Signal, SignalPolicy

__all__ = [
    "ExamineeResponses",
    "QuestionSpec",
    "QuestionAnalysis",
    "CohortAnalysis",
    "analyze_cohort",
    "reference_analyze_cohort",
    "analyze_matrix",
    "number_representation_rows",
    "render_number_representation",
]


@dataclass(frozen=True)
class ExamineeResponses:
    """One examinee's sitting: an identifier and one selection per question.

    ``selections[i]`` is the option label the examinee chose on question
    ``i`` (``None`` when skipped).  ``duration_seconds`` optionally records
    how long the sitting took (used by the whole-test time analysis).
    """

    examinee_id: str
    selections: Tuple[Optional[str], ...]
    duration_seconds: Optional[float] = None

    @classmethod
    def of(
        cls,
        examinee_id: str,
        selections: Sequence[Optional[str]],
        duration_seconds: Optional[float] = None,
    ) -> "ExamineeResponses":
        """Convenience constructor from any selection sequence."""
        return cls(examinee_id, tuple(selections), duration_seconds)


@dataclass(frozen=True)
class QuestionSpec:
    """What the analysis needs to know about one question.

    ``options`` — the option labels in display order; ``correct`` — the
    key; ``subject``/``cognition_level`` — optional tags consumed by the
    whole-test analyses (two-way specification table)."""

    options: Tuple[str, ...]
    correct: str
    subject: str = ""
    cognition_level: Optional[object] = None  # CognitionLevel, kept loose here


@dataclass(frozen=True)
class QuestionAnalysis:
    """The complete §4.1 result for one question."""

    number: int
    matrix: OptionMatrix
    p_high: float
    p_low: float
    difficulty: float
    discrimination: float
    signal: Signal
    rules: RuleOutcome
    advice: Advice
    distraction: Optional[DistractionReport] = None

    def number_row(self) -> Tuple[int, float, float, float, float]:
        """One row of the §4.1.1 table: (No, PH, PL, D, P)."""
        return (
            self.number,
            self.p_high,
            self.p_low,
            self.discrimination,
            self.difficulty,
        )


@dataclass
class CohortAnalysis:
    """Analysis of a whole sitting: per-question results plus group info."""

    questions: List[QuestionAnalysis]
    high_group: List[str] = field(default_factory=list)
    low_group: List[str] = field(default_factory=list)
    scores: Dict[str, int] = field(default_factory=dict)

    @property
    def signals(self) -> List[Signal]:
        """Per-question light signals, in question order."""
        return [question.signal for question in self.questions]

    def question(self, number: int) -> QuestionAnalysis:
        """The analysis for 1-based question ``number``."""
        for analysis in self.questions:
            if analysis.number == number:
                return analysis
        raise AnalysisError(f"no question number {number}")


def analyze_matrix(
    matrix: OptionMatrix,
    high_size: int,
    low_size: int,
    number: int = 1,
    policy: SignalPolicy = DEFAULT_POLICY,
    spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
) -> QuestionAnalysis:
    """Analyse one question given its option matrix and the group sizes.

    This is the entry point the paper's own worked examples use: Table 1
    style counts with known group sizes (e.g. the class of 44 with groups
    of 11).  PH and PL are computed against the *group sizes*, matching
    the paper's arithmetic (PH = 10/11 for question no. 2).
    """
    if high_size <= 0 or low_size <= 0:
        raise AnalysisError(
            f"group sizes must be positive, got high={high_size}, low={low_size}"
        )
    p_high = matrix.high[matrix.correct] / high_size
    p_low = matrix.low[matrix.correct] / low_size
    difficulty = split_difficulty_index(p_high, p_low)
    discrimination = discrimination_index(p_high, p_low)
    signal = policy.classify(discrimination)
    rules = evaluate_rules(matrix, spread_threshold=spread_threshold)
    distraction = distraction_analysis(
        high_counts=matrix.high,
        low_counts=matrix.low,
        correct_option=matrix.correct,
    )
    return QuestionAnalysis(
        number=number,
        matrix=matrix,
        p_high=p_high,
        p_low=p_low,
        difficulty=difficulty,
        discrimination=discrimination,
        signal=signal,
        rules=rules,
        advice=advise(signal, rules.matches),
        distraction=distraction,
    )


def analyze_cohort(
    responses: Sequence[ExamineeResponses],
    questions: Sequence[QuestionSpec],
    split: GroupSplit = GroupSplit(),
    policy: SignalPolicy = DEFAULT_POLICY,
    spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
) -> CohortAnalysis:
    """Run the full §4.1 pipeline over a cohort's raw responses.

    Scores each examinee (one point per correct selection), splits the
    high/low groups with ``split`` (paper default: top and bottom 25%),
    builds each question's option matrix from group selections, and
    analyses every question.

    The work is one sweep over the cohort's interned option codes
    (:class:`~repro.core.columnar.ResponseMatrix`).  A question whose
    labels overflow the one-byte code falls back to
    :func:`reference_analyze_cohort`, counted as
    ``analyze.columnar.fallbacks``; the two give field-for-field equal
    results (the differential suite in ``tests/core`` enforces this).
    """
    from repro.core.columnar import ColumnarCapacityError, ResponseMatrix

    if not responses:
        raise EmptyCohortError("no examinee responses to analyse")
    if not questions:
        raise AnalysisError("no questions to analyse")
    try:
        matrix = ResponseMatrix(questions)
        matrix.extend(responses)
    except ColumnarCapacityError:
        obs.count("analyze.columnar.fallbacks")
        return reference_analyze_cohort(
            responses,
            questions,
            split=split,
            policy=policy,
            spread_threshold=spread_threshold,
        )
    return matrix.analyze(
        split=split, policy=policy, spread_threshold=spread_threshold
    )


def reference_analyze_cohort(
    responses: Sequence[ExamineeResponses],
    questions: Sequence[QuestionSpec],
    split: GroupSplit = GroupSplit(),
    policy: SignalPolicy = DEFAULT_POLICY,
    spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
) -> CohortAnalysis:
    """The paper-faithful per-object pipeline behind :func:`analyze_cohort`.

    Walks the response objects examinee by examinee and question by
    question.  :func:`analyze_cohort` uses it for cohorts the columnar
    layout cannot hold, and the differential, golden and property
    suites use it as their oracle.
    """
    with obs.span(
        "analyze.reference",
        examinees=len(responses),
        questions=len(questions),
    ):
        if not responses:
            raise EmptyCohortError("no examinee responses to analyse")
        if not questions:
            raise AnalysisError("no questions to analyse")
        width = len(questions)
        for response in responses:
            if len(response.selections) != width:
                raise AnalysisError(
                    f"examinee {response.examinee_id!r} answered "
                    f"{len(response.selections)} questions; "
                    f"exam has {width}"
                )
        seen_ids = set()
        for response in responses:
            if response.examinee_id in seen_ids:
                raise AnalysisError(
                    f"duplicate examinee id {response.examinee_id!r} "
                    f"in cohort"
                )
            seen_ids.add(response.examinee_id)

        scores: Dict[str, int] = {}
        for response in responses:
            scores[response.examinee_id] = sum(
                1
                for selection, spec in zip(response.selections, questions)
                if selection == spec.correct
            )

        high, low = split.split(
            list(responses), lambda examinee: scores[examinee.examinee_id]
        )
        high_ids = [examinee.examinee_id for examinee in high]
        low_ids = [examinee.examinee_id for examinee in low]

        analyses: List[QuestionAnalysis] = []
        for index, spec in enumerate(questions):
            matrix = OptionMatrix(
                options=spec.options,
                high=_option_counts(high, index, spec.options),
                low=_option_counts(low, index, spec.options),
                correct=spec.correct,
            )
            analyses.append(
                analyze_matrix(
                    matrix,
                    high_size=len(high),
                    low_size=len(low),
                    number=index + 1,
                    policy=policy,
                    spread_threshold=spread_threshold,
                )
            )
        return CohortAnalysis(
            questions=analyses,
            high_group=high_ids,
            low_group=low_ids,
            scores=scores,
        )


def _option_counts(
    group: Sequence[ExamineeResponses],
    question_index: int,
    options: Tuple[str, ...],
) -> Mapping[str, int]:
    counts = {option: 0 for option in options}
    for examinee in group:
        selection = examinee.selections[question_index]
        if selection is None:
            continue
        if selection not in counts:
            raise AnalysisError(
                f"examinee {examinee.examinee_id!r} selected unknown option "
                f"{selection!r} on question {question_index + 1}"
            )
        counts[selection] += 1
    return counts


# --------------------------------------------------------------------------
# §4.1.1 "number representation" table
# --------------------------------------------------------------------------


def number_representation_rows(
    analyses: Sequence[QuestionAnalysis],
) -> List[Tuple[int, float, float, float, float]]:
    """The (No, PH, PL, D, P) rows of §4.1.1's table."""
    return [analysis.number_row() for analysis in analyses]


def render_number_representation(analyses: Sequence[QuestionAnalysis]) -> str:
    """Render the §4.1.1 table as aligned text.

    Columns follow the paper exactly: No, PH, PL, D=PH-PL, P=(PH+PL)/2.
    """
    header = ("No", "PH", "PL", "D=PH-PL", "P=(PH+PL)/2")
    rows = [
        (
            str(number),
            f"{p_high:.2f}",
            f"{p_low:.2f}",
            f"{d:.2f}",
            f"{p:.2f}",
        )
        for number, p_high, p_low, d, p in number_representation_rows(analyses)
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)
