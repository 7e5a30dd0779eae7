"""Simulation workloads: whole cohorts sitting whole exams.

This is the layer the benchmarks drive.  It wires the response model,
the time model, and the exam/analysis bridge together:

* :func:`simulate_sitting_data` — a cohort answers an exam's
  choice-style questions; returns the analysis-ready
  :class:`~repro.core.question_analysis.ExamineeResponses` plus
  per-examinee answer-time series;
* :func:`classroom_exam` + :func:`classroom_parameters` — a 10-question
  exam whose items are *constructed* to exhibit the paper's quality
  patterns (good items, a weak distractor, an ambiguous key, guessing),
  so the benches can show each rule and signal firing on realistic data;
* :func:`pre_post_cohorts` — pre-teaching and post-teaching sittings for
  the Instructional Sensitivity Index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.cognition import CognitionLevel
from repro.core.grouping import GroupSplit
from repro.core.question_analysis import ExamineeResponses, QuestionSpec
from repro.core.rules import DEFAULT_SPREAD_THRESHOLD
from repro.core.signals import DEFAULT_POLICY, SignalPolicy
from repro.exams.authoring import ExamBuilder
from repro.exams.exam import Exam
from repro.items.choice import MultipleChoiceItem
from repro.sim.learner_model import (
    ItemParameters,
    SimulatedLearner,
    sample_selection,
)
from repro.sim.population import make_population
from repro.sim.response_time import cumulative_answer_times, sample_item_time

__all__ = [
    "SimulatedSittingData",
    "simulate_sitting_data",
    "classroom_exam",
    "classroom_adaptive_exam",
    "classroom_parameters",
    "pre_post_cohorts",
]


@dataclass
class SimulatedSittingData:
    """Everything a simulated administration produced."""

    responses: List[ExamineeResponses]
    answer_times: List[List[float]]
    specs: List[QuestionSpec]

    @property
    def durations(self) -> List[float]:
        """Total sitting duration per examinee (last commit time)."""
        return [times[-1] if times else 0.0 for times in self.answer_times]

    def analyze(
        self,
        split: Optional[GroupSplit] = None,
        policy: SignalPolicy = DEFAULT_POLICY,
        spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
    ):
        """Run the §4.1 analysis over the simulated sitting.

        Routed through :func:`repro.core.question_analysis.analyze_cohort`,
        the production analysis.  ``policy`` and ``spread_threshold`` are
        forwarded (the kwargs-threading audit found them silently
        unreachable from simulated workloads).
        """
        from repro.core.question_analysis import analyze_cohort

        return analyze_cohort(
            self.responses,
            self.specs,
            split=split if split is not None else GroupSplit(),
            policy=policy,
            spread_threshold=spread_threshold,
        )


def simulate_sitting_data(
    exam: Exam,
    parameters: Dict[str, ItemParameters],
    learners: Sequence[SimulatedLearner],
    seed: int = 0,
    base_seconds: float = 45.0,
    omit_rate: float = 0.0,
    sigma: float = 0.35,
) -> SimulatedSittingData:
    """Simulate every learner answering every analyzable item.

    ``parameters`` maps item ids to their IRT parameters; items without
    an entry get defaults.  Selections, times, and omissions are all
    drawn from one seeded RNG in a per-learner loop, so runs are
    reproducible and byte-stable across releases.  ``sigma`` is the
    lognormal spread of the per-item time model.

    :func:`repro.sim.vectorized.simulate_sitting_arrays` is the batch
    generator over the same inputs: array-native output, ~10-100x
    faster at cohort scale, and a different cohort from the same seed
    (distributionally — not bit- — equivalent, see docs/simulation.md).
    """
    with obs.span(
        "sim.generate",
        engine="scalar",
        learners=len(learners),
        questions=len(exam.analyzable_items()),
    ):
        rng = random.Random(seed)
        specs = exam.question_specs()
        items = exam.analyzable_items()
        responses: List[ExamineeResponses] = []
        answer_times: List[List[float]] = []
        default = ItemParameters()
        for learner in learners:
            selections: List[Optional[str]] = []
            item_times: List[float] = []
            for item, spec in zip(items, specs):
                params = parameters.get(item.item_id, default)
                selections.append(
                    sample_selection(
                        rng, learner, params, spec.options, spec.correct,
                        omit_rate=omit_rate,
                    )
                )
                item_times.append(
                    sample_item_time(
                        rng, learner, params,
                        base_seconds=base_seconds, sigma=sigma,
                    )
                )
            commits = cumulative_answer_times(item_times)
            responses.append(
                ExamineeResponses.of(
                    learner.learner_id,
                    selections,
                    duration_seconds=commits[-1] if commits else 0.0,
                )
            )
            answer_times.append(commits)
    obs.count("sim.learners.generated", len(responses))
    return SimulatedSittingData(
        responses=responses, answer_times=answer_times, specs=specs
    )


# --------------------------------------------------------------------------
# The classroom scenario used throughout the benches
# --------------------------------------------------------------------------

_CONCEPTS = ("sorting", "hashing", "trees")
_LEVELS = (
    CognitionLevel.KNOWLEDGE,
    CognitionLevel.KNOWLEDGE,
    CognitionLevel.COMPREHENSION,
    CognitionLevel.COMPREHENSION,
    CognitionLevel.APPLICATION,
    CognitionLevel.KNOWLEDGE,
    CognitionLevel.COMPREHENSION,
    CognitionLevel.APPLICATION,
    CognitionLevel.ANALYSIS,
    CognitionLevel.KNOWLEDGE,
)


def classroom_exam(question_count: int = 10) -> Exam:
    """A multiple-choice exam over three concepts with tagged levels."""
    builder = ExamBuilder("classroom-mid", "Classroom Midterm").time_limit(
        45 * 60
    )
    for index in range(question_count):
        concept = _CONCEPTS[index % len(_CONCEPTS)]
        level = _LEVELS[index % len(_LEVELS)]
        builder.add_item(
            MultipleChoiceItem.build(
                f"q{index + 1:02d}",
                f"Question {index + 1} on {concept}?",
                ["alpha", "beta", "gamma", "delta", "epsilon"],
                correct_index=index % 5,
                subject=concept,
                cognition_level=level,
            )
        )
    return builder.build()


def classroom_adaptive_exam(
    question_count: int = 10,
    max_items: Optional[int] = None,
    se_target: float = 0.35,
) -> Exam:
    """The classroom exam with an adaptive (CAT) policy attached.

    The policy pins the classroom scenario's engineered IRT parameters
    (:func:`classroom_parameters`), so adaptive item selection over this
    exam is deterministic and exercises the same item pathologies the
    fixed-form benches rely on.  ``max_items`` defaults to half the pool
    (floor 3) — the point of an adaptive sitting is to stop early.
    """
    from repro.adaptive.online import AdaptivePolicy

    exam = classroom_exam(question_count)
    cap = max_items if max_items is not None else max(3, question_count // 2)
    exam.adaptive = AdaptivePolicy(
        max_items=cap,
        min_items=min(3, cap),
        se_target=se_target,
        parameters=classroom_parameters(question_count),
    )
    exam.validate()
    return exam


def classroom_parameters(question_count: int = 10) -> Dict[str, ItemParameters]:
    """Item parameters engineered to show the paper's quality patterns.

    * q1, q4, q7, ... — healthy items (good a, centred b);
    * q2 — a *dead distractor*: one wrong option has zero attraction
      (Rule 1's "the option's allure is low");
    * q3 — a *flat* item: near-zero discrimination with guessing, so D
      stays out of the green band (Table 3 "fix"/"eliminate" territory);
    * q5 — a *too-hard guessing* item: b far above the cohort, flat a —
      both groups choose uniformly (Rules 3/4);
    * q6 — a *weak* item: low a, lands in the yellow band.
    """
    exam = classroom_exam(question_count)
    parameters: Dict[str, ItemParameters] = {}
    for index, item in enumerate(exam.items):
        item_id = item.item_id
        role = index % 10
        if role == 1:
            wrong = [o for o in item.labels if o != item.correct_label]
            attractions = {option: 1.0 for option in wrong}
            attractions[wrong[0]] = 0.0  # the dead distractor
            parameters[item_id] = ItemParameters(
                a=1.4, b=-0.2, attractions=attractions
            )
        elif role == 2:
            parameters[item_id] = ItemParameters(a=0.2, b=4.5, c=0.2)
        elif role == 4:
            parameters[item_id] = ItemParameters(a=0.25, b=4.0, c=0.0)
        elif role == 5:
            parameters[item_id] = ItemParameters(a=0.55, b=0.4)
        else:
            parameters[item_id] = ItemParameters(a=1.6, b=-0.5 + 0.25 * role)
    return parameters


def pre_post_cohorts(
    exam: Exam,
    parameters: Dict[str, ItemParameters],
    size: int = 60,
    teaching_gain: float = 1.2,
    seed: int = 7,
    base_seconds: float = 45.0,
    omit_rate: float = 0.0,
    sigma: float = 0.35,
) -> Tuple[SimulatedSittingData, SimulatedSittingData]:
    """Simulate the same class before and after teaching (§3.4 ISI).

    The post-teaching cohort is the same population with every ability
    shifted up by ``teaching_gain`` logits.  ``base_seconds``,
    ``omit_rate`` and ``sigma`` are threaded through to *both* sittings
    (they used to be silently dropped, so ISI studies could not model
    omission or pacing at all).
    """
    before = make_population(size, mean_ability=-0.6, seed=seed)
    after = [
        SimulatedLearner(
            learner_id=learner.learner_id,
            ability=learner.ability + teaching_gain,
            pace=learner.pace,
        )
        for learner in before
    ]
    pre = simulate_sitting_data(
        exam,
        parameters,
        before,
        seed=seed + 1,
        base_seconds=base_seconds,
        omit_rate=omit_rate,
        sigma=sigma,
    )
    post = simulate_sitting_data(
        exam,
        parameters,
        after,
        seed=seed + 2,
        base_seconds=base_seconds,
        omit_rate=omit_rate,
        sigma=sigma,
    )
    return pre, post
