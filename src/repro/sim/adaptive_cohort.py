"""Vectorized adaptive cohorts — whole populations sitting CAT exams.

The scalar way to simulate an adaptive cohort is to loop
:class:`~repro.adaptive.online.AdaptiveSession` per learner: each step
selects from the information table, folds the response into a
61-point log-posterior, and re-estimates theta — Python-loop work that
is O(learners x steps x grid) in interpreter time.  This module runs
the *whole cohort* one step at a time instead:

* the cohort's log-posteriors live as one ``(N, grid)`` matrix;
* per-step selection gathers each active learner's nearest info-table
  row and takes a masked argmax (numpy's first-max tie-break equals the
  table's strict-``>`` scan over sorted ids);
* the EAP update (exp-normalize, mean, SD) is two matrix reductions.

Response draws are **pre-sampled per (learner, item)** from the same
per-learner seeded streams regardless of driver, so the scalar loop and
the array driver administer from identical randomness; under a fixed
seed either is fully deterministic.  The array driver runs when numpy
imports; the scalar loop keeps the entry point working without it.

The result duck-types :class:`~repro.sim.workloads.SimulatedSittingData`
(``responses`` / ``answer_times`` / ``specs`` / ``analyze()``) with the
never-administered cells left as omissions, plus the adaptive extras the
benches and recovery tests want: the per-learner item sequence, the
(theta, SE) trajectory, and the stopping reason.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.errors import AnalysisError
from repro.core.grouping import GroupSplit
from repro.core.question_analysis import ExamineeResponses, QuestionSpec
from repro.exams.exam import Exam
from repro.sim.learner_model import SimulatedLearner, probability_correct
from repro.sim.vectorized import HAVE_NUMPY, _np

__all__ = ["AdaptiveCohortData", "simulate_adaptive_cohort"]


class AdaptiveCohortData:
    """Everything a simulated adaptive administration produced.

    Duck-compatible with :class:`~repro.sim.workloads.
    SimulatedSittingData` — ``responses`` carry ``None`` for items the
    policy never served (the calibration-matrix convention), so the
    §4.1 analysis and the 2PL calibration loop consume adaptive cohorts
    unchanged.
    """

    def __init__(
        self,
        specs: Sequence[QuestionSpec],
        responses: List[ExamineeResponses],
        answer_times: List[List[float]],
        item_sequences: List[List[str]],
        response_flags: List[List[bool]],
        trajectories: List[List[Tuple[float, float]]],
        thetas: List[float],
        standard_errors: List[float],
        stop_reasons: List[str],
    ) -> None:
        self.specs = list(specs)
        self.responses = responses
        self.answer_times = answer_times
        #: the server-would-have-chosen item order per learner
        self.item_sequences = item_sequences
        #: correctness per administered item, same order
        self.response_flags = response_flags
        #: (theta, SE) after each response, per learner
        self.trajectories = trajectories
        #: final ability estimate / SE per learner
        self.thetas = thetas
        self.standard_errors = standard_errors
        #: ``max_items`` / ``pool_exhausted`` / ``se_target`` per learner
        self.stop_reasons = stop_reasons

    def __len__(self) -> int:
        return len(self.responses)

    @property
    def durations(self) -> List[float]:
        """Total sitting duration per examinee (last commit time)."""
        return [times[-1] if times else 0.0 for times in self.answer_times]

    @property
    def items_administered(self) -> int:
        """Total answers across the cohort (the CAT saving metric)."""
        return sum(len(sequence) for sequence in self.item_sequences)

    def analyze(self, split: Optional[GroupSplit] = None, **kwargs):
        """Run the §4.1 analysis over the administered subset."""
        from repro.core.question_analysis import analyze_cohort

        return analyze_cohort(
            self.responses,
            self.specs,
            split=split if split is not None else GroupSplit(),
            **kwargs,
        )


def _predraw(
    learner: SimulatedLearner, seed: int, width: int, sigma: float
) -> Tuple[List[float], List[float], List[float]]:
    """Per-(learner, item) uniforms and time noise, in table-column order.

    Seeding is per-learner (the loadgen convention), and consumption
    order is fixed by the table's sorted item ids — NOT by the
    administration order — so both drivers, and any re-run, draw
    identical randomness no matter which items the policy picks.
    """
    rng = random.Random(f"{seed}:adaptive:{learner.learner_id}")
    u_correct = [rng.random() for _ in range(width)]
    u_distract = [rng.random() for _ in range(width)]
    time_noise = [rng.lognormvariate(0.0, sigma) for _ in range(width)]
    return u_correct, u_distract, time_noise


def _distractor_tables(
    specs: Sequence[QuestionSpec],
    spec_of: Dict[str, int],
    item_ids: Sequence[str],
    pool,
) -> Tuple[List[Optional[List[str]]], List[Optional[List[float]]]]:
    """Per table column: wrong-option labels + cumulative attractions."""
    labels: List[Optional[List[str]]] = []
    bounds: List[Optional[List[float]]] = []
    for item_id in item_ids:
        spec = specs[spec_of[item_id]]
        wrong = [option for option in spec.options if option != spec.correct]
        weights = [
            pool[item_id].attractions.get(option, 1.0) for option in wrong
        ]
        cumulative = list(accumulate(weights))
        if not wrong or cumulative[-1] <= 0:
            labels.append(None)
            bounds.append(None)
        else:
            labels.append(wrong)
            bounds.append(cumulative)
    return labels, bounds


def simulate_adaptive_cohort(
    exam: Exam,
    learners: Sequence[SimulatedLearner],
    seed: int = 0,
    base_seconds: float = 45.0,
    sigma: float = 0.35,
) -> AdaptiveCohortData:
    """Every learner sits ``exam`` under its adaptive policy.

    ``exam.adaptive`` must be set (see :func:`~repro.sim.workloads.
    classroom_adaptive_exam`); the same :class:`~repro.adaptive.online.
    ItemInformationTable` the delivery tier would install drives
    selection here.  With numpy the cohort runs step-synchronously as
    arrays; without it, one :class:`~repro.adaptive.online.
    AdaptiveSession` per learner.  Both drivers consume the same
    pre-sampled randomness and give identical sequences.
    """
    from repro.adaptive.online import ItemInformationTable

    policy = exam.adaptive
    if policy is None:
        raise AnalysisError(
            f"exam {exam.exam_id!r} has no adaptive policy; "
            f"set exam.adaptive or use classroom_adaptive_exam()"
        )
    if sigma < 0:
        raise AnalysisError(f"sigma must be non-negative, got {sigma}")
    if base_seconds <= 0:
        raise AnalysisError(
            f"base_seconds must be positive, got {base_seconds}"
        )

    pool = policy.pool_for(exam)
    table = ItemInformationTable.build(
        pool,
        grid_points=policy.grid_points,
        grid_half_width=policy.grid_half_width,
        prior_sd=policy.prior_sd,
    )
    item_ids = table.item_ids
    width = len(item_ids)
    specs = exam.question_specs()
    spec_of = {
        item.item_id: index
        for index, item in enumerate(exam.analyzable_items())
    }
    draws = [_predraw(learner, seed, width, sigma) for learner in learners]

    with obs.span(
        "sim.adaptive",
        backend="numpy" if HAVE_NUMPY else "stdlib",
        learners=len(learners),
        pool=width,
    ):
        drive = _drive_numpy if HAVE_NUMPY else _drive_scalar
        sequences, flags, trajectories, thetas, errors = drive(
            table, policy, pool, learners, draws
        )
    obs.count("sim.adaptive.learners", len(learners))

    # decode sequences into analysis-ready objects: selections for
    # administered items, omissions (None) everywhere else
    distractors, bounds = _distractor_tables(specs, spec_of, item_ids, pool)
    column = table._index
    responses: List[ExamineeResponses] = []
    answer_times: List[List[float]] = []
    reasons: List[str] = []
    for index, learner in enumerate(learners):
        _, u_distract, time_noise = draws[index]
        selections: List[Optional[str]] = [None] * len(specs)
        commits: List[float] = []
        elapsed = 0.0
        for item_id, correct in zip(sequences[index], flags[index]):
            col = column[item_id]
            spec = specs[spec_of[item_id]]
            if correct or distractors[col] is None:
                chosen = spec.correct
            else:
                cumulative = bounds[col]
                draw = u_distract[col] * cumulative[-1]
                picked = min(
                    bisect_right(cumulative, draw), len(cumulative) - 1
                )
                chosen = distractors[col][picked]
            selections[spec_of[item_id]] = chosen
            gap = max(-1.0, min(1.0, pool[item_id].b - learner.ability))
            elapsed += (
                base_seconds
                * learner.pace
                * math.exp(0.25 * gap)
                * time_noise[col]
            )
            commits.append(elapsed)
        responses.append(
            ExamineeResponses.of(
                learner.learner_id,
                selections,
                duration_seconds=commits[-1] if commits else 0.0,
            )
        )
        answer_times.append(commits)
        count = len(sequences[index])
        if count >= policy.max_items:
            reasons.append("max_items")
        elif count >= width:
            reasons.append("pool_exhausted")
        else:
            reasons.append("se_target")
    return AdaptiveCohortData(
        specs=specs,
        responses=responses,
        answer_times=answer_times,
        item_sequences=sequences,
        response_flags=flags,
        trajectories=trajectories,
        thetas=thetas,
        standard_errors=errors,
        stop_reasons=reasons,
    )


def _drive_scalar(table, policy, pool, learners, draws):
    """The stdlib driver: one :class:`AdaptiveSession` per learner."""
    from repro.adaptive.online import AdaptiveSession

    column = table._index
    sequences: List[List[str]] = []
    flags: List[List[bool]] = []
    trajectories: List[List[Tuple[float, float]]] = []
    thetas: List[float] = []
    errors: List[float] = []
    for index, learner in enumerate(learners):
        u_correct = draws[index][0]
        session = AdaptiveSession.for_exam(table, policy)
        session.run(
            lambda item_id: u_correct[column[item_id]]
            < probability_correct(learner.ability, pool[item_id])
        )
        sequences.append(list(session.administered))
        flags.append(list(session.responses))
        trajectories.append(list(session.trajectory))
        thetas.append(session.theta)
        errors.append(session.standard_error)
    return sequences, flags, trajectories, thetas, errors


def _drive_numpy(table, policy, pool, learners, draws):
    """The numpy driver: the whole cohort advances one step per pass."""
    np = _np
    count = len(learners)
    width = len(table.item_ids)
    grid = np.asarray(table.grid)
    info = np.asarray(table.info)  # grid x items
    logp_t = np.asarray(table.logp).T  # items x grid (gather by column)
    logq_t = np.asarray(table.logq).T
    posterior = np.tile(np.asarray(table.log_prior), (count, 1))
    administered = np.zeros((count, width), dtype=bool)
    steps = np.zeros(count, dtype=np.int64)
    ability = np.asarray([learner.ability for learner in learners])
    u_correct = np.asarray([entry[0] for entry in draws])
    # P(correct | true ability) over the whole (learner, item) grid,
    # the same clipped 3PL the scalar probability_correct computes
    a = np.asarray([pool[item_id].a for item_id in table.item_ids])
    b = np.asarray([pool[item_id].b for item_id in table.item_ids])
    c = np.asarray([pool[item_id].c for item_id in table.item_ids])
    z = np.clip(a[None, :] * (ability[:, None] - b[None, :]), -700.0, 700.0)
    p_true = c + (1.0 - c) / (1.0 + np.exp(-z))

    def eap(matrix):
        peak = matrix.max(axis=1, keepdims=True)
        weights = np.exp(matrix - peak)
        total = weights.sum(axis=1)
        mean = (weights @ grid) / total
        spread = grid[None, :] - mean[:, None]
        variance = (weights * spread**2).sum(axis=1) / total
        return mean, np.sqrt(np.maximum(variance, 1e-12))

    theta, se = eap(posterior)
    lo, step_size = table._lo, table._step
    last = len(table.grid) - 1
    sequences: List[List[str]] = [[] for _ in range(count)]
    flags: List[List[bool]] = [[] for _ in range(count)]
    trajectories: List[List[Tuple[float, float]]] = [
        [] for _ in range(count)
    ]
    active = np.ones(count, dtype=bool)
    while active.any():
        rows = np.nonzero(active)[0]
        k = np.rint((theta[rows] - lo) / step_size).astype(np.int64)
        np.clip(k, 0, last, out=k)
        candidates = info[k]  # active x items
        candidates = np.where(administered[rows], -np.inf, candidates)
        # first max == the table's strict-> scan over sorted item ids
        chosen = candidates.argmax(axis=1)
        correct = u_correct[rows, chosen] < p_true[rows, chosen]
        posterior[rows] += np.where(
            correct[:, None], logp_t[chosen], logq_t[chosen]
        )
        administered[rows, chosen] = True
        steps[rows] += 1
        new_theta, new_se = eap(posterior[rows])
        theta[rows] = new_theta
        se[rows] = new_se
        for offset, learner_row in enumerate(rows):
            sequences[learner_row].append(table.item_ids[chosen[offset]])
            flags[learner_row].append(bool(correct[offset]))
            trajectories[learner_row].append(
                (float(new_theta[offset]), float(new_se[offset]))
            )
        stopped = (
            (steps[rows] >= policy.max_items)
            | (steps[rows] >= width)
            | ((steps[rows] >= policy.min_items)
               & (se[rows] <= policy.se_target))
        )
        active[rows[stopped]] = False
    return (
        sequences,
        flags,
        trajectories,
        theta.tolist(),
        se.tolist(),
    )
