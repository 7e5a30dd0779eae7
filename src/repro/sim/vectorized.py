"""Vectorized cohort simulation — :mod:`repro.sim` at array speed.

:func:`repro.sim.workloads.simulate_sitting_data` samples every selection
and response time in a per-learner, per-item Python loop and materializes
one :class:`~repro.core.question_analysis.ExamineeResponses` object plus
string lists per learner — object-at-a-time generation that cannot feed
the roadmap's million-learner workloads.  This module generates a whole
cohort's sitting as arrays instead:

* 3PL correctness is one vectorized logistic over the ``(N, Q)``
  ability/difficulty grid;
* distractor draws go through per-question cumulative-attraction tables
  and ``searchsorted`` (a zero-attraction distractor is structurally
  unreachable — its cumulative bound is flat, so no draw lands on it);
* omissions are a mask applied after selection, so ``omit_rate`` is
  honored exactly in expectation;
* lognormal item times compose into cumulative commit times with one
  ``cumsum``;

all from one seeded :class:`numpy.random.Generator`.  The result is a
:class:`VectorizedSittingData`: option *codes* (the columnar engine's
native encoding) plus scores and commit times, which flow straight into
:meth:`repro.core.columnar.ResponseMatrix.from_arrays` — per-learner
Python objects are only materialized if a legacy consumer asks for
``.responses``.

Vectorized draws cannot be bit-identical to the scalar engine's
``random.Random`` stream (different generators, different draw order), so
equivalence is *distributional*, enforced by
``tests/sim/test_vectorized.py``: per-item P, option-choice frequencies,
score moments, and time medians agree within tight tolerances on the
same parameters.  Determinism under a fixed seed is exact.

A pure-stdlib fallback keeps every entry point working on no-numpy
installs (same array-native outputs, scalar-speed generation), and
:func:`simulate_sharded` streams arbitrarily large cohorts through a
:class:`~repro.core.columnar.ResponseMatrix` or
:class:`~repro.core.columnar.LiveCohortAnalysis` in bounded-memory
shards, optionally fanning generation out across a process pool.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.columnar import SKIP, ResponseMatrix
from repro.core.errors import AnalysisError
from repro.core.grouping import GroupSplit
from repro.core.kernels import load_numpy
from repro.core.question_analysis import ExamineeResponses, QuestionSpec
from repro.exams.exam import Exam
from repro.sim.learner_model import (
    ItemParameters,
    SimulatedLearner,
    probability_correct,
)

# numpy is the fast path (the stdlib fallback stays fully working); this
# module is the batch engine, so it loads numpy as it loads
_np = load_numpy()

#: Whether the vectorized backend is available (else the stdlib fallback
#: generates the same array-native outputs at scalar speed).
HAVE_NUMPY = _np is not None

#: Lognormal spread of the per-item time model (matches the scalar
#: :func:`repro.sim.response_time.sample_item_time` default).
DEFAULT_TIME_SIGMA = 0.35

#: Lognormal spread of learner pace in generated shard populations
#: (matches :func:`repro.sim.population.make_population`).
_PACE_SIGMA = 0.25

__all__ = [
    "HAVE_NUMPY",
    "VectorizedSittingData",
    "SimShard",
    "simulate_sitting_arrays",
    "simulate_sharded",
]


def _check_common(seed: int, base_seconds: float, omit_rate: float, sigma: float) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise AnalysisError(f"vectorized sim seed must be a non-negative int, got {seed!r}")
    if base_seconds <= 0:
        raise AnalysisError(f"base_seconds must be positive, got {base_seconds}")
    if not 0.0 <= omit_rate < 1.0:
        raise AnalysisError(f"omit_rate must be in [0, 1), got {omit_rate}")
    if sigma < 0:
        raise AnalysisError(f"sigma must be non-negative, got {sigma}")


class _ItemTables:
    """Per-question parameter tables shared by both generation backends.

    For each question: the correct option's code, the distractor codes in
    option order, and the *cumulative* attraction bounds those codes are
    drawn against.  ``None`` entries mean "no drawable distractor" (a
    single-option item, or every attraction zero) — the sampler keeps the
    key, exactly like the scalar engine.
    """

    def __init__(
        self, specs: Sequence[QuestionSpec], params: Sequence[ItemParameters]
    ) -> None:
        self.specs = list(specs)
        self.params = list(params)
        self.correct_codes: List[int] = []
        self.distractor_codes: List[Optional[List[int]]] = []
        self.distractor_bounds: List[Optional[List[float]]] = []
        for spec, param in zip(self.specs, self.params):
            if spec.correct not in spec.options:
                raise AnalysisError(
                    f"correct option {spec.correct!r} not in {tuple(spec.options)}"
                )
            self.correct_codes.append(spec.options.index(spec.correct))
            codes = [
                index
                for index, option in enumerate(spec.options)
                if option != spec.correct
            ]
            weights = [
                param.attractions.get(spec.options[index], 1.0)
                for index in codes
            ]
            bounds = list(accumulate(weights))
            if not codes or bounds[-1] <= 0:
                self.distractor_codes.append(None)
                self.distractor_bounds.append(None)
            else:
                self.distractor_codes.append(codes)
                self.distractor_bounds.append(bounds)
        if _np is not None:
            self._np_correct = _np.array(self.correct_codes, dtype=_np.uint8)
            self._np_a = _np.array([p.a for p in self.params], dtype=_np.float64)
            self._np_b = _np.array([p.b for p in self.params], dtype=_np.float64)
            self._np_c = _np.array([p.c for p in self.params], dtype=_np.float64)
            self._np_dist = [
                None if codes is None else _np.array(codes, dtype=_np.uint8)
                for codes in self.distractor_codes
            ]
            self._np_bounds = [
                None if bounds is None else _np.asarray(bounds, dtype=_np.float64)
                for bounds in self.distractor_bounds
            ]

    def __getstate__(self) -> dict:
        # shards travel to pool workers as (specs, params); the derived
        # arrays are cheap to rebuild and may be numpy-shaped, so strip
        # everything but the construction inputs
        return {"specs": self.specs, "params": self.params}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["specs"], state["params"])


class VectorizedSittingData:
    """Array-native sitting data — duck-compatible with
    :class:`~repro.sim.workloads.SimulatedSittingData`.

    The cohort lives as the columnar engine's own encoding: ``codes`` is
    the row-major ``N x Q`` byte buffer of option indices (:data:`SKIP`
    for omissions), ``scores`` the per-learner totals, and commit times a
    single ``(N, Q)`` array.  ``analyze()`` hands the buffer to
    :meth:`ResponseMatrix.from_arrays` — no per-learner objects exist
    anywhere on that path.  The ``responses`` / ``answer_times``
    properties materialize the legacy object shapes lazily for consumers
    that still want them (the CLI report builder, the reference pipeline).
    """

    def __init__(
        self,
        specs: Sequence[QuestionSpec],
        examinee_ids: Sequence[str],
        codes: bytes,
        commit_times,
        scores: List[int],
    ) -> None:
        self.specs = list(specs)
        self.examinee_ids = list(examinee_ids)
        self.codes = codes
        self.scores = scores
        self._commit = commit_times
        self._responses: Optional[List[ExamineeResponses]] = None
        self._answer_times: Optional[List[List[float]]] = None

    def __len__(self) -> int:
        return len(self.examinee_ids)

    @property
    def width(self) -> int:
        return len(self.specs)

    @property
    def durations(self) -> List[float]:
        """Total sitting duration per examinee (last commit time)."""
        if _np is not None and isinstance(self._commit, _np.ndarray):
            if self._commit.shape[1] == 0:
                return [0.0] * len(self.examinee_ids)
            return self._commit[:, -1].tolist()
        return [times[-1] if times else 0.0 for times in self._commit]

    @property
    def answer_times(self) -> List[List[float]]:
        """Per-examinee commit-time series (materialized lazily)."""
        if self._answer_times is None:
            if _np is not None and isinstance(self._commit, _np.ndarray):
                self._answer_times = self._commit.tolist()
            else:
                self._answer_times = self._commit
        return self._answer_times

    @property
    def responses(self) -> List[ExamineeResponses]:
        """Per-learner objects, decoded from the code buffer on first use."""
        if self._responses is None:
            width = self.width
            options = [spec.options for spec in self.specs]
            durations = self.durations
            decoded: List[ExamineeResponses] = []
            for index, identifier in enumerate(self.examinee_ids):
                row = self.codes[index * width : (index + 1) * width]
                selections = tuple(
                    None if code == SKIP else options[question][code]
                    for question, code in enumerate(row)
                )
                decoded.append(
                    ExamineeResponses(identifier, selections, durations[index])
                )
            self._responses = decoded
        return self._responses

    def to_matrix(self) -> ResponseMatrix:
        """The cohort as a freshly built columnar :class:`ResponseMatrix`."""
        return ResponseMatrix.from_arrays(
            self.specs, self.examinee_ids, self.codes
        )

    def analyze(
        self,
        split: Optional[GroupSplit] = None,
        policy=None,
        spread_threshold: Optional[float] = None,
    ):
        """Run the §4.1 analysis; the columnar engine consumes the code
        buffer directly (no object materialization).

        ``policy`` and ``spread_threshold`` forward to the engine like
        :meth:`SimulatedSittingData.analyze` (kwargs-threading audit:
        they were previously only reachable on the object path).
        """
        from repro.core.rules import DEFAULT_SPREAD_THRESHOLD
        from repro.core.signals import DEFAULT_POLICY

        return self.to_matrix().analyze(
            split=split if split is not None else GroupSplit(),
            policy=policy if policy is not None else DEFAULT_POLICY,
            spread_threshold=(
                spread_threshold
                if spread_threshold is not None
                else DEFAULT_SPREAD_THRESHOLD
            ),
        )


# --------------------------------------------------------------------------
# Generation backends
# --------------------------------------------------------------------------


def _generate_numpy(
    tables: _ItemTables,
    abilities,
    paces,
    rng,
    base_seconds: float,
    omit_rate: float,
    sigma: float,
):
    """One cohort as arrays: codes (bytes), scores, (N, Q) commit times."""
    count = len(abilities)
    width = len(tables.specs)
    theta = _np.asarray(abilities, dtype=_np.float64)
    pace = _np.asarray(paces, dtype=_np.float64)
    if width == 0:
        return b"", [0] * count, _np.zeros((count, 0))
    # P(correct | theta) on the whole grid; clip the exponent like the
    # scalar probability_correct guards math.exp
    z = _np.clip(
        tables._np_a[None, :] * (theta[:, None] - tables._np_b[None, :]),
        -700.0,
        700.0,
    )
    p_correct = tables._np_c + (1.0 - tables._np_c) / (1.0 + _np.exp(-z))
    # fixed draw order: omit grid, correctness grid, distractor grid,
    # time grid — the stream depends only on (N, Q, seed)
    u_omit = rng.random((count, width))
    correct_mask = rng.random((count, width)) < p_correct
    u_dist = rng.random((count, width))
    codes = _np.empty((count, width), dtype=_np.uint8)
    codes[:] = tables._np_correct[None, :]
    for question in range(width):
        dist_codes = tables._np_dist[question]
        if dist_codes is None:  # nothing drawable: the key stands
            continue
        bounds = tables._np_bounds[question]
        rows = ~correct_mask[:, question]
        if not rows.any():
            continue
        draws = u_dist[rows, question] * bounds[-1]
        picked = _np.searchsorted(bounds, draws, side="right")
        # a draw rounding up to exactly bounds[-1] would index one past
        # the end; clamp to the final distractor (its true share)
        _np.minimum(picked, len(bounds) - 1, out=picked)
        codes[rows, question] = dist_codes[picked]
    if omit_rate:
        codes[u_omit < omit_rate] = SKIP
    scores = (codes == tables._np_correct[None, :]).sum(axis=1).tolist()
    gap = _np.clip(tables._np_b[None, :] - theta[:, None], -1.0, 1.0)
    times = (
        base_seconds
        * pace[:, None]
        * _np.exp(0.25 * gap)
        * _np.exp(rng.normal(0.0, sigma, (count, width)))
    )
    return codes.tobytes(), scores, _np.cumsum(times, axis=1)


def _generate_python(
    tables: _ItemTables,
    abilities,
    paces,
    rng: random.Random,
    base_seconds: float,
    omit_rate: float,
    sigma: float,
):
    """Stdlib fallback: same outputs and sampling semantics, loop speed."""
    width = len(tables.specs)
    codes = bytearray()
    scores: List[int] = []
    commits: List[List[float]] = []
    for ability, pace in zip(abilities, paces):
        score = 0
        for question in range(width):
            params = tables.params[question]
            if omit_rate and rng.random() < omit_rate:
                codes.append(SKIP)
                continue
            if rng.random() < probability_correct(ability, params):
                codes.append(tables.correct_codes[question])
                score += 1
                continue
            dist_codes = tables.distractor_codes[question]
            if dist_codes is None:
                codes.append(tables.correct_codes[question])
                score += 1
                continue
            bounds = tables.distractor_bounds[question]
            draw = rng.random() * bounds[-1]
            picked = min(bisect_right(bounds, draw), len(bounds) - 1)
            codes.append(dist_codes[picked])
        scores.append(score)
        elapsed = 0.0
        row_times: List[float] = []
        for question in range(width):
            params = tables.params[question]
            gap = max(-1.0, min(1.0, params.b - ability))
            factor = math.exp(gap * 0.25)
            elapsed += (
                base_seconds
                * pace
                * factor
                * rng.lognormvariate(0.0, sigma)
            )
            row_times.append(elapsed)
        commits.append(row_times)
    return bytes(codes), scores, commits


def _exam_tables(
    exam: Exam, parameters: Mapping[str, ItemParameters]
) -> Tuple[List[QuestionSpec], List[ItemParameters]]:
    specs = exam.question_specs()
    default = ItemParameters()
    params = [
        parameters.get(item.item_id, default)
        for item in exam.analyzable_items()
    ]
    return specs, params


def simulate_sitting_arrays(
    exam: Exam,
    parameters: Mapping[str, ItemParameters],
    learners: Sequence[SimulatedLearner],
    seed: int = 0,
    base_seconds: float = 45.0,
    omit_rate: float = 0.0,
    sigma: float = DEFAULT_TIME_SIGMA,
) -> VectorizedSittingData:
    """Simulate a whole cohort's sitting as arrays (the batch engine).

    The drop-in vectorized counterpart of
    :func:`repro.sim.workloads.simulate_sitting_data` — same exam,
    parameters, and learner inputs, but the output is array-native
    (:class:`VectorizedSittingData`) and generation is one numpy pass.
    Runs are deterministic under a fixed seed; they are *distributionally*
    (not bit-) equivalent to the scalar engine on the same parameters.
    """
    _check_common(seed, base_seconds, omit_rate, sigma)
    specs, params = _exam_tables(exam, parameters)
    tables = _ItemTables(specs, params)
    ids = [learner.learner_id for learner in learners]
    abilities = [learner.ability for learner in learners]
    paces = [learner.pace for learner in learners]
    backend = "stdlib" if _np is None else "numpy"
    with obs.span(
        "sim.generate",
        engine="vectorized",
        backend=backend,
        learners=len(ids),
        questions=len(specs),
    ):
        # the whole cohort is one generation unit — a single shard in
        # the sharded driver's terms, so profiles of either path show
        # the same span shape
        with obs.span("sim.shard", index=0, learners=len(ids)):
            if _np is None:
                codes, scores, commits = _generate_python(
                    tables, abilities, paces, random.Random(seed),
                    base_seconds, omit_rate, sigma,
                )
            else:
                codes, scores, commits = _generate_numpy(
                    tables, abilities, paces, _np.random.default_rng(seed),
                    base_seconds, omit_rate, sigma,
                )
    obs.count("sim.shards.generated")
    obs.count("sim.learners.generated", len(ids))
    return VectorizedSittingData(specs, ids, codes, commits, scores)


# --------------------------------------------------------------------------
# Sharded streaming driver
# --------------------------------------------------------------------------


@dataclass
class SimShard:
    """One generated chunk of a sharded cohort.

    Carries only bounded, array-native state: ids, the code buffer, the
    per-learner scores, and total sitting durations (full commit-time
    matrices are deliberately not kept — at 1M x 50 they alone would be
    ~400 MB).
    """

    start: int
    examinee_ids: List[str]
    codes: bytes
    scores: List[int]
    durations: List[float]


def _generate_shard(task: tuple) -> SimShard:
    """Pool-friendly worker: one task tuple in, one :class:`SimShard` out.

    Each shard draws from its own generator keyed on ``(seed, index)``,
    so the serial and process-pool drivers produce identical cohorts.
    """
    (
        specs,
        params,
        start,
        count,
        seed,
        shard_index,
        base_seconds,
        omit_rate,
        sigma,
        mean_ability,
        sd_ability,
        id_prefix,
    ) = task
    tables = _ItemTables(specs, params)
    ids = [f"{id_prefix}-{start + offset:07d}" for offset in range(count)]
    if _np is None:
        rng = random.Random((seed + 1) * 0x9E3779B1 + shard_index)
        abilities = [rng.gauss(mean_ability, sd_ability) for _ in range(count)]
        paces = [rng.lognormvariate(0.0, _PACE_SIGMA) for _ in range(count)]
        codes, scores, commits = _generate_python(
            tables, abilities, paces, rng, base_seconds, omit_rate, sigma
        )
        durations = [row[-1] if row else 0.0 for row in commits]
    else:
        rng = _np.random.default_rng([seed, shard_index])
        abilities = rng.normal(mean_ability, sd_ability, count)
        paces = rng.lognormal(0.0, _PACE_SIGMA, count)
        codes, scores, commits = _generate_numpy(
            tables, abilities, paces, rng, base_seconds, omit_rate, sigma
        )
        durations = (
            commits[:, -1].tolist() if commits.shape[1] else [0.0] * count
        )
    return SimShard(start, ids, codes, scores, durations)


def simulate_sharded(
    exam: Exam,
    parameters: Mapping[str, ItemParameters],
    size: int,
    *,
    shard_size: int = 10_000,
    seed: int = 0,
    base_seconds: float = 45.0,
    omit_rate: float = 0.0,
    sigma: float = DEFAULT_TIME_SIGMA,
    mean_ability: float = 0.0,
    sd_ability: float = 1.0,
    id_prefix: str = "shard",
    workers: Optional[int] = None,
    into=None,
    on_shard: Optional[Callable[[SimShard], None]] = None,
):
    """Stream a ``size``-learner cohort through the analysis in shards.

    Generates the population *and* its responses ``shard_size`` learners
    at a time (each shard seeded independently from ``(seed, index)``)
    and folds every shard into ``into`` via ``extend_codes`` — a
    :class:`ResponseMatrix` (default: a fresh one, returned) or a
    :class:`LiveCohortAnalysis`.  Peak memory is bounded by one shard's
    working set plus the 1-byte-per-cell matrix: no full-cohort list of
    per-learner Python objects ever exists, which is what lets a
    1M x 50 cohort fit where the object pipeline cannot.

    ``workers`` > 1 fans shard *generation* out across a process pool
    (ingestion stays in-process and ordered); results are identical to
    the serial driver because shard seeding is positional.  ``on_shard``
    observes each shard after ingestion — for progress reporting or
    side-channel statistics (e.g. accumulating duration quantiles).
    """
    if size < 1:
        raise AnalysisError(f"cohort size must be positive, got {size}")
    if shard_size < 1:
        raise AnalysisError(f"shard_size must be positive, got {shard_size}")
    if sd_ability < 0:
        raise AnalysisError(f"ability sd must be non-negative, got {sd_ability}")
    _check_common(seed, base_seconds, omit_rate, sigma)
    specs, params = _exam_tables(exam, parameters)
    _ItemTables(specs, params)  # validate parameters before any work
    sink = into if into is not None else ResponseMatrix(specs)
    if getattr(sink, "width", len(specs)) != len(specs):
        raise AnalysisError(
            f"sink expects {sink.width} questions; exam has {len(specs)}"
        )
    tasks = [
        (
            specs,
            params,
            start,
            min(shard_size, size - start),
            seed,
            index,
            base_seconds,
            omit_rate,
            sigma,
            mean_ability,
            sd_ability,
            id_prefix,
        )
        for index, start in enumerate(range(0, size, shard_size))
    ]
    with obs.span(
        "sim.sharded",
        learners=size,
        questions=len(specs),
        shards=len(tasks),
        workers=workers or 1,
    ):
        if workers is not None and workers > 1 and len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                shards = pool.map(_generate_shard, tasks)
                for index, shard in enumerate(shards):
                    # generation ran in a worker process; this span times
                    # the in-process half (receive + ingest) of the shard
                    with obs.span(
                        "sim.shard", index=index, learners=len(shard.examinee_ids)
                    ):
                        sink.extend_codes(shard.examinee_ids, shard.codes)
                        if on_shard is not None:
                            on_shard(shard)
                    obs.count("sim.shards.generated")
        else:
            for index, task in enumerate(tasks):
                with obs.span(
                    "sim.shard", index=index, learners=task[3]
                ):
                    shard = _generate_shard(task)
                    sink.extend_codes(shard.examinee_ids, shard.codes)
                    if on_shard is not None:
                        on_shard(shard)
                obs.count("sim.shards.generated")
    obs.count("sim.learners.generated", size)
    obs.gauge("sim.cohort_size", size)
    return sink
