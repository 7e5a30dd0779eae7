"""Tests for the vectorized cohort simulation engine (repro.sim.vectorized).

Vectorized draws cannot be bit-identical to the scalar engine's
``random.Random`` stream, so correctness is proven three ways:

* determinism — a fixed seed reproduces the cohort exactly;
* distributional equivalence — per-item P, option-choice frequencies,
  score moments, and time medians agree with the scalar engine within
  tight tolerances on the same parameters (three scenarios, including
  omit-heavy and dead-distractor parameterizations);
* golden invariants — a dead distractor stays dead, ``omit_rate`` is
  honored exactly in expectation, commit times increase.
"""

import statistics

import pytest

from repro.core.columnar import SKIP, LiveCohortAnalysis
from repro.core.errors import AnalysisError
from repro.core.question_analysis import (
    analyze_cohort,
    reference_analyze_cohort,
)
from repro.sim.learner_model import ItemParameters
from repro.sim.population import make_population
from repro.sim.vectorized import simulate_sharded, simulate_sitting_arrays
from repro.sim.workloads import (
    classroom_exam,
    classroom_parameters,
    simulate_sitting_data,
)


def option_frequencies(data, specs):
    """Per question: {option_or_None: fraction} over the whole cohort."""
    counts = [dict.fromkeys(tuple(spec.options) + (None,), 0) for spec in specs]
    for response in data.responses:
        for question, selection in enumerate(response.selections):
            counts[question][selection] += 1
    total = len(data.responses)
    return [
        {label: count / total for label, count in table.items()}
        for table in counts
    ]


def score_list(data):
    if hasattr(data, "scores"):
        return list(data.scores)
    return [
        sum(
            1
            for selection, spec in zip(response.selections, data.specs)
            if selection == spec.correct
        )
        for response in data.responses
    ]


def item_time_medians(data):
    """Median per-item duration (successive commit differences)."""
    width = len(data.specs)
    per_item = [[] for _ in range(width)]
    for times in data.answer_times:
        previous = 0.0
        for question, commit in enumerate(times):
            per_item[question].append(commit - previous)
            previous = commit
    return [statistics.median(series) for series in per_item]


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        learners = make_population(80, seed=4)
        a = simulate_sitting_arrays(exam, parameters, learners, seed=9)
        b = simulate_sitting_arrays(exam, parameters, learners, seed=9)
        assert a.codes == b.codes
        assert a.scores == b.scores
        assert a.examinee_ids == b.examinee_ids
        assert a.answer_times == b.answer_times

    def test_different_seed_differs(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        learners = make_population(80, seed=4)
        a = simulate_sitting_arrays(exam, parameters, learners, seed=9)
        b = simulate_sitting_arrays(exam, parameters, learners, seed=10)
        assert a.codes != b.codes

    def test_bad_inputs_rejected(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        learners = make_population(8, seed=1)
        with pytest.raises(AnalysisError):
            simulate_sitting_arrays(
                exam, parameters, learners, seed=0, omit_rate=1.0
            )
        with pytest.raises(AnalysisError):
            simulate_sitting_arrays(
                exam, parameters, learners, seed=0, base_seconds=0
            )
        with pytest.raises(AnalysisError):
            simulate_sitting_arrays(exam, parameters, learners, seed=-1)


class TestCompatibility:
    """VectorizedSittingData duck-types SimulatedSittingData."""

    def setup_method(self):
        self.exam = classroom_exam()
        self.parameters = classroom_parameters()
        self.learners = make_population(60, seed=2)
        self.data = simulate_sitting_arrays(
            self.exam, self.parameters, self.learners, seed=3
        )

    def test_shapes(self):
        assert len(self.data.responses) == 60
        assert all(len(r.selections) == 10 for r in self.data.responses)
        assert all(len(t) == 10 for t in self.data.answer_times)
        assert len(self.data.durations) == 60
        assert all(d > 0 for d in self.data.durations)

    def test_times_increase_within_sitting(self):
        for times in self.data.answer_times:
            assert times == sorted(times)

    def test_durations_equal_last_commit(self):
        assert self.data.durations == [t[-1] for t in self.data.answer_times]
        for response, duration in zip(self.data.responses, self.data.durations):
            assert response.duration_seconds == duration

    def test_scores_match_decoded_responses(self):
        expected = [
            sum(
                1
                for selection, spec in zip(response.selections, self.data.specs)
                if selection == spec.correct
            )
            for response in self.data.responses
        ]
        assert self.data.scores == expected

    def test_array_analysis_equals_object_analysis(self):
        # the fast path (codes -> from_arrays) must equal running the
        # columnar engine over the materialized objects, field for field
        assert self.data.analyze() == analyze_cohort(
            self.data.responses, self.data.specs
        )

    def test_reference_engine_reachable(self):
        assert reference_analyze_cohort(
            self.data.responses, self.data.specs
        ) == self.data.analyze()


def dead_distractor_exam_and_params():
    """Every item has a zero-attraction 'beta' and a hot 'gamma'."""
    exam = classroom_exam()
    parameters = {}
    for item in exam.items:
        wrong = [label for label in item.labels if label != item.correct_label]
        attractions = {label: 1.0 for label in wrong}
        attractions[wrong[0]] = 0.0
        attractions[wrong[1]] = 3.0
        parameters[item.item_id] = ItemParameters(
            a=1.2, b=1.5, attractions=attractions
        )
    return exam, parameters


#: (name, parameter factory, omit_rate) — the ≥3 seeded scenarios of the
#: distributional-equivalence acceptance criterion
SCENARIOS = [
    ("classroom", lambda: (classroom_exam(), classroom_parameters()), 0.0),
    ("omit-heavy", lambda: (classroom_exam(), classroom_parameters()), 0.35),
    ("dead-distractor", dead_distractor_exam_and_params, 0.1),
]


class TestDistributionalEquivalence:
    """Scalar and vectorized engines agree in distribution.

    Tolerances are ~4-5 sigma for N = 3000 Bernoulli frequencies
    (sd of a frequency difference ≈ sqrt(2 · 0.25 / N) ≈ 0.013), so a
    failure means a real distributional mismatch, not sampling noise.
    """

    N = 3000
    FREQ_TOL = 0.05
    SCORE_MEAN_TOL = 0.15
    SCORE_SD_TOL = 0.15
    TIME_MEDIAN_REL_TOL = 0.08

    @pytest.fixture(scope="class")
    def engines(self):
        results = {}
        for name, factory, omit_rate in SCENARIOS:
            exam, parameters = factory()
            learners = make_population(self.N, seed=101)
            scalar = simulate_sitting_data(
                exam, parameters, learners, seed=55, omit_rate=omit_rate
            )
            vectorized = simulate_sitting_arrays(
                exam, parameters, learners, seed=55, omit_rate=omit_rate
            )
            results[name] = (scalar, vectorized)
        return results

    @pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
    def test_per_item_p_agrees(self, engines, name):
        scalar, vectorized = engines[name]
        p_scalar = [
            sum(
                1
                for response in scalar.responses
                if response.selections[q] == spec.correct
            )
            / len(scalar.responses)
            for q, spec in enumerate(scalar.specs)
        ]
        p_vec = [
            sum(
                1
                for response in vectorized.responses
                if response.selections[q] == spec.correct
            )
            / len(vectorized.responses)
            for q, spec in enumerate(vectorized.specs)
        ]
        for a, b in zip(p_scalar, p_vec):
            assert abs(a - b) < self.FREQ_TOL

    @pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
    def test_option_choice_frequencies_agree(self, engines, name):
        scalar, vectorized = engines[name]
        for table_s, table_v in zip(
            option_frequencies(scalar, scalar.specs),
            option_frequencies(vectorized, vectorized.specs),
        ):
            assert table_s.keys() == table_v.keys()
            for label in table_s:
                assert abs(table_s[label] - table_v[label]) < self.FREQ_TOL

    @pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
    def test_score_moments_agree(self, engines, name):
        scalar, vectorized = engines[name]
        scores_s = score_list(scalar)
        scores_v = score_list(vectorized)
        assert abs(
            statistics.mean(scores_s) - statistics.mean(scores_v)
        ) < self.SCORE_MEAN_TOL
        assert abs(
            statistics.stdev(scores_s) - statistics.stdev(scores_v)
        ) < self.SCORE_SD_TOL

    @pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
    def test_item_time_medians_agree(self, engines, name):
        scalar, vectorized = engines[name]
        for m_s, m_v in zip(
            item_time_medians(scalar), item_time_medians(vectorized)
        ):
            assert m_v == pytest.approx(m_s, rel=self.TIME_MEDIAN_REL_TOL)


class TestGoldenInvariants:
    def test_dead_distractor_stays_dead(self):
        exam, parameters = dead_distractor_exam_and_params()
        # a weak cohort, so nearly every draw goes through the
        # distractor table — the zero-attraction option must never appear
        learners = make_population(2000, mean_ability=-2.0, seed=6)
        data = simulate_sitting_arrays(exam, parameters, learners, seed=7)
        frequencies = option_frequencies(data, data.specs)
        for item, table in zip(exam.items, frequencies):
            wrong = [
                label for label in item.labels if label != item.correct_label
            ]
            dead = wrong[0]
            assert table[dead] == 0.0
            # and the hot distractor (weight 3) dominates the weight-1 ones
            assert table[wrong[1]] > table[wrong[2]]

    def test_omit_rate_honored_in_expectation(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        learners = make_population(2000, seed=8)
        rate = 0.3
        data = simulate_sitting_arrays(
            exam, parameters, learners, seed=9, omit_rate=rate
        )
        omitted = data.codes.count(SKIP)
        total = len(learners) * len(data.specs)
        # 4 sigma of Binomial(20000, 0.3) is ±0.013 on the fraction
        assert abs(omitted / total - rate) < 0.02

    def test_zero_omit_rate_never_skips(self):
        exam = classroom_exam()
        data = simulate_sitting_arrays(
            exam, classroom_parameters(), make_population(200, seed=1), seed=2
        )
        assert data.codes.count(SKIP) == 0

    def test_all_zero_attractions_fall_back_to_key(self):
        exam = classroom_exam()
        parameters = {
            item.item_id: ItemParameters(
                a=2.0,
                b=5.0,
                attractions={
                    label: 0.0
                    for label in item.labels
                    if label != item.correct_label
                },
            )
            for item in exam.items
        }
        learners = make_population(300, mean_ability=-3.0, seed=3)
        data = simulate_sitting_arrays(exam, parameters, learners, seed=4)
        # nothing else is drawable, so every selection is the key
        assert data.scores == [len(data.specs)] * len(learners)

    def test_ability_orders_scores(self):
        exam = classroom_exam()
        parameters = classroom_parameters()
        weak = make_population(800, mean_ability=-1.5, seed=5, id_prefix="w")
        strong = make_population(800, mean_ability=1.5, seed=5, id_prefix="s")
        weak_data = simulate_sitting_arrays(exam, parameters, weak, seed=6)
        strong_data = simulate_sitting_arrays(exam, parameters, strong, seed=6)
        assert statistics.mean(strong_data.scores) > statistics.mean(
            weak_data.scores
        ) + 1.0


class TestSharded:
    def setup_method(self):
        self.exam = classroom_exam()
        self.parameters = classroom_parameters()

    def test_sharded_matrix_analyzes(self):
        matrix = simulate_sharded(
            self.exam, self.parameters, 1000, shard_size=256, seed=5
        )
        assert len(matrix) == 1000
        analysis = matrix.analyze()
        assert len(analysis.questions) == 10
        assert len(analysis.scores) == 1000
        assert len(set(matrix.examinee_ids)) == 1000

    def test_deterministic_and_shard_seeded(self):
        a = simulate_sharded(
            self.exam, self.parameters, 700, shard_size=128, seed=5
        )
        b = simulate_sharded(
            self.exam, self.parameters, 700, shard_size=128, seed=5
        )
        assert bytes(a._codes) == bytes(b._codes)
        assert a.scores == b.scores

    def test_process_pool_equals_serial(self):
        serial = simulate_sharded(
            self.exam, self.parameters, 600, shard_size=150, seed=5
        )
        parallel = simulate_sharded(
            self.exam, self.parameters, 600, shard_size=150, seed=5, workers=2
        )
        assert bytes(serial._codes) == bytes(parallel._codes)
        assert serial.examinee_ids == parallel.examinee_ids
        assert serial.scores == parallel.scores

    def test_into_live_cohort_analysis(self):
        live = LiveCohortAnalysis(self.exam.question_specs())
        returned = simulate_sharded(
            self.exam, self.parameters, 500, shard_size=200, seed=5, into=live
        )
        assert returned is live
        assert len(live) == 500
        assert len(live.analysis().questions) == 10
        # equal to the default-matrix driver on the same seed
        matrix = simulate_sharded(
            self.exam, self.parameters, 500, shard_size=200, seed=5
        )
        assert live.analysis() == matrix.analyze()

    def test_on_shard_sees_every_row_once(self):
        seen = []
        simulate_sharded(
            self.exam,
            self.parameters,
            450,
            shard_size=200,
            seed=5,
            on_shard=seen.append,
        )
        assert [len(shard.examinee_ids) for shard in seen] == [200, 200, 50]
        assert [shard.start for shard in seen] == [0, 200, 400]
        ids = [i for shard in seen for i in shard.examinee_ids]
        assert len(set(ids)) == 450
        for shard in seen:
            assert len(shard.codes) == len(shard.examinee_ids) * 10
            assert len(shard.scores) == len(shard.examinee_ids)
            assert all(d > 0 for d in shard.durations)

    def test_omit_rate_reaches_shards(self):
        matrix = simulate_sharded(
            self.exam, self.parameters, 1000, shard_size=300, seed=5,
            omit_rate=0.4,
        )
        omitted = bytes(matrix._codes).count(SKIP)
        assert abs(omitted / (1000 * 10) - 0.4) < 0.03

    def test_bad_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            simulate_sharded(self.exam, self.parameters, 0)
        with pytest.raises(AnalysisError):
            simulate_sharded(self.exam, self.parameters, 10, shard_size=0)
        with pytest.raises(AnalysisError):
            simulate_sharded(self.exam, self.parameters, 10, omit_rate=2.0)

    def test_mismatched_sink_rejected(self):
        from repro.core.columnar import ResponseMatrix

        narrow = ResponseMatrix(self.exam.question_specs()[:3])
        with pytest.raises(AnalysisError, match="sink expects"):
            simulate_sharded(
                self.exam, self.parameters, 10, into=narrow
            )
