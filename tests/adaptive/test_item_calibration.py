"""Tests for 2PL MML/EM item calibration (repro.adaptive.item_calibration)."""

import random

import pytest

from repro.core.errors import EstimationError
from repro.adaptive.irt import ItemParameters, probability_correct
from repro.adaptive.item_calibration import calibrate_2pl


def simulate_matrix(true_parameters, examinees=600, seed=5):
    """Responses from N(0,1) abilities against known parameters."""
    rng = random.Random(seed)
    matrix = []
    for _ in range(examinees):
        theta = rng.gauss(0, 1)
        matrix.append(
            [
                rng.random() < probability_correct(theta, params)
                for params in true_parameters
            ]
        )
    return matrix


TRUE_PARAMETERS = [
    ItemParameters(a=1.8, b=-1.5),
    ItemParameters(a=1.0, b=-0.5),
    ItemParameters(a=1.4, b=0.0),
    ItemParameters(a=0.8, b=0.8),
    ItemParameters(a=2.0, b=1.5),
    ItemParameters(a=1.2, b=-1.0),
    ItemParameters(a=1.6, b=0.5),
    ItemParameters(a=0.9, b=1.0),
]


class TestParameterRecovery:
    @pytest.fixture(scope="class")
    def result(self):
        matrix = simulate_matrix(TRUE_PARAMETERS, examinees=800, seed=11)
        return calibrate_2pl(matrix)

    def test_converges(self, result):
        assert result.converged
        assert result.iterations < 60

    def test_difficulties_recovered(self, result):
        for estimated, true in zip(result.parameters, TRUE_PARAMETERS):
            assert estimated.b == pytest.approx(true.b, abs=0.35)

    def test_difficulty_ordering_exact(self, result):
        estimated_order = sorted(
            range(len(TRUE_PARAMETERS)),
            key=lambda i: result.parameters[i].b,
        )
        true_order = sorted(
            range(len(TRUE_PARAMETERS)), key=lambda i: TRUE_PARAMETERS[i].b
        )
        assert estimated_order == true_order

    def test_discriminations_recovered(self, result):
        for estimated, true in zip(result.parameters, TRUE_PARAMETERS):
            assert estimated.a == pytest.approx(true.a, abs=0.45)

    def test_discrimination_extremes_ranked(self, result):
        a_values = [p.a for p in result.parameters]
        # the a=2.0 item must out-rank the a=0.8 and a=0.9 items
        assert a_values[4] > a_values[3]
        assert a_values[4] > a_values[7]

    def test_log_likelihood_finite(self, result):
        assert result.log_likelihood < 0
        assert result.log_likelihood > -1e6


class TestCalibrationMechanics:
    def test_more_data_tightens_estimates(self):
        small = calibrate_2pl(
            simulate_matrix(TRUE_PARAMETERS, examinees=150, seed=2)
        )
        large = calibrate_2pl(
            simulate_matrix(TRUE_PARAMETERS, examinees=1500, seed=2)
        )
        small_error = sum(
            abs(est.b - true.b)
            for est, true in zip(small.parameters, TRUE_PARAMETERS)
        )
        large_error = sum(
            abs(est.b - true.b)
            for est, true in zip(large.parameters, TRUE_PARAMETERS)
        )
        assert large_error < small_error

    def test_degenerate_item_clamped(self):
        # one item everyone gets right: b must clamp, not diverge
        parameters = [ItemParameters(a=1.0, b=-6.0), ItemParameters(a=1.0, b=0.0)]
        matrix = simulate_matrix(parameters, examinees=300, seed=3)
        result = calibrate_2pl(matrix)
        assert -4.0 <= result.parameters[0].b <= 4.0
        assert 0.2 <= result.parameters[0].a <= 3.0

    def test_as_pool(self):
        matrix = simulate_matrix(TRUE_PARAMETERS[:3], examinees=200, seed=4)
        result = calibrate_2pl(matrix)
        pool = result.as_pool(["x", "y", "z"])
        assert set(pool) == {"x", "y", "z"}
        with pytest.raises(EstimationError):
            result.as_pool(["too", "few"])

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            calibrate_2pl([])

    def test_single_item_rejected(self):
        with pytest.raises(EstimationError):
            calibrate_2pl([[True], [False]])

    def test_ragged_rejected(self):
        with pytest.raises(EstimationError):
            calibrate_2pl([[True, False], [True]])

    def test_tiny_grid_rejected(self):
        with pytest.raises(EstimationError):
            calibrate_2pl([[True, False]] * 10, grid_points=3)


class TestEndToEnd:
    def test_calibrated_pool_drives_cat_accurately(self):
        """simulate -> calibrate from data -> CAT recovers ability."""
        from repro.adaptive.online import AdaptiveSession, ItemInformationTable

        matrix = simulate_matrix(TRUE_PARAMETERS, examinees=600, seed=7)
        result = calibrate_2pl(matrix)
        pool = result.as_pool([f"i{k}" for k in range(len(TRUE_PARAMETERS))])
        rng = random.Random(8)
        true_theta = 1.0

        def answer(item_id):
            true = TRUE_PARAMETERS[int(item_id[1:])]
            return rng.random() < probability_correct(true_theta, true)

        session = AdaptiveSession(
            ItemInformationTable.build(pool),
            max_items=8,
            min_items=8,
            se_target=0.01,
        )
        estimate, se = session.run(answer)
        assert abs(estimate - true_theta) < 3 * se + 0.5
