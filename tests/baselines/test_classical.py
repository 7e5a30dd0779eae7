"""Tests for classical test theory baselines (repro.baselines)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.question_analysis import ExamineeResponses, QuestionSpec
from repro.baselines.classical import (
    classical_item_analysis,
    point_biserial,
    whole_group_difficulty,
)


class TestWholeGroupDifficulty:
    def test_paper_worked_example(self):
        """§3.3: R=800, N=1000 -> 0.8."""
        flags = [True] * 800 + [False] * 200
        assert whole_group_difficulty(flags) == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCohortError):
            whole_group_difficulty([])


class TestPointBiserial:
    def test_positive_for_discriminating_item(self):
        # item correctness aligned with total scores
        flags = [True, True, True, False, False, False]
        scores = [9.0, 8.0, 7.0, 3.0, 2.0, 1.0]
        assert point_biserial(flags, scores) > 0.8

    def test_negative_for_inverted_item(self):
        flags = [False, False, False, True, True, True]
        scores = [9.0, 8.0, 7.0, 3.0, 2.0, 1.0]
        assert point_biserial(flags, scores) < -0.8

    def test_zero_for_degenerate_all_correct(self):
        assert point_biserial([True, True], [1.0, 2.0]) == 0.0

    def test_zero_for_no_score_variance(self):
        assert point_biserial([True, False], [5.0, 5.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            point_biserial([True], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyCohortError):
            point_biserial([], [])

    @given(
        rows=st.lists(
            st.tuples(
                st.booleans(),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=2,
            max_size=60,
        )
    )
    # squaring scores this small underflowed to 1.1547 before scaling
    @example(rows=[(False, 0.0), (False, 0.0), (True, 7.7e-162)])
    @settings(max_examples=50, deadline=None)
    def test_bounded_in_minus_one_one(self, rows):
        flags = [flag for flag, _ in rows]
        scores = [score for _, score in rows]
        value = point_biserial(flags, scores)
        assert -1.0 <= value <= 1.0


class TestClassicalItemAnalysis:
    def cohort(self):
        specs = [
            QuestionSpec(options=("A", "B"), correct="A"),
            QuestionSpec(options=("A", "B"), correct="B"),
        ]
        responses = []
        for index in range(10):
            # q1: top 7 correct; q2: top 3 correct
            q1 = "A" if index < 7 else "B"
            q2 = "B" if index < 3 else "A"
            responses.append(ExamineeResponses.of(f"s{index}", [q1, q2]))
        return responses, specs

    def test_difficulties(self):
        responses, specs = self.cohort()
        stats = classical_item_analysis(responses, specs)
        assert stats[0].difficulty == pytest.approx(0.7)
        assert stats[1].difficulty == pytest.approx(0.3)

    def test_numbers_one_based(self):
        responses, specs = self.cohort()
        stats = classical_item_analysis(responses, specs)
        assert [s.number for s in stats] == [1, 2]

    def test_point_biserial_positive_for_aligned_items(self):
        responses, specs = self.cohort()
        stats = classical_item_analysis(responses, specs)
        assert stats[0].point_biserial > 0

    def test_empty_rejected(self):
        with pytest.raises(EmptyCohortError):
            classical_item_analysis([], [QuestionSpec(options=("A",), correct="A")])

    def test_no_questions_rejected(self):
        with pytest.raises(AnalysisError):
            classical_item_analysis(
                [ExamineeResponses.of("s", [])], []
            )

    def test_ragged_rejected(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 2
        with pytest.raises(AnalysisError):
            classical_item_analysis([ExamineeResponses.of("s", ["A"])], specs)
