"""Tests for the §4.1 single-question analysis pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.grouping import GroupSplit
from repro.core.question_analysis import (
    ExamineeResponses,
    QuestionSpec,
    analyze_cohort,
    analyze_matrix,
    number_representation_rows,
    reference_analyze_cohort,
    render_number_representation,
)
from repro.core.rules import OptionMatrix
from repro.core.signals import Signal


def paper_question_2_matrix():
    """§4.1.2 worked example, question no.2 (class 44, groups of 11)."""
    return OptionMatrix.from_rows([0, 0, 10, 1], [3, 2, 4, 2], correct="C")


def paper_question_6_matrix():
    """§4.1.2 worked example, question no.6."""
    return OptionMatrix.from_rows([1, 1, 4, 5], [0, 2, 4, 4], correct="D")


class TestPaperWorkedExampleQuestion2:
    def setup_method(self):
        self.analysis = analyze_matrix(
            paper_question_2_matrix(), high_size=11, low_size=11, number=2
        )

    def test_ph(self):
        assert self.analysis.p_high == pytest.approx(10 / 11, abs=1e-9)

    def test_pl(self):
        assert self.analysis.p_low == pytest.approx(4 / 11, abs=1e-9)

    def test_discrimination(self):
        # paper rounds: 0.91 - 0.36 = 0.55; exact: 6/11 = 0.5454...
        assert self.analysis.discrimination == pytest.approx(6 / 11, abs=1e-9)
        assert self.analysis.discrimination > 0.3

    def test_signal_green(self):
        assert self.analysis.signal is Signal.GREEN

    def test_difficulty(self):
        # paper: (0.91 + 0.36) / 2 = 0.635; exact: 7/11 = 0.6363...
        assert self.analysis.difficulty == pytest.approx(7 / 11, abs=1e-9)


class TestPaperWorkedExampleQuestion6:
    def setup_method(self):
        self.analysis = analyze_matrix(
            paper_question_6_matrix(), high_size=11, low_size=11, number=6
        )

    def test_discrimination_low(self):
        # paper: 0.45 - 0.36 = 0.09; exact: 1/11 = 0.0909...
        assert self.analysis.discrimination == pytest.approx(1 / 11, abs=1e-9)

    def test_signal_red(self):
        assert self.analysis.signal is Signal.RED

    def test_rule_1_flags_option_a(self):
        assert self.analysis.rules.rule_fired(1)
        match = next(m for m in self.analysis.rules.matches if m.rule == 1)
        assert match.options == ("A",)

    def test_difficulty(self):
        # paper: (0.45 + 0.36) / 2 = 0.405 (prints 0.41); exact 9/22
        assert self.analysis.difficulty == pytest.approx(9 / 22, abs=1e-9)

    def test_advice_mentions_elimination(self):
        assert "Eliminate" in self.analysis.advice.headline


class TestAnalyzeMatrixValidation:
    def test_zero_group_size_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_matrix(paper_question_2_matrix(), high_size=0, low_size=11)

    def test_negative_group_size_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_matrix(paper_question_2_matrix(), high_size=11, low_size=-1)


def make_cohort(n=20, questions=2):
    """A deterministic synthetic cohort: the top half answers everything
    correctly, the bottom half always picks option B."""
    specs = [
        QuestionSpec(options=("A", "B", "C", "D"), correct="A")
        for _ in range(questions)
    ]
    responses = []
    for index in range(n):
        choice = "A" if index < n // 2 else "B"
        responses.append(
            ExamineeResponses.of(f"s{index:02d}", [choice] * questions)
        )
    return responses, specs


class TestAnalyzeCohort:
    def test_perfectly_discriminating_question(self):
        responses, specs = make_cohort()
        result = analyze_cohort(responses, specs)
        for analysis in result.questions:
            assert analysis.p_high == 1.0
            assert analysis.p_low == 0.0
            assert analysis.discrimination == 1.0
            assert analysis.signal is Signal.GREEN

    def test_group_sizes_follow_split(self):
        responses, specs = make_cohort(n=40)
        result = analyze_cohort(responses, specs)
        assert len(result.high_group) == 10
        assert len(result.low_group) == 10

    def test_scores_recorded_for_everyone(self):
        responses, specs = make_cohort(n=20, questions=3)
        result = analyze_cohort(responses, specs)
        assert len(result.scores) == 20
        assert set(result.scores.values()) == {0, 3}

    def test_custom_split_fraction(self):
        responses, specs = make_cohort(n=40)
        result = analyze_cohort(responses, specs, split=GroupSplit(fraction=0.5))
        assert len(result.high_group) == 20

    def test_skipped_answers_allowed(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        responses = [
            ExamineeResponses.of("s1", ["A"]),
            ExamineeResponses.of("s2", ["A"]),
            ExamineeResponses.of("s3", [None]),
            ExamineeResponses.of("s4", [None]),
            ExamineeResponses.of("s5", ["B"]),
            ExamineeResponses.of("s6", ["B"]),
            ExamineeResponses.of("s7", ["B"]),
            ExamineeResponses.of("s8", ["A"]),
        ]
        result = analyze_cohort(responses, specs)
        # the matrix only counts actual selections
        total = result.questions[0].matrix.high_sum + result.questions[0].matrix.low_sum
        assert total <= 4

    def test_unknown_option_rejected(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        responses = [ExamineeResponses.of(f"s{i}", ["Z"]) for i in range(8)]
        with pytest.raises(AnalysisError):
            analyze_cohort(responses, specs)

    def test_empty_cohort_rejected(self):
        with pytest.raises(EmptyCohortError):
            analyze_cohort([], [QuestionSpec(options=("A",), correct="A")])

    def test_no_questions_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_cohort([ExamineeResponses.of("s1", [])], [])

    def test_ragged_responses_rejected(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 2
        responses = [ExamineeResponses.of("s1", ["A"])] * 8
        with pytest.raises(AnalysisError):
            analyze_cohort(responses, specs)

    @pytest.mark.parametrize(
        "analyze",
        [analyze_cohort, reference_analyze_cohort],
        ids=["columnar", "reference"],
    )
    def test_ragged_responses_error_names_the_examinee(self, analyze):
        """Regression: a selections/answer-key length mismatch must raise a
        clear AnalysisError naming the examinee and both lengths — never
        silently mis-group."""
        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 3
        responses = [
            ExamineeResponses.of(f"s{i}", ["A", "B", "A"]) for i in range(7)
        ] + [ExamineeResponses.of("truncated", ["A", "B"])]
        with pytest.raises(
            AnalysisError,
            match=r"'truncated' answered 2 questions; exam has 3",
        ):
            analyze(responses, specs)

    @pytest.mark.parametrize(
        "analyze",
        [analyze_cohort, reference_analyze_cohort],
        ids=["columnar", "reference"],
    )
    def test_overlong_responses_rejected(self, analyze):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        responses = [
            ExamineeResponses.of(f"s{i}", ["A"]) for i in range(7)
        ] + [ExamineeResponses.of("padded", ["A", "B"])]
        with pytest.raises(
            AnalysisError, match=r"'padded' answered 2 questions; exam has 1"
        ):
            analyze(responses, specs)

    @pytest.mark.parametrize(
        "analyze",
        [analyze_cohort, reference_analyze_cohort],
        ids=["columnar", "reference"],
    )
    def test_duplicate_examinee_ids_rejected(self, analyze):
        """Regression: duplicate ids used to mis-group silently (the score
        table kept one sitting while the matrices counted both)."""
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        responses = [
            ExamineeResponses.of(f"s{i}", ["A"]) for i in range(8)
        ] + [ExamineeResponses.of("s3", ["B"])]
        with pytest.raises(AnalysisError, match="duplicate examinee id 's3'"):
            analyze(responses, specs)

    def test_question_lookup(self):
        responses, specs = make_cohort(questions=3)
        result = analyze_cohort(responses, specs)
        assert result.question(2).number == 2
        with pytest.raises(AnalysisError):
            result.question(99)

    def test_high_and_low_groups_disjoint(self):
        responses, specs = make_cohort(n=24)
        result = analyze_cohort(responses, specs)
        assert not set(result.high_group) & set(result.low_group)


class TestNumberRepresentation:
    def test_rows_shape(self):
        responses, specs = make_cohort(questions=3)
        result = analyze_cohort(responses, specs)
        rows = number_representation_rows(result.questions)
        assert len(rows) == 3
        number, ph, pl, d, p = rows[0]
        assert number == 1
        assert d == pytest.approx(ph - pl)
        assert p == pytest.approx((ph + pl) / 2)

    def test_render_contains_header(self):
        responses, specs = make_cohort()
        result = analyze_cohort(responses, specs)
        text = render_number_representation(result.questions)
        assert "D=PH-PL" in text
        assert "P=(PH+PL)/2" in text
        assert "1.00" in text  # PH of the perfect question

    def test_render_empty(self):
        text = render_number_representation([])
        assert "No" in text


class TestCohortProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=60),
        questions=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_cohorts_produce_valid_indices(self, n, questions, seed):
        import random

        rng = random.Random(seed)
        options = ("A", "B", "C", "D")
        specs = [
            QuestionSpec(options=options, correct=rng.choice(options))
            for _ in range(questions)
        ]
        responses = [
            ExamineeResponses.of(
                f"s{i}", [rng.choice(options) for _ in range(questions)]
            )
            for i in range(n)
        ]
        result = analyze_cohort(responses, specs)
        for analysis in result.questions:
            assert 0.0 <= analysis.p_high <= 1.0
            assert 0.0 <= analysis.p_low <= 1.0
            assert -1.0 <= analysis.discrimination <= 1.0
            assert 0.0 <= analysis.difficulty <= 1.0
            assert analysis.signal in set(Signal)
