"""Golden-file tests pinning the paper's worked numbers.

``golden/paper_examples.json`` holds the paper's §3.3 difficulty example
(R=800, N=1000 → P=0.8), the Table 1 option-matrix rule examples, the
§4.1.2 worked questions (class of 44, groups of 11), the Table 3 signal
bands, and one pinned randomized cohort.  Every value is asserted against
*both* engines where a cohort is involved, so neither the columnar fast
path nor the reference pipeline can drift from the paper's numbers
without failing here.  The columnar engine runs once per kernel set.
"""

import json
from pathlib import Path

import pytest
from columnar_cases import make_random_cohort, on_each_kernel_set

from repro.core.indices import difficulty_index
from repro.core.question_analysis import (
    analyze_cohort,
    analyze_matrix,
    reference_analyze_cohort,
)
from repro.core.rules import OptionMatrix, Status, evaluate_rules
from repro.core.signals import DEFAULT_POLICY

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_examples.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_section_3_3_difficulty_example(golden):
    example = golden["section_3_3_difficulty"]
    assert difficulty_index(example["right"], example["total"]) == example["P"]


@pytest.mark.parametrize(
    "name", ["rule1_example", "rule2_example", "rule3_example", "rule4_example"]
)
def test_table1_rule_examples(golden, name):
    example = golden["table1_rule_examples"][name]
    matrix = OptionMatrix.from_rows(
        example["high"], example["low"], correct=example["correct"]
    )
    outcome = evaluate_rules(matrix)
    assert list(outcome.fired_rules) == example["fired_rules"]
    for match in outcome.matches:
        assert (
            list(match.options)
            == example["options_flagged"][str(match.rule)]
        )
    assert [status.name for status in outcome.statuses] == example["statuses"]
    # sanity: every pinned status is a real Table 2 status
    for status_name in example["statuses"]:
        assert Status[status_name] in Status


@pytest.mark.parametrize("name", ["question_2", "question_6"])
def test_worked_example_questions(golden, name):
    example = golden[name]
    analysis = analyze_matrix(
        OptionMatrix.from_rows(
            example["high"], example["low"], correct=example["correct"]
        ),
        high_size=example["group_size"],
        low_size=example["group_size"],
    )
    assert analysis.p_high == example["p_high"]
    assert analysis.p_low == example["p_low"]
    assert analysis.discrimination == example["discrimination"]
    assert analysis.difficulty == example["difficulty"]
    assert analysis.signal.value == example["signal"]
    assert list(analysis.rules.fired_rules) == example["fired_rules"]


def test_question_2_matches_paper_arithmetic(golden):
    """The paper's own numbers, independent of the JSON: PH = 10/11,
    PL = 4/11, D = 6/11 (≈0.55, green), P = 7/11 (≈0.64)."""
    example = golden["question_2"]
    assert example["p_high"] == pytest.approx(10 / 11)
    assert example["p_low"] == pytest.approx(4 / 11)
    assert example["discrimination"] == pytest.approx(6 / 11)
    assert example["difficulty"] == pytest.approx(7 / 11)
    assert example["signal"] == "green"


def test_table3_signal_bands(golden):
    for discrimination, expected in golden["table3_signal_bands"]:
        assert DEFAULT_POLICY.classify(discrimination).value == expected


@pytest.mark.parametrize(
    "analyze",
    [analyze_cohort, reference_analyze_cohort],
    ids=["columnar", "reference"],
)
def test_pinned_cohort(golden, analyze):
    """A full randomized cohort pinned field-by-field: any drift in either
    engine (grouping, counts, indices, signals, rules) fails here."""
    pin = golden["pinned_cohort"]
    responses, specs = make_random_cohort(
        pin["seed"],
        pin["size"],
        pin["questions"],
        pin["option_count"],
        pin["skip_rate"],
        pin["tie_heavy"],
    )
    result = on_each_kernel_set(lambda: analyze(responses, specs))
    assert result.high_group == pin["high_group"]
    assert result.low_group == pin["low_group"]
    assert sum(result.scores.values()) == pin["score_total"]
    assert len(result.questions) == len(pin["per_question"])
    for analysis, expected in zip(result.questions, pin["per_question"]):
        assert analysis.number == expected["number"]
        # exact equality: these floats are pinned, not approximated
        assert analysis.p_high == expected["p_high"]
        assert analysis.p_low == expected["p_low"]
        assert analysis.discrimination == expected["discrimination"]
        assert analysis.difficulty == expected["difficulty"]
        assert analysis.signal.value == expected["signal"]
        assert list(analysis.rules.fired_rules) == expected["fired_rules"]
        assert dict(analysis.matrix.high) == expected["high_counts"]
        assert dict(analysis.matrix.low) == expected["low_counts"]


def test_both_engines_agree_on_pinned_cohort(golden):
    pin = golden["pinned_cohort"]
    responses, specs = make_random_cohort(
        pin["seed"],
        pin["size"],
        pin["questions"],
        pin["option_count"],
        pin["skip_rate"],
        pin["tie_heavy"],
    )
    assert on_each_kernel_set(
        lambda: analyze_cohort(responses, specs)
    ) == reference_analyze_cohort(responses, specs)
