"""Property-based invariants of the §4.1 indices and grouping, checked
against the columnar engine (and, by the differential suite, the
reference engine too).

Invariants from the paper:

* ``D = PH − PL`` and ``P = (PH + PL) / 2`` — exactly, not approximately;
* ``P`` (difficulty) lies in [0, 1], ``D`` in [-1, 1];
* the high and low groups are disjoint, each of size
  ``int(N × fraction)`` ≤ ``ceil(0.25·N)`` for the paper's split;
* the split is stable under ties: boundary ties resolve by original
  cohort order, so equal inputs give identical groups.

Every columnar run happens once per kernel set (``on_each_kernel_set``),
which also asserts the two sets agree.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from columnar_cases import make_random_cohort, on_each_kernel_set

from repro.core.grouping import GroupSplit
from repro.core.question_analysis import (
    ExamineeResponses,
    analyze_cohort,
    reference_analyze_cohort,
)
from repro.core.signals import DEFAULT_POLICY

cohort_shapes = st.tuples(
    st.integers(min_value=0, max_value=2**31),  # seed
    st.integers(min_value=8, max_value=120),  # size
    st.integers(min_value=1, max_value=10),  # questions
    st.integers(min_value=2, max_value=8),  # option count
    st.floats(min_value=0.0, max_value=0.9),  # skip rate
    st.booleans(),  # tie heavy
)


@settings(max_examples=40, deadline=None)
@given(shape=cohort_shapes)
def test_indices_invariants(shape):
    seed, size, questions, option_count, skip_rate, tie_heavy = shape
    responses, specs = make_random_cohort(
        seed, size, questions, option_count, skip_rate, tie_heavy
    )
    result = on_each_kernel_set(lambda: analyze_cohort(responses, specs))
    for analysis in result.questions:
        # exact float identities, by construction of analyze_matrix
        assert analysis.discrimination == analysis.p_high - analysis.p_low
        assert analysis.difficulty == (analysis.p_high + analysis.p_low) / 2.0
        assert 0.0 <= analysis.p_high <= 1.0
        assert 0.0 <= analysis.p_low <= 1.0
        assert 0.0 <= analysis.difficulty <= 1.0
        assert -1.0 <= analysis.discrimination <= 1.0
        assert analysis.signal is DEFAULT_POLICY.classify(
            analysis.discrimination
        )


@settings(max_examples=40, deadline=None)
@given(
    shape=cohort_shapes,
    fraction=st.sampled_from((0.25, 0.27, 0.33, 0.5)),
)
def test_grouping_invariants(shape, fraction):
    seed, size, questions, option_count, skip_rate, tie_heavy = shape
    responses, specs = make_random_cohort(
        seed, size, questions, option_count, skip_rate, tie_heavy
    )
    split = GroupSplit(fraction=fraction)
    result = on_each_kernel_set(
        lambda: analyze_cohort(responses, specs, split=split)
    )

    expected_size = int(size * fraction)
    assert len(result.high_group) == expected_size
    assert len(result.low_group) == expected_size
    assert expected_size <= math.ceil(fraction * size)
    assert not set(result.high_group) & set(result.low_group)
    assert set(result.scores) == {r.examinee_id for r in responses}

    # the high group holds the N highest scores, the low group the N
    # lowest, with boundary ties broken by cohort order (stable split)
    order = sorted(
        range(size),
        key=lambda index: (-result.scores[responses[index].examinee_id], index),
    )
    assert result.high_group == [
        responses[index].examinee_id for index in order[:expected_size]
    ]
    assert result.low_group == [
        responses[index].examinee_id for index in order[-expected_size:]
    ]


@settings(max_examples=25, deadline=None)
@given(shape=cohort_shapes)
def test_scores_count_correct_selections(shape):
    seed, size, questions, option_count, skip_rate, tie_heavy = shape
    responses, specs = make_random_cohort(
        seed, size, questions, option_count, skip_rate, tie_heavy
    )
    result = on_each_kernel_set(lambda: analyze_cohort(responses, specs))
    for response in responses:
        expected = sum(
            1
            for selection, spec in zip(response.selections, specs)
            if selection == spec.correct
        )
        assert result.scores[response.examinee_id] == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    size=st.integers(min_value=8, max_value=60),
)
def test_tie_stability_under_reordering_is_deterministic(seed, size):
    """Shuffling then restoring the cohort order reproduces the groups:
    the split depends only on (score, original position)."""
    responses, specs = make_random_cohort(seed, size, 3, 3, 0.0, True)
    first = on_each_kernel_set(lambda: analyze_cohort(responses, specs))
    again = on_each_kernel_set(lambda: analyze_cohort(list(responses), specs))
    assert first.high_group == again.high_group
    assert first.low_group == again.low_group

    # a genuinely reordered cohort may pick different tie members, but
    # the multiset of group *scores* is order-independent
    shuffled = list(responses)
    random.Random(seed ^ 0xBEEF).shuffle(shuffled)
    reordered = on_each_kernel_set(lambda: analyze_cohort(shuffled, specs))
    assert sorted(
        reordered.scores[i] for i in reordered.high_group
    ) == sorted(first.scores[i] for i in first.high_group)
    assert sorted(
        reordered.scores[i] for i in reordered.low_group
    ) == sorted(first.scores[i] for i in first.low_group)


@settings(max_examples=25, deadline=None)
@given(shape=cohort_shapes)
def test_rule_4_implies_rule_3_and_option_sums_bound(shape):
    seed, size, questions, option_count, skip_rate, tie_heavy = shape
    responses, specs = make_random_cohort(
        seed, size, questions, option_count, skip_rate, tie_heavy
    )
    result = on_each_kernel_set(lambda: analyze_cohort(responses, specs))
    group_size = len(result.high_group)
    for analysis in result.questions:
        if analysis.rules.rule_fired(4):
            assert analysis.rules.rule_fired(3)
        # skipped selections are simply absent from the matrix sums
        assert analysis.matrix.high_sum <= group_size
        assert analysis.matrix.low_sum <= group_size


@settings(max_examples=30, deadline=None)
@given(
    shape=cohort_shapes,
    stray_rate=st.sampled_from((0.0, 0.0, 0.15)),
)
def test_extend_equals_repeated_add_sitting(shape, stray_rate):
    """Bulk ``extend`` and one-at-a-time ``add_sitting`` build identical
    matrices — codes, scores, ids, and interning tables — including when
    some selections are labels outside the question's options (the
    interning path, exercised at ``stray_rate``)."""
    from repro.core.columnar import ResponseMatrix

    seed, size, questions, option_count, skip_rate, tie_heavy = shape
    responses, specs = make_random_cohort(
        seed, size, questions, option_count, skip_rate, tie_heavy
    )
    if stray_rate:
        rng = random.Random(seed ^ 0xACE)
        responses = [
            ExamineeResponses.of(
                response.examinee_id,
                [
                    f"?{rng.randrange(3)}"
                    if rng.random() < stray_rate
                    else selection
                    for selection in response.selections
                ],
            )
            for response in responses
        ]

    def build_both():
        bulk = ResponseMatrix(specs)
        bulk.extend(responses)
        incremental = ResponseMatrix(specs)
        for response in responses:
            incremental.add_sitting(response)

        assert bytes(bulk._codes) == bytes(incremental._codes)
        assert bulk.scores == incremental.scores
        assert bulk.examinee_ids == incremental.examinee_ids
        assert bulk._labels == incremental._labels
        assert bulk._tables == incremental._tables
        if not stray_rate:
            # stray labels can make analyze() raise (by design, matching
            # the reference engine); clean cohorts analyze identically
            assert bulk.analyze() == incremental.analyze()
        return bytes(bulk._codes), bulk.scores, bulk._labels

    on_each_kernel_set(build_both)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    duplicate_of=st.integers(min_value=0, max_value=7),
)
def test_duplicate_ids_always_rejected(seed, duplicate_of):
    import pytest

    from repro.core.errors import AnalysisError

    responses, specs = make_random_cohort(seed, 8, 2, 3, 0.0, False)
    responses.append(
        ExamineeResponses.of(
            responses[duplicate_of].examinee_id, ["A", "A"]
        )
    )
    for analyze in (analyze_cohort, reference_analyze_cohort):
        with pytest.raises(AnalysisError, match="duplicate examinee id"):
            analyze(responses, specs)
