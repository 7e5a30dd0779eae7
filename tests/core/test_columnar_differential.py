"""Differential harness: the columnar engine must be *exactly* equal to
the reference §4.1 pipeline — field for field, including rule outcomes
and signal colors — on randomized cohorts.

This is the correctness story for ``repro.core.columnar``: any drift
between ``analyze_cohort`` and ``reference_analyze_cohort`` fails here
before it can reach the delivery, simulation, or LMS layers.  Every
columnar run happens once per kernel set, chosen by name, so both sets
are held to the reference at every cohort size.
"""

import pytest
from columnar_cases import (
    KERNEL_SETS,
    kernel_set,
    make_random_cohort,
    on_each_kernel_set,
)

from repro.core import kernels
from repro.core.columnar import LiveCohortAnalysis, ResponseMatrix
from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.grouping import GroupSplit
from repro.core.question_analysis import (
    ExamineeResponses,
    QuestionSpec,
    analyze_cohort,
    reference_analyze_cohort,
)

#: ≥ 20 seeded cohort shapes: sizes, option counts, skip rates, tie-heavy
#: score distributions, and split-fraction variations.
COHORT_CASES = [
    # (seed, size, questions, option_count, skip_rate, tie_heavy, fraction)
    (0, 8, 1, 2, 0.0, False, 0.25),
    (1, 12, 3, 3, 0.0, False, 0.25),
    (2, 20, 5, 4, 0.0, False, 0.25),
    (3, 44, 10, 5, 0.0, False, 0.25),  # the paper's class of 44
    (4, 60, 8, 4, 0.1, False, 0.25),
    (5, 75, 12, 5, 0.3, False, 0.25),
    (6, 100, 6, 4, 0.6, False, 0.25),  # skip-heavy
    (7, 100, 6, 4, 0.9, False, 0.25),  # nearly everything skipped
    (8, 50, 4, 4, 0.0, True, 0.25),  # tie-heavy
    (9, 80, 5, 5, 0.0, True, 0.25),
    (10, 120, 3, 3, 0.2, True, 0.25),  # ties + skips
    (11, 200, 10, 4, 0.0, True, 0.25),
    (12, 33, 7, 6, 0.05, False, 0.25),
    (13, 9, 2, 2, 0.5, False, 0.25),  # tiny cohort, heavy skips
    (14, 150, 20, 4, 0.0, False, 0.25),
    (15, 64, 1, 8, 0.15, False, 0.25),  # single question, many options
    (16, 40, 10, 2, 0.0, True, 0.25),  # binary items tie constantly
    (17, 44, 10, 5, 0.1, True, 0.27),  # Kelly's optimum fraction
    (18, 90, 8, 4, 0.0, False, 0.33),
    (19, 90, 8, 4, 0.25, True, 0.5),  # everyone in a group
    (20, 300, 15, 5, 0.05, False, 0.25),
    (21, 16, 4, 26, 0.0, False, 0.25),  # full A-Z option alphabet
    (22, 55, 9, 3, 0.4, True, 0.3),
    (23, 500, 5, 4, 0.0, True, 0.25),  # big tie-heavy cohort
    (24, 40, 520, 4, 0.0, False, 0.25),  # >512 questions: wide gather offsets
    (25, 30, 1000, 4, 0.0, False, 0.25),  # very wide exam
]


def both_engines(responses, specs, fraction=0.25):
    split = GroupSplit(fraction=fraction)
    fast = on_each_kernel_set(
        lambda: analyze_cohort(responses, specs, split=split)
    )
    reference = reference_analyze_cohort(responses, specs, split=split)
    return fast, reference


@pytest.mark.parametrize(
    "seed,size,questions,option_count,skip_rate,tie_heavy,fraction",
    COHORT_CASES,
)
def test_engines_bit_identical(
    seed, size, questions, option_count, skip_rate, tie_heavy, fraction
):
    responses, specs = make_random_cohort(
        seed, size, questions, option_count, skip_rate, tie_heavy
    )
    fast, reference = both_engines(responses, specs, fraction)

    # whole-tree equality first (dataclass eq covers every nested field) ...
    assert fast == reference

    # ... then field-for-field so a failure pinpoints the drifting field
    assert fast.high_group == reference.high_group
    assert fast.low_group == reference.low_group
    assert fast.scores == reference.scores
    assert len(fast.questions) == len(reference.questions)
    for ours, theirs in zip(fast.questions, reference.questions):
        assert ours.number == theirs.number
        assert ours.matrix.options == theirs.matrix.options
        assert dict(ours.matrix.high) == dict(theirs.matrix.high)
        assert dict(ours.matrix.low) == dict(theirs.matrix.low)
        assert ours.matrix.correct == theirs.matrix.correct
        # exact float equality, not approx: the engines share analyze_matrix
        assert ours.p_high == theirs.p_high
        assert ours.p_low == theirs.p_low
        assert ours.difficulty == theirs.difficulty
        assert ours.discrimination == theirs.discrimination
        assert ours.signal is theirs.signal
        assert ours.rules.fired_rules == theirs.rules.fired_rules
        assert ours.rules.statuses == theirs.rules.statuses
        assert [m.explanation for m in ours.rules.matches] == [
            m.explanation for m in theirs.rules.matches
        ]
        assert ours.advice == theirs.advice
        assert ours.distraction == theirs.distraction


@pytest.mark.parametrize("spread_threshold", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("seed", [30, 31])
def test_engines_agree_across_spread_thresholds(seed, spread_threshold):
    responses, specs = make_random_cohort(seed, 48, 6, 4, 0.1, True)
    fast = on_each_kernel_set(
        lambda: analyze_cohort(
            responses, specs, spread_threshold=spread_threshold
        )
    )
    reference = reference_analyze_cohort(
        responses, specs, spread_threshold=spread_threshold
    )
    assert fast == reference


def engines():
    """The reference engine, then the columnar one on each kernel set."""
    yield reference_analyze_cohort
    for name in KERNEL_SETS:
        with kernel_set(name):
            yield analyze_cohort


class TestErrorParity:
    """Both engines must reject malformed cohorts the same way."""

    def test_empty_cohort(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        for analyze in engines():
            with pytest.raises(EmptyCohortError):
                analyze([], specs)

    def test_no_questions(self):
        responses = [ExamineeResponses.of("s1", [])]
        for analyze in engines():
            with pytest.raises(AnalysisError):
                analyze(responses, [])

    def test_ragged_selections(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 3
        responses = [
            ExamineeResponses.of(f"s{i}", ["A", "B", "A"]) for i in range(7)
        ] + [ExamineeResponses.of("short", ["A"])]
        for analyze in engines():
            with pytest.raises(AnalysisError, match="answered 1 questions"):
                analyze(responses, specs)

    def test_duplicate_examinee_ids(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        responses = [
            ExamineeResponses.of(f"s{i}", ["A"]) for i in range(7)
        ] + [ExamineeResponses.of("s0", ["B"])]
        for analyze in engines():
            with pytest.raises(AnalysisError, match="duplicate examinee id"):
                analyze(responses, specs)

    def test_unknown_option_in_extreme_group(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        responses = [
            ExamineeResponses.of(f"s{i}", ["Z"]) for i in range(8)
        ]
        for analyze in engines():
            with pytest.raises(AnalysisError, match="unknown option 'Z'"):
                analyze(responses, specs)

    def test_unknown_option_outside_groups_tolerated(self):
        # an unknown label on a mid-ranked examinee never enters the
        # option matrices; the reference engine accepts it, so the
        # columnar engine must too
        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 2
        responses = (
            [ExamineeResponses.of(f"hi{i}", ["A", "A"]) for i in range(3)]
            + [ExamineeResponses.of("mid", ["A", "Z"])]
            + [ExamineeResponses.of(f"lo{i}", ["B", "B"]) for i in range(4)]
        )
        fast, reference = both_engines(responses, specs)
        assert fast == reference


class TestCapacityFallback:
    def test_overwide_question_falls_back_to_reference(self):
        # 300 options cannot be interned into one byte; analyze_cohort
        # must transparently produce the reference result instead of
        # failing, and count the fallback
        from repro import obs

        options = tuple(f"o{i}" for i in range(300))
        specs = [QuestionSpec(options=options, correct="o0")]
        responses = [
            ExamineeResponses.of(f"s{i}", [options[i % 300]]) for i in range(16)
        ]
        previous = obs.set_registry(obs.Registry(enabled=True))
        try:
            fast = analyze_cohort(responses, specs)
            counters = obs.snapshot()["counters"]
        finally:
            obs.set_registry(previous)
        assert counters["analyze.columnar.fallbacks"] == 1
        reference = reference_analyze_cohort(responses, specs)
        assert fast == reference

    def test_response_matrix_itself_rejects_overwide_questions(self):
        from repro.core.columnar import ColumnarCapacityError

        options = tuple(f"o{i}" for i in range(300))
        with pytest.raises(ColumnarCapacityError):
            ResponseMatrix([QuestionSpec(options=options, correct="o0")])


def fresh(live):
    """A run of ``live``'s analysis that recomputes it (not the cache)."""

    def run():
        live.invalidate()
        return live.analysis()

    return run


class TestIncrementalDifferential:
    """The live analyzer must track the from-scratch result at every step."""

    def test_add_sitting_matches_full_recompute_at_each_prefix(self):
        responses, specs = make_random_cohort(50, 40, 5, 4, 0.2, True)
        live = LiveCohortAnalysis(specs)
        for count, response in enumerate(responses, start=1):
            live.add_sitting(response)
            if count >= 8:  # enough for a 25% split
                expected = reference_analyze_cohort(responses[:count], specs)
                assert on_each_kernel_set(fresh(live)) == expected

    def test_invalidate_matches_recompute_without_examinee(self):
        responses, specs = make_random_cohort(51, 30, 4, 4, 0.0, False)
        live = LiveCohortAnalysis(specs)
        for response in responses:
            live.add_sitting(response)
        dropped = responses[7].examinee_id
        assert live.invalidate(dropped) is True
        assert dropped not in live
        remaining = [r for r in responses if r.examinee_id != dropped]
        assert on_each_kernel_set(fresh(live)) == reference_analyze_cohort(
            remaining, specs
        )

    def test_invalidate_unknown_id_is_a_noop(self):
        responses, specs = make_random_cohort(52, 12, 2, 3, 0.0, False)
        live = LiveCohortAnalysis(specs)
        for response in responses:
            live.add_sitting(response)
        before = live.analysis()
        assert live.invalidate("nobody") is False
        assert live.analysis() == before

    def test_resubmission_via_invalidate_then_add(self):
        responses, specs = make_random_cohort(53, 20, 3, 4, 0.0, False)
        live = LiveCohortAnalysis(specs)
        for response in responses:
            live.add_sitting(response)
        resat = ExamineeResponses.of(
            responses[0].examinee_id, [specs[i].correct for i in range(3)]
        )
        live.invalidate(resat.examinee_id)
        live.add_sitting(resat)
        expected = reference_analyze_cohort(responses[1:] + [resat], specs)
        assert on_each_kernel_set(fresh(live)) == expected

    def test_live_rejects_ragged_and_duplicate_sittings(self):
        responses, specs = make_random_cohort(54, 10, 3, 4, 0.0, False)
        live = LiveCohortAnalysis(specs)
        live.add_sitting(responses[0])
        with pytest.raises(AnalysisError, match="answered 1 questions"):
            live.add_sitting(ExamineeResponses.of("ragged", ["A"]))
        with pytest.raises(AnalysisError, match="duplicate examinee id"):
            live.add_sitting(responses[0])

    def test_analysis_is_cached_until_cohort_changes(self):
        responses, specs = make_random_cohort(55, 16, 2, 4, 0.0, False)
        live = LiveCohortAnalysis(specs)
        for response in responses:
            live.add_sitting(response)
        first = live.analysis()
        assert live.analysis() is first  # cached object served
        live.invalidate()  # cache drop only
        second = live.analysis()
        assert second is not first
        assert second == first


class TestStdlibFallback:
    """The columnar engine must stay bit-identical without numpy: a call
    past the crossover runs the stdlib kernels when ``load_numpy`` finds
    no numpy, and nothing else changes."""

    FALLBACK_CASES = [0, 3, 6, 8, 19, 23]  # indices into COHORT_CASES

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        # every call is past the crossover, and numpy is "not installed"
        monkeypatch.setattr(kernels, "NUMPY_CROSSOVER_CELLS", 0)
        monkeypatch.setattr(kernels, "load_numpy", lambda: None)
        assert kernels.kernels_for(1) is kernels.STDLIB_KERNELS

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_engines_bit_identical_without_numpy(self, case):
        seed, size, questions, options, skip, ties, fraction = COHORT_CASES[
            case
        ]
        responses, specs = make_random_cohort(
            seed, size, questions, options, skip, ties
        )
        split = GroupSplit(fraction=fraction)
        fast = analyze_cohort(responses, specs, split=split)
        assert fast == reference_analyze_cohort(responses, specs, split=split)

    def test_incremental_without_numpy(self):
        responses, specs = make_random_cohort(60, 30, 5, 4, 0.1, True)
        live = LiveCohortAnalysis(specs)
        for response in responses:
            live.add_sitting(response)
        assert live.analysis() == reference_analyze_cohort(responses, specs)


class TestVectorEncodeFallbacks:
    """Cohort shapes the vectorized encode cannot take must degrade to the
    per-cell path, not change results: multi-character labels, non-ASCII
    labels, skips, stray unknown labels."""

    def _bulk(self, size=60):
        # large enough that _bulk_encode tries the vectorized path
        options = ("alpha", "beta", "gamma", "delta")
        specs = [
            QuestionSpec(options=options, correct=options[i % 4])
            for i in range(40)
        ]
        import random

        rng = random.Random(77)
        responses = [
            ExamineeResponses.of(
                f"s{i:03d}", [rng.choice(options) for _ in range(40)]
            )
            for i in range(size)
        ]
        return responses, specs

    def test_multi_character_labels(self):
        responses, specs = self._bulk()
        fast, reference = both_engines(responses, specs)
        assert fast == reference

    def test_non_ascii_labels(self):
        options = ("α", "β", "γ", "δ")
        specs = [
            QuestionSpec(options=options, correct=options[i % 4])
            for i in range(40)
        ]
        import random

        rng = random.Random(78)
        responses = [
            ExamineeResponses.of(
                f"s{i:03d}", [rng.choice(options) for _ in range(40)]
            )
            for i in range(60)
        ]
        fast, reference = both_engines(responses, specs)
        assert fast == reference

    def test_single_skip_forces_fallback(self):
        responses, specs = make_random_cohort(79, 80, 40, 4, 0.0, False)
        damaged = list(responses)
        damaged[17] = ExamineeResponses.of(
            damaged[17].examinee_id,
            [None] + list(damaged[17].selections[1:]),
        )
        fast, reference = both_engines(damaged, specs)
        assert fast == reference

    @staticmethod
    def _wide_heterogeneous_cohort(questions=520, size=40, seed=85):
        # option *order* rotates with period 3 (3 does not divide 512),
        # so question q's label->code table differs from question
        # (q - 512)'s: a wrapped gather decodes through the wrong table
        # and yields wrong codes, not a detectable _UNSEEN marker
        import random

        base = ("A", "B", "C", "D")

        def rotated(index):
            shift = index % 3
            return base[shift:] + base[:shift]

        specs = [
            QuestionSpec(options=rotated(i), correct=rotated(i)[0])
            for i in range(questions)
        ]
        rng = random.Random(seed)
        responses = [
            ExamineeResponses.of(
                f"s{i:03d}", [rng.choice(s.options) for s in specs]
            )
            for i in range(size)
        ]
        return responses, specs

    def test_wide_exam_vector_encode_is_exact(self):
        # regression: uint16 gather offsets wrapped past question 512
        # (512 * 128 = 65536), decoding wide exams through other
        # questions' interning tables and silently corrupting results
        responses, specs = self._wide_heterogeneous_cohort()
        matrix = ResponseMatrix(specs)
        selections = [r.selections for r in responses]
        for name in KERNEL_SETS:
            with kernel_set(name):
                encoded = matrix._vector_encode(selections)
            assert encoded is not None  # the fast shape must engage
            assert encoded == b"".join(map(matrix._encode_row, selections))

    def test_wide_exam_engines_bit_identical(self):
        responses, specs = self._wide_heterogeneous_cohort()
        fast, reference = both_engines(responses, specs)
        assert fast == reference

    def test_stray_label_outside_groups_forces_interning(self):
        # a mid-scoring examinee picks a label no question offers: both
        # engines must tolerate it (it never lands in an extreme group)
        responses, specs = make_random_cohort(80, 81, 6, 4, 0.0, True)
        scores = reference_analyze_cohort(responses, specs).scores
        ranked = sorted(responses, key=lambda r: scores[r.examinee_id])
        mid = ranked[len(ranked) // 2]
        altered = [
            ExamineeResponses.of(
                r.examinee_id, ["ZZZ"] + list(r.selections[1:])
            )
            if r is mid
            else r
            for r in responses
        ]
        fast, reference = both_engines(altered, specs)
        assert fast == reference
