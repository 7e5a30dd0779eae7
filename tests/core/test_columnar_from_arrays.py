"""Tests for the array-native ingestion path
(``ResponseMatrix.from_arrays`` / ``extend_codes``)."""

import pytest

from columnar_cases import (
    KERNEL_SETS,
    kernel_set,
    make_random_cohort,
    on_each_kernel_set,
)

from repro.core.columnar import SKIP, LiveCohortAnalysis, ResponseMatrix
from repro.core.errors import AnalysisError
from repro.core.question_analysis import QuestionSpec, analyze_cohort

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None


def encode_cohort(responses, specs):
    """Reference encoding: option index per cell, SKIP for None."""
    buffer = bytearray()
    for response in responses:
        for selection, spec in zip(response.selections, specs):
            buffer.append(
                SKIP if selection is None else spec.options.index(selection)
            )
    return bytes(buffer)


class TestFromArrays:
    def test_equals_object_ingestion(self):
        responses, specs = make_random_cohort(3, 60, 8, 5, 0.2, False)
        ids = [response.examinee_id for response in responses]

        def adopt():
            matrix = ResponseMatrix.from_arrays(
                specs, ids, encode_cohort(responses, specs)
            )
            return matrix.scores, matrix.analyze()

        scores, analysis = on_each_kernel_set(adopt)
        assert analysis == analyze_cohort(responses, specs)
        assert scores == [
            sum(
                1
                for selection, spec in zip(response.selections, specs)
                if selection == spec.correct
            )
            for response in responses
        ]

    @pytest.mark.skipif(numpy is None, reason="needs numpy")
    def test_accepts_2d_uint8_array(self):
        responses, specs = make_random_cohort(4, 40, 6, 4, 0.1, False)
        ids = [response.examinee_id for response in responses]
        flat = numpy.frombuffer(
            encode_cohort(responses, specs), dtype=numpy.uint8
        )
        matrix = ResponseMatrix.from_arrays(specs, ids, flat.reshape(40, 6))
        assert matrix.analyze() == analyze_cohort(responses, specs)

    def test_empty_append_is_noop(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        matrix = ResponseMatrix(specs)
        matrix.extend_codes([], b"")
        assert len(matrix) == 0

    def test_incremental_extend_codes(self):
        responses, specs = make_random_cohort(5, 50, 4, 4, 0.0, False)
        ids = [response.examinee_id for response in responses]
        buffer = encode_cohort(responses, specs)
        matrix = ResponseMatrix(specs)
        matrix.extend_codes(ids[:20], buffer[: 20 * 4])
        matrix.extend_codes(ids[20:], buffer[20 * 4 :])
        assert matrix.analyze() == analyze_cohort(responses, specs)

    def test_shape_mismatch_rejected(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 2
        with pytest.raises(AnalysisError, match="needs"):
            ResponseMatrix.from_arrays(specs, ["s1"], b"\x00\x01\x00")

    def test_out_of_range_code_rejected(self):
        specs = [QuestionSpec(options=("A", "B", "C"), correct="A")]
        for name in KERNEL_SETS:
            with kernel_set(name), pytest.raises(
                AnalysisError, match="only 3 options"
            ):
                ResponseMatrix.from_arrays(specs, ["s1", "s2"], bytes([1, 3]))

    def test_first_bad_code_is_named_alike_on_each_kernel_set(self):
        # the questions differ in option count, so no one bound fits the
        # whole buffer; the first bad cell in row-major order is s2's
        # code 5 on question 2, though s3 holds an earlier column's
        specs = [
            QuestionSpec(options=("A", "B"), correct="A"),
            QuestionSpec(options=("A", "B", "C", "D"), correct="A"),
        ]
        codes = bytes([0, 3, 1, 5, 2, 1])
        for name in KERNEL_SETS:
            with kernel_set(name), pytest.raises(
                AnalysisError,
                match="'s2' has code 5 on question 2, which has only 4",
            ):
                ResponseMatrix.from_arrays(specs, ["s1", "s2", "s3"], codes)

    def test_skip_code_accepted(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        matrix = ResponseMatrix.from_arrays(specs, ["s1"], bytes([SKIP]))
        assert matrix.scores == [0]

    def test_duplicate_ids_rejected(self):
        specs = [QuestionSpec(options=("A", "B"), correct="A")]
        with pytest.raises(AnalysisError, match="duplicate examinee id"):
            ResponseMatrix.from_arrays(specs, ["s1", "s1"], bytes([0, 1]))
        matrix = ResponseMatrix.from_arrays(specs, ["s1"], bytes([0]))
        with pytest.raises(AnalysisError, match="duplicate examinee id"):
            matrix.extend_codes(["s1"], bytes([1]))

    def test_mixes_with_add_sitting(self):
        responses, specs = make_random_cohort(6, 30, 5, 4, 0.1, False)
        split_at = 15
        matrix = ResponseMatrix(specs)
        for response in responses[:split_at]:
            matrix.add_sitting(response)
        tail = responses[split_at:]
        matrix.extend_codes(
            [response.examinee_id for response in tail],
            encode_cohort(tail, specs),
        )
        assert matrix.analyze() == analyze_cohort(responses, specs)


class TestLiveExtendCodes:
    def test_live_sink_matches_object_path(self):
        responses, specs = make_random_cohort(7, 40, 5, 4, 0.0, False)
        live = LiveCohortAnalysis(specs)
        live.extend_codes(
            [response.examinee_id for response in responses],
            encode_cohort(responses, specs),
        )
        assert len(live) == 40
        assert live.width == 5
        assert live.analysis() == analyze_cohort(responses, specs)

    def test_extend_codes_invalidates_cache(self):
        responses, specs = make_random_cohort(8, 40, 5, 4, 0.0, False)
        live = LiveCohortAnalysis(specs)
        head, tail = responses[:30], responses[30:]
        live.extend_codes(
            [response.examinee_id for response in head],
            encode_cohort(head, specs),
        )
        first = live.analysis()
        live.extend_codes(
            [response.examinee_id for response in tail],
            encode_cohort(tail, specs),
        )
        assert len(live.analysis().scores) == 40
        assert live.analysis() is not first
