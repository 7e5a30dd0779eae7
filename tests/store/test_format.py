"""Unit tests for the binary WAL codec (repro.store.format).

The codec is the byte-level contract of format-2 segments: every value
the JSONL format can carry must round-trip, in both record-body forms
(schema-coded LMS events and the generic fallback), every truncation
must raise ``ValueError`` (the journal scanner's torn-tail signal), and
the header must reject anything that is not a version-2 or -3 segment.
The event codes and field orders are pinned as literals: they are on
disk, so a reorder must fail here before it can misread a WAL.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import events
from repro.store.events import EVENT_FIELDS, EVENT_TYPES
from repro.store.format import (
    EVENT_CODES,
    SEGMENT_HEADER_LEN,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    UnsupportedVersionError,
    check_segment_header,
    decode_body,
    decode_varint,
    decode_value,
    encode_body,
    encode_varint,
    encode_value,
    segment_header,
)
from repro.store.journal import Journal

#: the on-disk event codes; a code, once written, keeps its meaning
PINNED_CODES = {
    "offer": 0x10,
    "register": 0x11,
    "enroll": 0x12,
    "start": 0x13,
    "answer": 0x14,
    "answers": 0x15,
    "suspend": 0x16,
    "resume": 0x17,
    "submit": 0x18,
    "monitor": 0x19,
    "calibrate": 0x1A,
}
#: the on-disk field order of every coded event type
PINNED_FIELDS = {
    "offer": ("exam",),
    "register": ("learner_id", "name", "email"),
    "enroll": ("learner_id", "exam_id", "ts"),
    "start": ("learner_id", "exam_id", "ts"),
    "answer": ("learner_id", "exam_id", "item_id", "response", "ts"),
    "answers": ("learner_id", "exam_id", "answers", "ts"),
    "suspend": ("learner_id", "exam_id", "ts"),
    "resume": ("learner_id", "exam_id", "ts"),
    "submit": ("learner_id", "exam_id", "ts"),
    "monitor": ("learner_id", "exam_id", "ts"),
    "calibrate": ("exam_id", "version", "parameters", "ts"),
}

#: one payload per event type, as ``events.event`` binds them
BUILT = {
    "offer": events.event("offer", {"exam_id": "ex1", "items": []}),
    "register": events.event("register", "amy", "Amy", "amy@example.org"),
    "answer": events.event("answer", "amy", "ex1", "q1", "B", 2.5),
    "answers": events.event(
        "answers", "amy", "ex1", [["q1", "B"], ["q2", ["A", "C"]]], 3.5
    ),
    "calibrate": events.event(
        "calibrate", "ex1", 2, {"q1": {"a": 1.2, "b": -0.5, "c": 0.0}}, 4.5
    ),
}
for _type in ("enroll", "start", "suspend", "resume", "submit", "monitor"):
    BUILT[_type] = events.event(_type, "amy", "ex1", 1.5)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 300, 2**14, 2**31, 2**63, 2**64 - 1]
    )
    def test_round_trip(self, value):
        raw = encode_varint(value)
        decoded, offset = decode_varint(raw, 0)
        assert decoded == value
        assert offset == len(raw)

    def test_small_values_take_one_byte(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        raw = encode_varint(2**31)
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                decode_varint(raw[:cut], 0)

    def test_unterminated_run_raises(self):
        # continuation bit set on every byte: never terminates
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11, 0)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            1,
            42,
            -(2**40),
            2**40,
            0.0,
            3.5,
            -2.25,
            1e300,
            "",
            "amy",
            "naïve résumé — 試験",
            [],
            [1, "a", None, True],
            {},
            {"learner_id": "amy", "score": 0.75},
            {"nested": {"list": [1, [2, {"deep": None}]]}},
        ],
    )
    def test_round_trip(self, value):
        raw = encode_value(value)
        decoded, offset = decode_value(raw)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(raw)

    def test_bool_is_not_confused_with_int(self):
        # bool is an int subclass; the codec must keep them distinct
        assert decode_value(encode_value(True))[0] is True
        assert decode_value(encode_value(1))[0] == 1
        assert decode_value(encode_value(1))[0] is not True

    def test_every_truncation_raises(self):
        raw = encode_value(
            {"learner_id": "amy", "response": ["B", None, 3.5], "ok": True}
        )
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                decode_value(raw[:cut])

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            decode_value(b"\x7f")

    def test_unencodable_type_raises(self):
        with pytest.raises(ValueError):
            encode_value({"bad": object()})

    def test_non_string_dict_key_raises(self):
        with pytest.raises(ValueError):
            encode_value({1: "a"})


class TestSegmentHeader:
    def test_header_layout(self):
        raw = segment_header()
        assert len(raw) == SEGMENT_HEADER_LEN
        assert raw.startswith(SEGMENT_MAGIC)
        check_segment_header(raw)  # does not raise

    def test_truncated_header_raises(self):
        for cut in range(SEGMENT_HEADER_LEN):
            with pytest.raises(ValueError):
                check_segment_header(segment_header()[:cut])

    def test_bad_magic_raises(self):
        raw = bytearray(segment_header())
        raw[0] ^= 0xFF
        with pytest.raises(ValueError):
            check_segment_header(bytes(raw))

    def test_unsupported_version_raises(self):
        with pytest.raises(ValueError):
            check_segment_header(segment_header(version=99))

    def test_new_segments_are_version_3_and_version_2_still_reads(self):
        assert SEGMENT_VERSION == 3
        assert check_segment_header(segment_header()) == 3
        assert check_segment_header(segment_header(version=2)) == 2

    def test_only_a_wrong_version_is_unsupported(self):
        # a torn or foreign header is a plain ValueError (a torn tail);
        # a whole one with the right magic and an unknown version is not
        with pytest.raises(UnsupportedVersionError):
            check_segment_header(segment_header(version=4))
        bad_magic = b"XXXX" + segment_header(version=4)[4:]
        for raw in (segment_header(version=4)[:7], bad_magic):
            with pytest.raises(ValueError) as caught:
                check_segment_header(raw)
            assert not isinstance(caught.value, UnsupportedVersionError)


class TestBody:
    def test_round_trip(self):
        body = encode_body(7, "answer", {"learner_id": "amy", "n": 3})
        assert decode_body(body) == (
            7,
            "answer",
            {"learner_id": "amy", "n": 3},
        )

    def test_trailing_bytes_rejected(self):
        for body in (
            encode_body(1, "answer", {}),
            encode_body(1, "submit", BUILT["submit"]),  # code form
        ):
            with pytest.raises(ValueError):
                decode_body(body + b"\x00")

    def test_nonpositive_lsn_rejected(self):
        with pytest.raises(ValueError):
            decode_body(encode_body(0, "answer", {}))

    def test_non_dict_data_rejected(self):
        bad = encode_varint(1) + encode_value("answer") + encode_value("x")
        with pytest.raises(ValueError):
            decode_body(bad)

    def test_non_string_type_rejected(self):
        bad = encode_varint(1) + encode_value(5) + encode_value({})
        with pytest.raises(ValueError):
            decode_body(bad)


class TestCodeForm:
    """LMS events with exactly their table fields: one code byte, then
    the values, no type name and no key names."""

    def test_codes_are_pinned(self):
        assert EVENT_CODES == PINNED_CODES
        assert EVENT_TYPES == tuple(PINNED_CODES)

    def test_fields_are_pinned(self):
        assert EVENT_FIELDS == PINNED_FIELDS

    def test_builders_emit_exactly_the_table_fields_in_order(self):
        assert set(BUILT) == set(EVENT_FIELDS)
        for type_, data in BUILT.items():
            assert tuple(data) == EVENT_FIELDS[type_], type_

    @pytest.mark.parametrize("type_", EVENT_TYPES)
    def test_builder_payloads_take_the_code_form(self, type_):
        body = encode_body(1, type_, BUILT[type_])
        assert body[1] == EVENT_CODES[type_]
        assert decode_body(body) == (1, type_, BUILT[type_])

    @settings(max_examples=150, deadline=None)
    @given(
        type_=st.sampled_from(EVENT_TYPES),
        lsn=st.integers(min_value=1, max_value=2**40),
        data=st.data(),
    )
    def test_round_trip(self, type_, lsn, data):
        payload = {
            name: data.draw(json_values, label=name)
            for name in EVENT_FIELDS[type_]
        }
        body = encode_body(lsn, type_, payload)
        assert body[len(encode_varint(lsn))] == EVENT_CODES[type_]
        decoded = decode_body(body)
        assert decoded == (lsn, type_, payload)
        assert list(decoded[2]) == list(payload)

    @settings(max_examples=100, deadline=None)
    @given(
        type_=st.sampled_from(EVENT_TYPES),
        data=st.data(),
    )
    def test_other_keys_take_the_fallback_form(self, type_, data):
        fields = list(EVENT_FIELDS[type_])
        keys = data.draw(
            st.lists(st.text(max_size=10), unique=True, max_size=5).filter(
                lambda keys: keys != fields
            ),
            label="keys",
        )
        payload = {key: data.draw(json_values, label=key) for key in keys}
        body = encode_body(9, type_, payload)
        assert body[1] == 0x05  # value(type): a str tag
        decoded = decode_body(body)
        assert decoded == (9, type_, payload)
        assert list(decoded[2]) == keys

    def test_unknown_type_takes_the_fallback_form(self):
        body = encode_body(3, "future", {"learner_id": "amy"})
        assert body[1] == 0x05
        assert decode_body(body) == (3, "future", {"learner_id": "amy"})

    def test_reordered_keys_take_the_fallback_form(self):
        data = {"exam_id": "ex1", "learner_id": "amy", "ts": 1.0}
        body = encode_body(3, "submit", data)
        assert body[1] == 0x05
        assert list(decode_body(body)[2]) == ["exam_id", "learner_id", "ts"]

    @pytest.mark.parametrize("type_", EVENT_TYPES)
    def test_every_truncation_raises(self, type_):
        body = encode_body(300, type_, BUILT[type_])
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                decode_body(body[:cut])

    def test_unknown_code_raises(self):
        next_code = max(EVENT_CODES.values()) + 1
        with pytest.raises(ValueError):
            decode_body(encode_varint(1) + bytes([next_code]))

    def test_answer_record_is_50_bytes(self, tmp_path):
        """The whole classroom answer record — length, CRC and body — at
        a two-byte LSN, as ``bytes_appended`` counts it (98 B in the
        fallback form)."""
        event = events.event(
            "answer", "sim-0000", "classroom-mid", "q01", "B", 1234.567
        )
        with Journal.open(tmp_path, fsync="never") as journal:
            for _ in range(200):
                journal.append("answer", event)
            before = journal.bytes_appended
            journal.append("answer", event)
            assert journal.bytes_appended - before == 50
