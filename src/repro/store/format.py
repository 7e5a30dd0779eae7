"""The compact binary WAL encoding (``.walb`` segments).

Version-1 segments, which older builds wrote and this one still reads,
are JSON lines — readable, but every record paid two ``json.dumps``
passes (one canonical for the CRC, one with the CRC folded in) and the
reader re-canonicalizes to verify.  Binary segments
replace that with a length-prefixed layout built from nothing but
:mod:`struct` and a varint — no third-party codec:

Segment layout::

    +--------------------------------------------------+
    | header: b"MAWL" | u16 version (=3) | u16 reserved |   8 bytes
    +--------------------------------------------------+
    | record: varint body_len | u32 crc32(body) | body  |   repeated
    +--------------------------------------------------+

Record body, in one of two forms told apart by the byte after the LSN::

    varint lsn | event code | value(field_1) ... value(field_n)   code form
    varint lsn | value(type) | value(data)                        fallback

The **code form** carries an LMS event whose payload has exactly the
fields :data:`repro.store.events.EVENT_FIELDS` lists for its type, in
that order: the type is one byte, numbered from ``0x10`` by the type's
position in that table, and the field names are not written at all.
Any other payload — an unknown type, or keys that differ from the
table's — takes the **fallback form**, whose type is a ``str`` value
(tag ``0x05``, below every event code).  The fallback form is the whole
of the version-2 body, so one decoder reads both versions.  The table is
append-only: a code, once written, must keep its meaning.

``value`` is the tag-prefixed encoding below.  All fixed-width integers
are little-endian; varints are unsigned LEB128 (7 bits per byte, high
bit = continuation).

Value encoding (one tag byte, then the payload)::

    0x00 null | 0x01 false | 0x02 true
    0x03 int        zigzag varint (arbitrary magnitude)
    0x04 float      8-byte IEEE-754 double, little-endian
    0x05 str        varint byte-length + UTF-8 bytes
    0x06 list       varint count + elements
    0x07 dict       varint count + (str-encoded key, value) pairs

Header version 3 marks segments that may hold code-form records, so a
reader that knows only version 2 stops at the header instead of
misreading them; this reader accepts :data:`SEGMENT_VERSIONS` and
raises :class:`UnsupportedVersionError` for any other.

The CRC32 covers the raw body bytes, so verification is a single
:func:`zlib.crc32` over a slice — no re-canonicalization.  A record cut
short by a crash fails the length or CRC check and marks the torn tail,
exactly like a torn JSONL line does in a v1 segment; the framing layer
(:func:`repro.store.journal.scan_segment`) auto-detects the format per
segment, so directories that mix v1 and binary files — e.g. after a
mid-stream format upgrade — replay seamlessly.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.store.events import EVENT_FIELDS

__all__ = [
    "EVENT_CODES",
    "SEGMENT_MAGIC",
    "SEGMENT_HEADER_LEN",
    "SEGMENT_VERSION",
    "SEGMENT_VERSIONS",
    "UnsupportedVersionError",
    "segment_header",
    "check_segment_header",
    "encode_varint",
    "decode_varint",
    "encode_value",
    "decode_value",
    "encode_body",
    "decode_body",
]

#: the four bytes every binary segment starts with
SEGMENT_MAGIC = b"MAWL"
#: full header: magic + u16 version + u16 reserved
SEGMENT_HEADER_LEN = 8

#: the header version new segments get
SEGMENT_VERSION = 3
#: every header version this reader decodes (2 never holds code form)
SEGMENT_VERSIONS = (2, 3)

_TAG_NULL = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x06
_TAG_DICT = 0x07

#: event type -> its one-byte code in a code-form record body
EVENT_CODES = {
    type_: 0x10 + index for index, type_ in enumerate(EVENT_FIELDS)
}
_BY_CODE = {
    code: (type_, EVENT_FIELDS[type_]) for type_, code in EVENT_CODES.items()
}

_DOUBLE = struct.Struct("<d")


class UnsupportedVersionError(ValueError):
    """A whole segment header with the right magic names a version this
    reader does not know: a newer build wrote the segment."""


def segment_header(version: int = SEGMENT_VERSION) -> bytes:
    """The 8-byte header a binary segment begins with."""
    return SEGMENT_MAGIC + struct.pack("<HH", version, 0)


def check_segment_header(raw: bytes) -> int:
    """Validate a segment's leading bytes and return the header version;
    ValueError on any defect (:class:`UnsupportedVersionError` when only
    the version is wrong)."""
    if len(raw) < SEGMENT_HEADER_LEN:
        raise ValueError(
            f"segment header truncated ({len(raw)} of "
            f"{SEGMENT_HEADER_LEN} bytes)"
        )
    if raw[:4] != SEGMENT_MAGIC:
        raise ValueError(f"bad segment magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version not in SEGMENT_VERSIONS:
        raise UnsupportedVersionError(
            f"unsupported binary segment version {version}; "
            f"this WAL needs a newer reader"
        )
    return version


# -- varints -------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(raw: bytes, offset: int) -> Tuple[int, int]:
    """``(value, next_offset)``; ValueError when the bytes run out."""
    result = 0
    shift = 0
    while True:
        if offset >= len(raw):
            raise ValueError("varint truncated")
        byte = raw[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:  # > 10 continuation bytes: corrupt, not just big
            raise ValueError("varint too long")


def _encode_zigzag(value: int) -> bytes:
    # classic zigzag without a width assumption: fold sign into bit 0
    return encode_varint((value << 1) if value >= 0 else ((-value << 1) - 1))


def _decode_zigzag(raw: bytes, offset: int) -> Tuple[int, int]:
    encoded, offset = decode_varint(raw, offset)
    value = encoded >> 1
    return (-((encoded + 1) >> 1) if encoded & 1 else value), offset


# -- values --------------------------------------------------------------------


def _encode_into(out: bytearray, value: object) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out += _encode_zigzag(value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        out += encode_varint(len(encoded))
        out += encoded
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += encode_varint(len(value))
        for element in value:
            _encode_into(out, element)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += encode_varint(len(value))
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValueError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            encoded = key.encode("utf-8")
            out += encode_varint(len(encoded))
            out += encoded
            _encode_into(out, element)
    else:
        raise ValueError(
            f"value of type {type(value).__name__} is not journal-encodable"
        )


def encode_value(value: object) -> bytes:
    """One JSON-compatible value as tag-prefixed binary."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def decode_value(raw: bytes, offset: int = 0) -> Tuple[object, int]:
    """``(value, next_offset)``; ValueError on any malformed byte."""
    if offset >= len(raw):
        raise ValueError("value truncated: no tag byte")
    tag = raw[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        return _decode_zigzag(raw, offset)
    if tag == _TAG_FLOAT:
        if offset + 8 > len(raw):
            raise ValueError("float truncated")
        return _DOUBLE.unpack_from(raw, offset)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = decode_varint(raw, offset)
        end = offset + length
        if end > len(raw):
            raise ValueError("string truncated")
        return raw[offset:end].decode("utf-8"), end
    if tag == _TAG_LIST:
        count, offset = decode_varint(raw, offset)
        items: List[object] = []
        for _ in range(count):
            element, offset = decode_value(raw, offset)
            items.append(element)
        return items, offset
    if tag == _TAG_DICT:
        count, offset = decode_varint(raw, offset)
        mapping: Dict[str, object] = {}
        for _ in range(count):
            length, offset = decode_varint(raw, offset)
            end = offset + length
            if end > len(raw):
                raise ValueError("dict key truncated")
            key = raw[offset:end].decode("utf-8")
            element, offset = decode_value(raw, end)
            mapping[key] = element
        return mapping, offset
    raise ValueError(f"unknown value tag 0x{tag:02x}")


# -- record bodies -------------------------------------------------------------


def encode_body(lsn: int, type_: str, data: Dict[str, object]) -> bytes:
    """A record body: varint lsn, then the event in code form when
    ``data`` has exactly its type's fields in order, else in fallback
    form (value(type) + value(data))."""
    out = bytearray(encode_varint(lsn))
    code = EVENT_CODES.get(type_)
    if code is not None and tuple(data) == EVENT_FIELDS[type_]:
        out.append(code)
        for value in data.values():
            _encode_into(out, value)
    else:
        _encode_into(out, type_)
        _encode_into(out, data)
    return bytes(out)


def decode_body(body: bytes) -> Tuple[int, str, Dict[str, object]]:
    """``(lsn, type, data)``; ValueError on any structural defect."""
    lsn, offset = decode_varint(body, 0)
    if offset < len(body) and body[offset] in _BY_CODE:
        type_, fields = _BY_CODE[body[offset]]
        offset += 1
        data = {}
        for name in fields:
            data[name], offset = decode_value(body, offset)
    else:
        type_, offset = decode_value(body, offset)
        data, offset = decode_value(body, offset)
    if offset != len(body):
        raise ValueError(
            f"{len(body) - offset} trailing byte(s) after record body"
        )
    if not isinstance(lsn, int) or lsn < 1:
        raise ValueError(f"bad lsn: {lsn!r}")
    if not isinstance(type_, str) or not type_:
        raise ValueError(f"bad type: {type_!r}")
    if not isinstance(data, dict):
        raise ValueError("record data is not an object")
    return lsn, type_, data
