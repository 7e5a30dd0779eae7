"""A WAL written before schema-coded records still reads, recovers,
upgrades and tails.

``golden_v2/`` holds a version-2 segment written by the last build that
wrote them (see ``golden_v2/make_golden_v2.py``), covering every event
type, with the records it decoded to and the ``state_fingerprint`` its
recovery reached.  Every test works on a copy of the directory.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro.delivery.clock import ManualClock
from repro.lms.lms import Lms
from repro.store import (
    EVENT_TYPES,
    Journal,
    JournalTailer,
    read_records,
    recover,
    scan_segment,
    segment_files,
    state_fingerprint,
)
from repro.store.format import EVENT_CODES, SEGMENT_HEADER_LEN, decode_varint

GOLDEN = Path(__file__).parent / "golden_v2"


def load(name):
    with open(GOLDEN / name, encoding="utf-8") as handle:
        return json.load(handle)


def as_json(value):
    return json.dumps(value, sort_keys=True)


@pytest.fixture
def wal(tmp_path):
    copy = tmp_path / "wal"
    shutil.copytree(GOLDEN / "wal", copy)
    return copy


def header_version(path):
    return int.from_bytes(path.read_bytes()[4:6], "little")


def form_bytes(segment):
    """The byte after each record's LSN: a code, or 0x05 (fallback)."""
    raw = segment.read_bytes()
    pos = SEGMENT_HEADER_LEN
    found = []
    while pos < len(raw):
        body_len, body_start = decode_varint(raw, pos)
        body_start += 4
        _, after_lsn = decode_varint(raw, body_start)
        found.append(raw[after_lsn])
        pos = body_start + body_len
    assert pos == len(raw)
    return found


def test_fixture_is_one_v2_segment_of_fallback_bodies(wal):
    (segment,) = segment_files(wal)
    assert header_version(segment) == 2
    assert set(form_bytes(segment)) == {0x05}


def test_the_lms_writes_every_event_in_code_form(tmp_path):
    """The fixture's workload driven through this build: every record
    is schema-coded, in a version-3 segment, and both the live and the
    recovered state equal the fixture's."""
    spec = importlib.util.spec_from_file_location(
        "make_golden_v2", GOLDEN / "make_golden_v2.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    clock = ManualClock(1000.0)
    journal = Journal.open(tmp_path, fsync="never")
    lms = Lms(clock=clock, journal=journal)
    script.drive(lms, clock)
    journal.close()
    (segment,) = segment_files(tmp_path)
    assert header_version(segment) == 3
    codes = form_bytes(segment)
    assert set(codes) == set(EVENT_CODES.values())
    assert len(codes) == len(load("records.json"))
    expected = as_json(load("fingerprint.json"))
    assert as_json(state_fingerprint(lms)) == expected
    assert as_json(state_fingerprint(recover(tmp_path).lms)) == expected


def test_scan_decodes_the_expected_records(wal):
    (segment,) = segment_files(wal)
    scan = scan_segment(segment)
    assert scan.error is None and scan.torn_bytes == 0
    assert scan.version == 2
    decoded = [[r.lsn, r.type, r.data] for r in scan.records]
    assert decoded == load("records.json")
    assert {r.type for r in scan.records} == set(EVENT_TYPES)


def test_recover_reaches_the_committed_fingerprint(wal):
    report = recover(wal)
    assert report.records_replayed == len(load("records.json"))
    assert report.torn_bytes == 0
    assert as_json(state_fingerprint(report.lms)) == as_json(
        load("fingerprint.json")
    )


def test_open_seals_the_v2_tail_and_continues_in_v3(wal):
    expected = len(load("records.json"))
    before = {p: p.read_bytes() for p in segment_files(wal)}
    report = recover(wal)
    with Journal.open(wal, fsync="never") as journal:
        assert journal.last_lsn == expected
        assert journal.repaired_bytes == 0
        report.lms.attach_journal(journal)
        report.lms.enroll("dee", "adaptive-quiz")
        report.lms.submit("cal", "classroom-mid")
    sealed, current = segment_files(wal)
    assert sealed.read_bytes() == before[sealed]  # never written again
    assert header_version(sealed) == 2
    assert header_version(current) == 3
    assert current.name == f"wal-{expected + 1:020d}.walb"
    lsns = [r.lsn for r in read_records(wal)]
    assert lsns == list(range(1, expected + 3))
    assert as_json(state_fingerprint(recover(wal).lms)) == as_json(
        state_fingerprint(report.lms)
    )


def test_tailer_reads_across_the_upgrade_exactly_once(wal):
    expected = load("records.json")
    tailer = JournalTailer(wal)
    seen = tailer.poll()
    assert [[r.lsn, r.type, r.data] for r in seen] == expected
    with Journal.open(wal, fsync="never") as journal:
        journal.append("enroll", {"learner_id": "x", "exam_id": "y",
                                  "ts": 1.0})
        seen += tailer.poll()
        journal.append_batch([("start", {"learner_id": "x",
                                         "exam_id": "y", "ts": 2.0})] * 2)
    seen += tailer.poll()
    assert tailer.poll() == []
    assert [r.lsn for r in seen] == list(range(1, len(expected) + 4))
    assert seen == list(read_records(wal))
    assert tailer.segments_followed == 2
