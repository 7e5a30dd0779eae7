"""A WAL of v1 JSON lines, as older builds wrote it, still reads,
recovers, upgrades, tails and retires.

``golden_v1/`` holds three ``.jsonl`` segments written by the last
build that could write them (see ``golden_v1/make_golden_v1.py``),
covering every event type and leaving two sittings open, with the
records they decode to and the ``state_fingerprint`` their recovery
reached.  Every test works on a copy of the directory.
``v1log.encode_v1_record`` is pinned here to the fixture's bytes,
so the properties that need other v1 segments can write them.
"""

import importlib.util
import json
import shutil
import threading
from pathlib import Path

import pytest

from v1log import GOLDEN_V1, V1Log

from repro.core.errors import JournalCorruptError
from repro.delivery.clock import ManualClock
from repro.lms.lms import Lms
from repro.store import (
    EVENT_TYPES,
    Checkpointer,
    Journal,
    JournalTailer,
    read_records,
    recover,
    scan_segment,
    segment_files,
    segment_first_lsn,
    state_fingerprint,
)
from repro.store.events import event


def load(name):
    with open(GOLDEN_V1 / name, encoding="utf-8") as handle:
        return json.load(handle)


def as_json(value):
    return json.dumps(value, sort_keys=True)


@pytest.fixture
def wal(tmp_path):
    copy = tmp_path / "wal"
    shutil.copytree(GOLDEN_V1 / "wal", copy)
    return copy


def decoded(records):
    return [[r.lsn, r.type, r.data] for r in records]


def test_fixture_is_v1_segments_with_open_sittings():
    segments = segment_files(GOLDEN_V1 / "wal")
    assert [p.suffix for p in segments] == [".jsonl"] * 3
    assert {type_ for _, type_, _ in load("records.json")} == set(EVENT_TYPES)
    sittings = load("fingerprint.json")["sittings"]
    assert sorted(
        key
        for key, sitting in sittings.items()
        if sitting["session"]["state"] != "submitted"
    ) == ["cy:classroom-mid", "dot:classroom-mid"]


def test_the_test_writer_reproduces_the_fixture_bytes(tmp_path):
    golden = segment_files(GOLDEN_V1 / "wal")
    starts = [segment_first_lsn(p) for p in golden]
    with V1Log(tmp_path) as log:
        for lsn, type_, data in load("records.json"):
            if lsn in starts[1:]:
                log.rotate()
            assert log.append(type_, data) == lsn
    written = segment_files(tmp_path)
    assert [p.name for p in written] == [p.name for p in golden]
    for ours, theirs in zip(written, golden):
        assert ours.read_bytes() == theirs.read_bytes()


def test_scan_decodes_the_expected_records(wal):
    records = []
    for segment in segment_files(wal):
        scan = scan_segment(segment)
        assert scan.error is None and scan.torn_bytes == 0
        assert scan.version == 0
        records += decoded(scan.records)
    assert records == load("records.json")
    assert decoded(read_records(wal, start_lsn=20)) == records[20:]


def test_recover_reaches_the_committed_fingerprint(wal):
    report = recover(wal)
    assert report.records_replayed == len(load("records.json"))
    assert report.torn_bytes == 0
    assert as_json(state_fingerprint(report.lms)) == as_json(
        load("fingerprint.json")
    )


def test_a_torn_tail_cut_at_every_byte_reads_a_prefix(wal):
    tail = segment_files(wal)[-1]
    whole = tail.read_bytes()
    sealed = segment_first_lsn(tail) - 1
    previous = sealed
    for cut in range(len(whole) + 1):
        tail.write_bytes(whole[:cut])
        lsns = [r.lsn for r in read_records(wal)]  # must never raise
        assert lsns == list(range(1, len(lsns) + 1))
        assert previous <= len(lsns)
        previous = len(lsns)
        scan = scan_segment(tail)
        assert scan.valid_bytes + scan.torn_bytes == cut
    assert previous == len(load("records.json"))


def test_a_flipped_byte_in_the_tail_only_shortens_the_log(wal):
    intact = load("records.json")
    tail = segment_files(wal)[-1]
    whole = tail.read_bytes()
    for offset in range(len(whole)):
        for xor in (0x01, 0x80):
            damaged = bytearray(whole)
            damaged[offset] ^= xor
            tail.write_bytes(bytes(damaged))
            records = decoded(read_records(wal))
            assert len(records) < len(intact), (offset, xor)
            assert records == intact[: len(records)]


def test_damage_in_an_earlier_segment_raises(wal):
    first = segment_files(wal)[0]
    raw = bytearray(first.read_bytes())
    raw[100] ^= 0x01
    first.write_bytes(bytes(raw))
    with pytest.raises(JournalCorruptError):
        list(read_records(wal))
    with pytest.raises(JournalCorruptError):
        recover(wal)


def test_open_seals_the_v1_tail_and_continues_in_v3(wal):
    expected = len(load("records.json"))
    before = {p: p.read_bytes() for p in segment_files(wal)}
    report = recover(wal)
    with Journal.open(wal, fsync="never") as journal:
        assert journal.last_lsn == expected
        assert journal.repaired_bytes == 0
        report.lms.attach_journal(journal)
        report.lms.answer("cy", "classroom-mid", "q02", "B")
        report.lms.submit("dot", "classroom-mid")
    *sealed, current = segment_files(wal)
    assert {p: p.read_bytes() for p in sealed} == before  # never written
    assert current.name == f"wal-{expected + 1:020d}.walb"
    assert current.read_bytes()[4] == 3  # header version
    lsns = [r.lsn for r in read_records(wal)]
    assert lsns == list(range(1, expected + 3))
    assert as_json(state_fingerprint(recover(wal).lms)) == as_json(
        state_fingerprint(report.lms)
    )


def test_tailer_reads_across_the_upgrade_exactly_once(wal):
    expected = load("records.json")
    tailer = JournalTailer(wal)
    seen = tailer.poll()
    assert decoded(seen) == expected
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
    assert tailer.segments_followed == 4


def test_a_checkpoint_retires_the_v1_history(wal):
    report = recover(wal)
    with Journal.open(wal, fsync="never") as journal:
        report.lms.attach_journal(journal)
        report.lms.submit("cy", "classroom-mid")
        result = Checkpointer(report.lms, journal).checkpoint()
    assert [p.suffix for p in result.retired_segments] == [".jsonl"] * 3
    assert [p.suffix for p in segment_files(wal)] == [".walb"]
    again = recover(wal)
    assert again.checkpoint_lsn == result.covered_lsn == len(
        load("records.json")
    ) + 1
    assert as_json(state_fingerprint(again.lms)) == as_json(
        state_fingerprint(report.lms)
    )


def test_the_workload_written_in_v3_recovers_identically(tmp_path):
    """The v1 ≡ v3 differential: the fixture's workload driven through
    this build decodes to the fixture's records and recovers to its
    fingerprint."""
    spec = importlib.util.spec_from_file_location(
        "make_golden_v1", GOLDEN_V1 / "make_golden_v1.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    clock = ManualClock(2000.0)
    journal = Journal.open(tmp_path, fsync="never")
    lms = Lms(clock=clock, journal=journal)
    script.drive(lms, clock, journal)
    journal.close()
    segments = segment_files(tmp_path)
    assert [p.suffix for p in segments] == [".walb"] * 3
    assert [p.read_bytes()[4] for p in segments] == [3] * 3
    records = json.loads(json.dumps(decoded(read_records(tmp_path))))
    assert records == load("records.json")
    expected = as_json(load("fingerprint.json"))
    assert as_json(state_fingerprint(lms)) == expected
    assert as_json(state_fingerprint(recover(tmp_path).lms)) == expected


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["ascending", "descending"])
def test_an_empty_v1_tail_never_shadows_its_successor(
    wal, monkeypatch, reverse
):
    """A crash between creating a v1 segment and writing its first
    record leaves it empty.  The journal seals it, and the binary
    segment after it takes the same first LSN.  In whichever order the
    directory lists the two, a reopen takes the binary one for its tail
    and keeps appending."""
    last = len(load("records.json"))
    (wal / f"wal-{last + 1:020d}.jsonl").write_bytes(b"")
    with Journal.open(wal, fsync="never") as journal:
        assert journal.last_lsn == last
        assert journal.append("register", event("register", "x", "X", "")) == (
            last + 1
        )
    listing = Path.iterdir
    monkeypatch.setattr(
        Path,
        "iterdir",
        lambda self: iter(sorted(listing(self), reverse=reverse)),
    )
    with Journal.open(wal, fsync="never") as journal:
        assert journal.last_lsn == last + 1
        assert journal.append("register", event("register", "y", "Y", "")) == (
            last + 2
        )
    assert [p.suffix for p in segment_files(wal)[-2:]] == [".jsonl", ".walb"]
    assert [r.lsn for r in read_records(wal)] == list(range(1, last + 3))
    assert [r.lsn for r in JournalTailer(wal).poll()] == list(
        range(1, last + 3)
    )
    learners = [learner.learner_id for learner in recover(wal).lms.learners]
    assert learners[-2:] == ["x", "y"]


def test_a_tailer_passes_two_empty_segments_with_one_first_lsn(wal):
    """The same crash, and then one between writing the binary
    segment's header and its first record: both segments at the tip are
    empty.  A poll reads up to them and returns, rather than handing
    over from one to the other for ever."""
    from repro.store.format import segment_header

    last = len(load("records.json"))
    (wal / f"wal-{last + 1:020d}.jsonl").write_bytes(b"")
    (wal / f"wal-{last + 1:020d}.walb").write_bytes(segment_header())
    tailer = JournalTailer(wal)
    polled = []
    worker = threading.Thread(
        target=lambda: polled.append(tailer.poll()), daemon=True
    )
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "poll() did not return"
    assert [r.lsn for r in polled[0]] == list(range(1, last + 1))
    with Journal.open(wal, fsync="never") as journal:
        assert journal.append("register", event("register", "x", "X", "")) == (
            last + 1
        )
    assert [r.lsn for r in tailer.poll()] == [last + 1]
    assert tailer.poll() == []
