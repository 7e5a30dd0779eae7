"""A checkpoint written before checkpoints were streamed still recovers.

``golden_checkpoint/`` holds an indented checkpoint and the WAL suffix
written after it by the last build that wrote such checkpoints (see
``golden_checkpoint/make_golden_checkpoint.py``), with the
``state_fingerprint`` their recovery reached.  Every test works on a
copy of the directory.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.lms.persistence import load_payload
from repro.store import (
    Checkpointer,
    Journal,
    checkpoint_files,
    recover,
    state_fingerprint,
)

GOLDEN = Path(__file__).parent / "golden_checkpoint"


def as_json(value):
    return json.dumps(value, sort_keys=True)


def expected():
    with open(GOLDEN / "fingerprint.json", encoding="utf-8") as handle:
        return as_json(json.load(handle))


@pytest.fixture
def wal(tmp_path):
    copy = tmp_path / "wal"
    shutil.copytree(GOLDEN / "wal", copy)
    return copy


def test_fixture_is_an_indented_checkpoint_and_a_suffix(wal):
    (checkpoint,) = checkpoint_files(wal)
    text = checkpoint.read_text(encoding="utf-8")
    assert text.startswith('{\n  "format": "mine-lms-v1"')
    payload = load_payload(checkpoint)
    states = sorted(
        (s["exam_id"], s["session"]["state"]) for s in payload["sittings"]
    )
    assert ("classroom-mid", "suspended") in states
    assert ("classroom-mid", "in_progress") in states
    assert ("adaptive-quiz", "in_progress") in states
    assert payload["monitor"]["frames"] and payload["calibrations"]


def test_recover_reaches_the_committed_fingerprint(wal):
    report = recover(wal)
    assert report.checkpoint_lsn == load_payload(
        report.checkpoint_path
    )["wal_lsn"]
    assert report.records_replayed > 0 and report.records_skipped > 0
    assert as_json(state_fingerprint(report.lms)) == expected()


def test_a_new_checkpoint_over_it_recovers_to_the_same_state(wal):
    report = recover(wal)
    journal = Journal.open(wal, fsync="never")
    report.lms.attach_journal(journal)
    result = Checkpointer(report.lms, journal).checkpoint()
    journal.close()
    assert result.covered_lsn == report.last_lsn
    text = result.path.read_text(encoding="utf-8")
    assert "\n" not in text
    assert json.dumps(json.loads(text), separators=(",", ":")) == text
    assert as_json(state_fingerprint(recover(wal).lms)) == expected()
