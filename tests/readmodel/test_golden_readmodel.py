"""A read-model checkpoint written before the shared cohort fold resumes.

``golden_readmodel/`` holds a WAL and a ``readmodel-<lsn>.json`` that
covers a prefix of it, both written by the last build whose LMS and read
model kept separate folds (see
``golden_readmodel/make_golden_readmodel.py``), with the overview, the
exam summaries and the analyses their full rebuild reached.  Every test
works on a copy of the directory.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import obs
from repro.core.errors import JournalCorruptError
from repro.obs import Registry
from repro.readmodel import ReadModel, as_of, readmodel_files, rebuild
from repro.readmodel.service import ReadModelService
from repro.server.serialize import analysis_to_dict

GOLDEN = Path(__file__).parent / "golden_readmodel"


def as_json(value):
    return json.dumps(value, sort_keys=True)


def expected():
    with open(GOLDEN / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def document(model):
    return {
        "overview": model.overview(),
        "exams": {
            exam_id: {
                "summary": model.exam(exam_id).summary(),
                "analysis": analysis_to_dict(model.exam(exam_id).analysis()),
            }
            for exam_id in sorted(model.exams)
        },
    }


@pytest.fixture
def wal(tmp_path):
    copy = tmp_path / "wal"
    shutil.copytree(GOLDEN / "wal", copy)
    return copy


def test_fixture_checkpoint_covers_a_prefix_with_an_open_sitting(wal):
    (checkpoint,) = readmodel_files(wal)
    state = json.loads(checkpoint.read_text(encoding="utf-8"))
    assert state["format"] == "mine-readmodel-v1"
    assert 0 < state["applied_lsn"] < expected()["overview"]["applied_lsn"]
    assert state["pending"], "a sitting's answers straddle the checkpoint"
    assert state["events"]["calibrate"] == 1


def test_service_resumes_from_the_fixture_checkpoint(wal, monkeypatch):
    (checkpoint,) = readmodel_files(wal)
    covered = json.loads(checkpoint.read_text(encoding="utf-8"))[
        "applied_lsn"
    ]
    folded = []
    apply = ReadModel.apply

    def recording_apply(self, record):
        folded.append(record.lsn)
        return apply(self, record)

    monkeypatch.setattr(ReadModel, "apply", recording_apply)
    registry = Registry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        service = ReadModelService(wal)
        assert registry.counter("readmodel.resumes") == 1
        assert service.model.applied_lsn == covered
        service.sync()
    finally:
        obs.set_registry(previous)
    assert folded[0] == covered + 1, "no fold starts at LSN 1"
    assert as_json(document(service.model)) == as_json(expected())


def test_rebuild_reaches_the_expected_model(wal):
    assert as_json(document(rebuild(wal))) == as_json(expected())


def test_the_recovered_lms_serves_the_same_analyses(wal):
    from repro.store import recover

    lms = recover(wal).lms
    for exam_id, entry in expected()["exams"].items():
        served = analysis_to_dict(lms.live_analysis(exam_id))
        assert as_json(served) == as_json(entry["analysis"])


def test_a_lost_middle_segment_fails_every_reader(wal):
    """Without its middle segment the log lacks records 3..120: ``as_of``
    past the fixture checkpoint, a rebuild and a recovery all name them
    rather than fold around the hole."""
    from repro.store import recover

    (wal / "wal-00000000000000000003.walb").unlink()
    for read in (lambda: as_of(wal, lsn=130), lambda: rebuild(wal),
                 lambda: recover(wal)):
        with pytest.raises(JournalCorruptError, match=r"records 3\.\.120 "):
            read()
