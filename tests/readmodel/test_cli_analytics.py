"""The ``mine-assess analytics`` subcommand and ``serve --readmodel``."""

import json

import pytest

from readmodel_helpers import journaled_lms, enroll_cohort

from repro.cli import main
from repro.readmodel import rebuild, save_readmodel
from repro.server.serialize import analysis_to_dict
from repro.store import Journal


@pytest.fixture
def wal(tmp_path):
    """A journaled history: 4 learners sit and submit, one re-sits."""
    journal = Journal.open(tmp_path, fsync="never")
    lms, clock = journaled_lms(journal)
    cohort = ["amy", "bob", "cat", "dan"]
    enroll_cohort(lms, cohort)
    for index, learner_id in enumerate(cohort):
        lms.start_exam(learner_id, "ex1")
        lms.answer(learner_id, "ex1", "q1", "ABC"[index % 3])
        lms.answer(learner_id, "ex1", "q2", "B")
        clock.advance(20.0)
        lms.submit(learner_id, "ex1")
    lms.start_exam("amy", "ex1")
    lms.answer("amy", "ex1", "q1", "A")
    lms.submit("amy", "ex1")
    journal.sync()
    expected = json.dumps(
        analysis_to_dict(lms.live_analysis("ex1")), sort_keys=True
    )
    journal.close()
    return {"dir": tmp_path, "expected": expected}


class TestRebuild:
    def test_rebuild_prints_the_live_analysis(self, wal, capsys):
        code = main(
            ["analytics", "rebuild", str(wal["dir"]), "--exam", "ex1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journals"] == 1
        assert payload["exams"] == ["ex1"]
        assert payload["summary"]["submits"] == 5  # amy sat twice
        assert payload["summary"]["distribution"]["count"] == 4
        assert json.dumps(
            payload["analysis"], sort_keys=True
        ) == wal["expected"]

    def test_out_writes_the_same_document(self, wal, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("out") / "analytics.json"
        code = main(
            [
                "analytics", "rebuild", str(wal["dir"]),
                "--exam", "ex1", "--out", str(out),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out.read_text(encoding="utf-8"))
        assert printed == written

    def test_unknown_exam_fails_cleanly(self, wal, capsys):
        code = main(
            ["analytics", "rebuild", str(wal["dir"]), "--exam", "ghost"]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err


class TestAsOf:
    def test_asof_lsn_bounds_the_fold(self, wal, capsys):
        code = main(
            ["analytics", "asof", str(wal["dir"]), "--lsn", "13"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        # lsn 13 = offer + 4x(register+enroll) + start + 2 answers +
        # submit: exactly amy's first sitting has landed
        assert payload["applied_events"] == 13
        assert "as of lsn 13" in captured.err

    def test_asof_uses_checkpoints(self, wal, capsys):
        save_readmodel(rebuild(wal["dir"]), wal["dir"])
        code = main(
            ["analytics", "asof", str(wal["dir"]), "--ts", "1e18",
             "--exam", "ex1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "0 suffix record(s) replayed" in captured.err
        assert json.dumps(
            payload["analysis"], sort_keys=True
        ) == wal["expected"]

    def test_asof_needs_exactly_one_target(self, wal, capsys):
        assert main(["analytics", "asof", str(wal["dir"])]) == 2
        assert main(
            ["analytics", "asof", str(wal["dir"]), "--lsn", "1", "--ts", "2"]
        ) == 2

    def test_rebuild_rejects_targets(self, wal, capsys):
        assert main(
            ["analytics", "rebuild", str(wal["dir"]), "--lsn", "1"]
        ) == 2


class TestServeFlag:
    def test_readmodel_requires_wal_dir(self, capsys):
        code = main(["serve", "--port", "0", "--readmodel"])
        assert code == 2
        assert "--wal-dir" in capsys.readouterr().err
