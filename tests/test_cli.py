"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


class TestTree:
    def test_prints_metadata_tree(self, capsys):
        assert main(["tree"]) == 0
        out = capsys.readouterr().out
        assert "MINE SCORM Meta-data" in out
        assert "assessment" in out


class TestRules:
    def test_prints_all_four_examples(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for number in (1, 2, 3, 4):
            assert f"Example {number}" in out
            assert f"Rule {number}" in out

    def test_example_1_flags_option_c(self, capsys):
        main(["rules"])
        out = capsys.readouterr().out
        assert "option(s) C attracted nobody" in out


class TestSimulate:
    def test_prints_full_report(self, capsys):
        assert main(["simulate", "--students", "44", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Number representation" in out
        assert "Signal representation" in out
        assert "Two-way specification table" in out

    def test_too_few_students_rejected(self, capsys):
        assert main(["simulate", "--students", "4"]) == 2

    def test_custom_split(self, capsys):
        assert main(["simulate", "--students", "40", "--split", "0.3"]) == 0

    def test_vectorized_sim_engine(self, capsys):
        assert main(
            ["simulate", "--students", "44", "--sim-engine", "vectorized"]
        ) == 0
        out = capsys.readouterr().out
        assert "Number representation" in out
        assert "Signal representation" in out

    def test_auto_sim_engine_export(self, capsys):
        import json

        assert main(
            ["export", "--students", "20", "--sim-engine", "auto"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scores"]) == 20


class TestPackageAndInspect:
    def test_package_then_inspect(self, tmp_path, capsys):
        out_path = str(tmp_path / "exam.zip")
        assert main(["package", "--out", out_path]) == 0
        first = capsys.readouterr().out
        assert "wrote" in first
        assert main(["inspect", out_path]) == 0
        second = capsys.readouterr().out
        assert "manifest: pkg-classroom-mid" in second
        assert "resources:" in second

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "ghost.zip")]) == 2
        assert "cannot read package" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestExport:
    def test_json_export_parses(self, capsys):
        import json

        assert main(["export", "--students", "20", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["title"] == "Classroom Midterm"
        assert len(payload["questions"]) == 10
        assert payload["time_analysis"]["time_limit_seconds"] == 2700

    def test_csv_export_has_paper_header(self, capsys):
        assert main(["export", "--students", "20", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("No,PH,PL,D=PH-PL,P=(PH+PL)/2,signal")
        assert len(out.strip().splitlines()) == 11

    def test_too_few_students_rejected(self):
        assert main(["export", "--students", "4"]) == 2


class TestProfile:
    def test_profile_prints_span_tree_to_stderr(self, capsys):
        assert main(["simulate", "--students", "20", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "Number representation" in captured.out  # report untouched
        err = captured.err
        assert "cli.simulate" in err
        assert "sim.generate" in err
        assert "analyze.columnar" in err
        assert "report.build" in err
        assert "sim.learners.generated" in err

    def test_profile_available_on_every_subcommand(self, capsys):
        assert main(["tree", "--profile"]) == 0
        assert "cli.tree" in capsys.readouterr().err
        assert main(["rules", "--profile"]) == 0
        assert "cli.rules" in capsys.readouterr().err

    def test_profile_path_writes_parseable_jsonl(self, tmp_path, capsys):
        from repro.obs import parse_jsonl

        path = tmp_path / "profile.jsonl"
        assert main(
            ["simulate", "--students", "20", "--profile", str(path)]
        ) == 0
        events = parse_jsonl(path.read_text(encoding="utf-8"))
        kinds = {event["type"] for event in events}
        assert "span" in kinds and "counters" in kinds
        (root,) = [e for e in events if e["type"] == "span"]
        assert root["name"] == "cli.simulate"
        child_names = {child["name"] for child in root["children"]}
        assert "sim.generate" in child_names
        assert "report.build" in child_names

    def test_profile_cleans_up_registry(self, capsys):
        from repro import obs

        assert main(["tree", "--profile"]) == 0
        capsys.readouterr()
        assert obs.enabled() is False
        assert obs.get_registry().sinks == []
        assert obs.snapshot()["spans"] == []

    def test_without_profile_nothing_recorded(self, capsys):
        from repro import obs

        assert main(["simulate", "--students", "20"]) == 0
        capsys.readouterr()
        assert obs.snapshot()["spans"] == []


class TestPaper:
    def test_paper_rendered(self, capsys):
        assert main(["paper", "--questions", "3"]) == 0
        out = capsys.readouterr().out
        assert "Classroom Midterm" in out
        assert "1. Question 1" in out
        assert "(A) alpha" in out

    def test_answer_key(self, capsys):
        assert main(["paper", "--questions", "3", "--key"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Answer key")
        assert "[q01]" in out


class TestServe:
    def test_serve_boots_restores_state_and_answers_http(self, tmp_path):
        """A ``save_lms`` file copied in as checkpoint 0 is a WAL store
        (how an old ``--state`` file migrates); SIGTERM drains and
        takes a final checkpoint, like ^C."""
        import http.client
        import json
        import subprocess
        import sys

        from repro.lms.learners import Learner
        from repro.lms.lms import Lms
        from repro.lms.persistence import load_lms, save_lms
        from repro.sim.workloads import classroom_exam
        from repro.store import checkpoint_files

        lms = Lms()
        lms.offer_exam(classroom_exam(3))
        lms.register_learner(Learner(learner_id="amy", name="Amy"))
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        save_lms(lms, wal_dir / f"checkpoint-{0:020d}.json")

        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--wal-dir", str(wal_dir),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("serving on http://"), line
            host, port = line.rsplit("/", 1)[1].split(":")
            connection = http.client.HTTPConnection(
                host, int(port), timeout=10
            )
            try:
                connection.request("GET", "/exams")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {
                    "exams": ["classroom-mid"]
                }
                connection.request("GET", "/learners/amy")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["name"] == "Amy"
                connection.request(
                    "POST", "/learners", body=json.dumps(
                        {"learner_id": "bob", "name": "Bob"}
                    ),
                )
                response = connection.getresponse()
                assert response.status == 201
                response.read()
            finally:
                connection.close()
            process.terminate()
            assert process.wait(timeout=30) == 0
        finally:
            process.kill()
            process.wait(timeout=10)
            process.stdout.close()
        newest = checkpoint_files(wal_dir)[-1]
        assert newest.name > f"checkpoint-{0:020d}.json"
        assert sorted(load_lms(newest).learners.ids()) == ["amy", "bob"]


class TestLoadgen:
    def test_loadgen_against_in_process_server(self, tmp_path, capsys):
        import json

        from repro.server.app import ExamServer

        out = tmp_path / "loadgen.json"
        with ExamServer() as server:
            code = main(
                [
                    "loadgen",
                    "--url", server.url,
                    "--students", "12",
                    "--questions", "4",
                    "--seed", "5",
                    "--workers", "3",
                    "--out", str(out),
                ]
            )
        assert code == 0
        printed = capsys.readouterr().out
        assert "12 learners x 4 questions" in printed
        assert "answer" in printed
        summary = json.loads(out.read_text())
        assert summary["learners"] == 12
        assert summary["errors"] == 0
        assert summary["routes"]["answer"]["count"] == 12 * 4
        assert summary["throughput_rps"] > 0

    def test_loadgen_url_required(self):
        with pytest.raises(SystemExit):
            main(["loadgen"])
