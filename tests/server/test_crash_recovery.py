"""Crash-injection: SIGKILL a serving process, recover every ack.

The durability contract under test: any answer the server *acknowledged*
(HTTP 200 before the kill) is present after :func:`repro.store.recover`
runs over the surviving WAL directory — including answers inside
in-flight sittings that never submitted.  The server process gets no
warning: ``SIGKILL`` mid-cohort, no ``finally`` blocks, no shutdown
checkpoint.

A second pass replays the torn-write fuzz at the directory level: any
truncation of the final surviving segment must still recover cleanly to
a prefix of the acknowledged history.
"""

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bank.exambank import exam_to_record
from repro.sim.workloads import classroom_exam
from repro.store import recover
from repro.store.journal import segment_files

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
QUESTIONS = 6
LABELS = ["A", "B", "C", "D", "E"]

BOOTSTRAP = (
    "from repro.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
)


def spawn_server(wal_dir, fsync="never", extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    process = subprocess.Popen(
        [
            sys.executable,
            "-c",
            BOOTSTRAP,
            "serve",
            "--port",
            "0",
            "--wal-dir",
            str(wal_dir),
            "--fsync",
            fsync,
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + 30
    url = None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith("serving on "):
            url = line[len("serving on "):].strip()
            break
    if url is None:
        process.kill()
        raise RuntimeError("server never announced its URL")
    host, _, port = url[len("http://"):].partition(":")
    return process, host, int(port)


def request(host, port, method, path, body=None):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, payload, headers)
        response = connection.getresponse()
        data = json.loads(response.read() or b"{}")
        return response.status, data
    finally:
        connection.close()


@pytest.fixture(scope="module")
def crashed_run(tmp_path_factory):
    """Serve, drive a cohort, SIGKILL mid-flight; return what was acked."""
    wal_dir = tmp_path_factory.mktemp("crash-wal")
    exam = classroom_exam(QUESTIONS)
    record = exam_to_record(exam)
    process, host, port = spawn_server(wal_dir)
    acked = {"answers": [], "submitted": [], "checkpoint": None}
    try:
        status, _ = request(host, port, "POST", "/exams", record)
        assert status == 201
        learner_ids = [f"crash{i:02d}" for i in range(12)]
        for learner_id in learner_ids:
            status, _ = request(
                host, port, "POST", "/learners",
                {"learner_id": learner_id, "name": learner_id},
            )
            assert status == 201
            status, _ = request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/enrollments",
                {"learner_id": learner_id},
            )
            assert status == 201
            status, _ = request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/sittings/{learner_id}/start",
            )
            assert status == 201
        # learners 0-7 answer everything and submit ...
        for index, learner_id in enumerate(learner_ids[:8]):
            for question in range(1, QUESTIONS + 1):
                item_id = f"q{question:02d}"
                label = LABELS[(index + question) % len(LABELS)]
                status, _ = request(
                    host, port, "POST",
                    f"/exams/{exam.exam_id}/sittings/{learner_id}/answer",
                    {"item_id": item_id, "response": label},
                )
                assert status == 200
                acked["answers"].append((learner_id, item_id, label))
            status, _ = request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/sittings/{learner_id}/submit",
            )
            assert status == 200
            acked["submitted"].append(learner_id)
        # ... a checkpoint lands mid-history ...
        status, body = request(host, port, "POST", "/admin/checkpoint")
        assert status == 200
        acked["checkpoint"] = body["covered_lsn"]
        # ... and learners 8-11 are mid-sitting when the power goes out
        for index, learner_id in enumerate(learner_ids[8:], start=8):
            for question in range(1, index - 6 + 1):  # partial progress
                item_id = f"q{question:02d}"
                label = LABELS[(index * question) % len(LABELS)]
                status, _ = request(
                    host, port, "POST",
                    f"/exams/{exam.exam_id}/sittings/{learner_id}/answer",
                    {"item_id": item_id, "response": label},
                )
                assert status == 200
                acked["answers"].append((learner_id, item_id, label))
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    return {
        "wal_dir": wal_dir,
        "exam": exam,
        "exam_id": exam.exam_id,
        "acked": acked,
    }


def assert_answer_recovered(lms, exam_id, learner_id, item_id, label, acked):
    if learner_id in acked["submitted"]:
        graded = {
            g.learner_id: g for g in lms.results_for(exam_id)
        }[learner_id]
        assert graded.scores[item_id].selected == label
    else:
        sitting = lms.sitting(learner_id, exam_id)
        assert sitting.session.response_to(item_id) == label


class TestSigkillRecovery:
    def test_the_kill_was_ungraceful(self, crashed_run):
        """No shutdown checkpoint ran: the newest checkpoint predates
        the final acked answers."""
        report = recover(crashed_run["wal_dir"])
        assert report.checkpoint_lsn == crashed_run["acked"]["checkpoint"]
        assert report.last_lsn > report.checkpoint_lsn
        assert report.records_replayed > 0

    def test_every_acked_answer_survives(self, crashed_run):
        report = recover(crashed_run["wal_dir"])
        acked = crashed_run["acked"]
        assert acked["answers"], "cohort never ran"
        for learner_id, item_id, label in acked["answers"]:
            assert_answer_recovered(
                report.lms, crashed_run["exam_id"],
                learner_id, item_id, label, acked,
            )

    def test_submitted_sittings_are_graded(self, crashed_run):
        report = recover(crashed_run["wal_dir"])
        graded_ids = {
            g.learner_id
            for g in report.lms.results_for(crashed_run["exam_id"])
        }
        assert graded_ids == set(crashed_run["acked"]["submitted"])

    def test_recovered_analysis_equals_local_analyze_cohort(
        self, crashed_run
    ):
        """THE acceptance differential: the recovered LMS's warm
        ``live_analysis`` == an in-process ``analyze_cohort`` over the
        acknowledged responses, in submission order."""
        from repro.core.question_analysis import (
            ExamineeResponses,
            analyze_cohort,
        )
        from repro.server.serialize import analysis_to_dict

        exam = crashed_run["exam"]
        acked = crashed_run["acked"]
        by_learner = {}
        for learner_id, item_id, label in acked["answers"]:
            by_learner.setdefault(learner_id, {})[item_id] = label
        item_ids = [item.item_id for item in exam.analyzable_items()]
        cohort = [
            ExamineeResponses.of(
                learner_id,
                [by_learner[learner_id].get(item_id) for item_id in item_ids],
            )
            for learner_id in acked["submitted"]  # == submission order
        ]
        local = analyze_cohort(cohort, exam.question_specs())
        report = recover(crashed_run["wal_dir"])
        recovered = report.lms.live_analysis(exam.exam_id)
        assert analysis_to_dict(recovered) == analysis_to_dict(local)

    def test_recovered_server_keeps_serving(self, crashed_run):
        """Boot a fresh server over the survivors; the cohort continues."""
        from repro.server.app import ExamServer

        with ExamServer(lms=None, wal_dir=crashed_run["wal_dir"]) as server:
            status, body = request(
                server.host, server.port, "GET",
                f"/exams/{crashed_run['exam_id']}/sittings/crash09",
            )
            assert status == 200
            assert body["state"] == "in_progress"
            status, _ = request(
                server.host, server.port, "POST",
                f"/exams/{crashed_run['exam_id']}/sittings/crash09/submit",
            )
            assert status == 200


@pytest.fixture(scope="module")
def crashed_batch_run(tmp_path_factory):
    """The batched variant: group-committed ``answers:batch`` requests
    (including the whole-sitting submit form) acked, then SIGKILL."""
    wal_dir = tmp_path_factory.mktemp("crash-batch-wal")
    exam = classroom_exam(QUESTIONS)
    record = exam_to_record(exam)
    # --fsync always group-commits; the flag is accepted and ignored
    # (perfbench's bulk_sync still passes it)
    process, host, port = spawn_server(
        wal_dir, fsync="always", extra=("--group-commit",)
    )
    acked = {"answers": [], "submitted": [], "checkpoint": None}
    try:
        status, _ = request(host, port, "POST", "/exams", record)
        assert status == 201
        learner_ids = [f"batch{i:02d}" for i in range(8)]
        for learner_id in learner_ids:
            request(
                host, port, "POST", "/learners",
                {"learner_id": learner_id, "name": learner_id},
            )
            request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/enrollments",
                {"learner_id": learner_id},
            )
            status, _ = request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/sittings/{learner_id}/start",
            )
            assert status == 201
        # learners 0-5: the whole sitting in ONE batch request
        for index, learner_id in enumerate(learner_ids[:6]):
            answers = [
                {
                    "item_id": f"q{question:02d}",
                    "response": LABELS[(index + question) % len(LABELS)],
                }
                for question in range(1, QUESTIONS + 1)
            ]
            status, body = request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/sittings/{learner_id}/answers:batch",
                {"answers": answers, "submit": True},
            )
            assert status == 200 and body["submitted"] is True
            for entry in answers:
                acked["answers"].append(
                    (learner_id, entry["item_id"], entry["response"])
                )
            acked["submitted"].append(learner_id)
        # learners 6-7: a partial batch, mid-sitting at the kill
        for index, learner_id in enumerate(learner_ids[6:], start=6):
            answers = [
                {
                    "item_id": f"q{question:02d}",
                    "response": LABELS[(index * question) % len(LABELS)],
                }
                for question in range(1, 4)
            ]
            status, _ = request(
                host, port, "POST",
                f"/exams/{exam.exam_id}/sittings/{learner_id}/answers:batch",
                {"answers": answers},
            )
            assert status == 200
            for entry in answers:
                acked["answers"].append(
                    (learner_id, entry["item_id"], entry["response"])
                )
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    return {
        "wal_dir": wal_dir,
        "exam": exam,
        "exam_id": exam.exam_id,
        "acked": acked,
    }


class TestBatchSigkillRecovery:
    def test_every_acked_batched_answer_survives(self, crashed_batch_run):
        report = recover(crashed_batch_run["wal_dir"])
        acked = crashed_batch_run["acked"]
        assert acked["answers"], "cohort never ran"
        # the WAL really does carry batch events, not per-answer ones
        assert report.batched_answers >= len(acked["answers"])
        for learner_id, item_id, label in acked["answers"]:
            assert_answer_recovered(
                report.lms, crashed_batch_run["exam_id"],
                learner_id, item_id, label, acked,
            )

    def test_batched_submits_are_graded(self, crashed_batch_run):
        report = recover(crashed_batch_run["wal_dir"])
        graded_ids = {
            g.learner_id
            for g in report.lms.results_for(crashed_batch_run["exam_id"])
        }
        assert graded_ids == set(crashed_batch_run["acked"]["submitted"])

    def test_recovered_server_resumes_the_partial_batches(
        self, crashed_batch_run
    ):
        from repro.server.app import ExamServer

        exam_id = crashed_batch_run["exam_id"]
        with ExamServer(
            lms=None, wal_dir=crashed_batch_run["wal_dir"]
        ) as server:
            status, body = request(
                server.host, server.port, "GET",
                f"/exams/{exam_id}/sittings/batch07",
            )
            assert status == 200
            assert body["state"] == "in_progress"
            assert len(body["answered"]) == 3
            # finish the sitting with another batch over the new server
            answers = [
                {"item_id": f"q{q:02d}", "response": "A"}
                for q in range(4, QUESTIONS + 1)
            ]
            status, body = request(
                server.host, server.port, "POST",
                f"/exams/{exam_id}/sittings/batch07/answers:batch",
                {"answers": answers, "submit": True},
            )
            assert status == 200
            assert body["submitted"] is True


class TestTornWriteFuzz:
    def test_any_truncation_of_the_tail_recovers_a_prefix(
        self, crashed_run, tmp_path
    ):
        """Directory-level kill-at-byte-N over the post-crash WAL."""
        source = crashed_run["wal_dir"]
        tail = segment_files(source)[-1]
        size = tail.stat().st_size
        acked_set = set(crashed_run["acked"]["answers"])
        recovered_counts = []
        for cut in sorted({0, 1, 7, size // 3, size // 2, size - 1, size}):
            fuzz_dir = tmp_path / f"cut{cut}"
            shutil.copytree(source, fuzz_dir)
            torn = fuzz_dir / tail.name
            torn.write_bytes(tail.read_bytes()[: size - cut])
            report = recover(fuzz_dir)  # must never raise
            lms = report.lms
            present = 0
            for learner_id, item_id, label in acked_set:
                try:
                    assert_answer_recovered(
                        lms, crashed_run["exam_id"],
                        learner_id, item_id, label,
                        crashed_run["acked"],
                    )
                    present += 1
                except Exception:
                    continue  # lost to the cut — prefix check below
            recovered_counts.append((cut, present, report.last_lsn))
        # cutting nothing recovers everything; deeper cuts recover
        # monotonically shorter prefixes, never an error
        by_cut = dict((c, n) for c, n, _ in recovered_counts)
        assert by_cut[0] == len(acked_set)
        ordered = [n for _, n, _ in sorted(recovered_counts)]
        assert ordered == sorted(ordered, reverse=True)
