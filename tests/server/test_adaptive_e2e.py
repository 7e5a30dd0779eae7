"""Adaptive delivery end to end: HTTP sitting loop, policy enforcement,
WAL recovery, the calibration loop, and ``loadgen --adaptive``.

The tentpole contract under test: an adaptive sitting driven entirely
over HTTP (`next-item` → `answer` → … → `submit`) journals every step,
recovers bit-identically (item sequence AND theta trajectory are part of
the state fingerprint), and a ``mine-assess calibrate`` snapshot is
picked up by a restarted server.
"""

import http.client
import json

import pytest

from repro.bank.exambank import exam_to_record
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.server.app import ExamServer
from repro.server.loadgen import LoadgenError, run_loadgen
from repro.sim.workloads import classroom_adaptive_exam, classroom_exam
from repro.store import recover
from repro.store.recovery import state_fingerprint

EXAM_ID = "classroom-mid"
QUESTIONS = 8
MAX_ITEMS = 4


class Client:
    """A minimal keep-alive JSON client for the test server."""

    def __init__(self, server):
        self._conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )

    def request(self, method, path, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        self._conn.request(method, path, body=data)
        response = self._conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else None

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body=body)

    def close(self):
        self._conn.close()


def setup_over_http(client, learner_ids=("amy", "bob")):
    """Offer the adaptive exam and enroll learners *through the API*, so
    a WAL-backed server journals the whole world and can replay it."""
    exam = classroom_adaptive_exam(QUESTIONS, max_items=MAX_ITEMS)
    status, payload = client.post("/exams", body=exam_to_record(exam))
    assert status == 201, payload
    for learner_id in learner_ids:
        status, _ = client.post("/learners", body={"learner_id": learner_id})
        assert status == 201
        status, _ = client.post(
            f"/exams/{EXAM_ID}/enrollments", body={"learner_id": learner_id}
        )
        assert status == 201


def drive_sitting(client, learner_id, correct=True):
    """Run one adaptive sitting over HTTP; returns (sequence, final)."""
    labels = {}
    for item in classroom_exam(QUESTIONS).items:
        wrong = next(
            option for option in item.labels if option != item.correct_label
        )
        labels[item.item_id] = item.correct_label if correct else wrong
    status, payload = client.post(
        f"/exams/{EXAM_ID}/sittings/{learner_id}/start"
    )
    assert status == 201, payload
    sequence = []
    for _ in range(QUESTIONS + 1):
        status, payload = client.get(
            f"/exams/{EXAM_ID}/sittings/{learner_id}/next-item"
        )
        assert status == 200, payload
        if payload["done"]:
            break
        item_id = payload["item_id"]
        sequence.append(item_id)
        status, answer_payload = client.post(
            f"/exams/{EXAM_ID}/sittings/{learner_id}/answer",
            body={"item_id": item_id, "response": labels[item_id]},
        )
        assert status == 200, answer_payload
    else:
        raise AssertionError("sitting never reported done")
    return sequence, payload


@pytest.fixture
def wal_dir(tmp_path):
    return tmp_path / "wal"


@pytest.fixture
def server(wal_dir):
    with ExamServer(wal_dir=wal_dir, fsync="never") as srv:
        yield srv


@pytest.fixture
def client(server):
    c = Client(server)
    setup_over_http(c)
    yield c
    c.close()


class TestAdaptiveSittingOverHttp:
    def test_full_sitting_respects_policy(self, client):
        sequence, final = drive_sitting(client, "amy")
        assert len(sequence) == MAX_ITEMS
        assert len(set(sequence)) == MAX_ITEMS
        assert final["reason"] in ("max_items", "se_target")
        assert final["theta"] is not None
        status, graded = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/submit"
        )
        assert status == 200
        assert graded["total_points"] == float(len(sequence))
        # unserved items grade as no-selection, never as a guess
        unserved = [
            item_id for item_id, score in graded["scores"].items()
            if score["selected"] is None
        ]
        assert len(unserved) == QUESTIONS - len(sequence)

    def test_next_item_carries_ability_state(self, client):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        status, first = client.get(
            f"/exams/{EXAM_ID}/sittings/amy/next-item"
        )
        assert status == 200
        assert first["step"] == 0
        assert first["table_version"] == 0
        assert first["administered"] == []
        client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": first["item_id"], "response": "A"},
        )
        status, second = client.get(
            f"/exams/{EXAM_ID}/sittings/amy/next-item"
        )
        assert second["step"] == 1
        assert second["administered"] == [first["item_id"]]
        assert second["theta"] != first["theta"]

    def test_out_of_policy_answer_is_409(self, client):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        status, chosen = client.get(
            f"/exams/{EXAM_ID}/sittings/amy/next-item"
        )
        off_policy = next(
            f"q{index:02d}" for index in range(1, QUESTIONS + 1)
            if f"q{index:02d}" != chosen["item_id"]
        )
        status, payload = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": off_policy, "response": "A"},
        )
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"
        assert chosen["item_id"] in payload["error"]["message"]
        # the policy-chosen item is still answerable afterwards
        status, _ = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": chosen["item_id"], "response": "A"},
        )
        assert status == 200

    def test_batch_answers_rejected_for_adaptive(self, client):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        status, payload = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answers:batch",
            body={"answers": [{"item_id": "q01", "response": "A"}]},
        )
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"
        assert "one answer at a time" in payload["error"]["message"]

    def test_next_item_on_fixed_exam_is_409(self):
        lms = Lms()
        lms.offer_exam(classroom_exam(4))
        lms.register_learner(Learner(learner_id="amy", name="amy"))
        lms.enroll("amy", EXAM_ID)
        with ExamServer(lms) as server:
            fixed = Client(server)
            fixed.post(f"/exams/{EXAM_ID}/sittings/amy/start")
            status, payload = fixed.get(
                f"/exams/{EXAM_ID}/sittings/amy/next-item"
            )
            fixed.close()
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"
        assert "not adaptive" in payload["error"]["message"]


class TestAdaptiveRecovery:
    def test_recovered_state_is_bit_identical(self, server, client, wal_dir):
        drive_sitting(client, "amy", correct=True)
        # bob's sitting is mid-flight at "crash" time
        client.post(f"/exams/{EXAM_ID}/sittings/bob/start")
        _, chosen = client.get(f"/exams/{EXAM_ID}/sittings/bob/next-item")
        client.post(
            f"/exams/{EXAM_ID}/sittings/bob/answer",
            body={"item_id": chosen["item_id"], "response": "B"},
        )
        server.journal.sync()
        report = recover(wal_dir)
        assert state_fingerprint(report.lms) == state_fingerprint(server.lms)
        status = report.lms.next_item("bob", EXAM_ID)
        assert status["step"] == 1
        assert status["administered"] == [chosen["item_id"]]


class TestCalibrationLoop:
    def run_cli(self, *argv):
        from repro.cli import main

        return main([str(arg) for arg in argv])

    def submitted_cohort(self, wal_dir):
        """A WAL with two submitted adaptive sittings."""
        with ExamServer(wal_dir=wal_dir, fsync="never") as srv:
            client = Client(srv)
            setup_over_http(client)
            drive_sitting(client, "amy", correct=True)
            client.post(f"/exams/{EXAM_ID}/sittings/amy/submit")
            drive_sitting(client, "bob", correct=False)
            client.post(f"/exams/{EXAM_ID}/sittings/bob/submit")
            client.close()

    def test_calibrate_snapshot_survives_restart(self, wal_dir):
        self.submitted_cohort(wal_dir)
        assert self.run_cli("calibrate", wal_dir, "--min-sittings", "2") == 0
        snapshots = list((wal_dir / "calibration").glob("params-*.json"))
        assert len(snapshots) == 1
        # a restarted server hot-swaps the fitted pool at boot: a fresh
        # sitting selects from the calibrated table, version 1
        with ExamServer(wal_dir=wal_dir, fsync="never") as srv:
            assert srv.lms.calibration_version(EXAM_ID) == 1
            srv.lms.register_learner(Learner(learner_id="cara", name="cara"))
            srv.lms.enroll("cara", EXAM_ID)
            srv.lms.start_exam("cara", EXAM_ID)
            status = srv.lms.next_item("cara", EXAM_ID)
            assert status["table_version"] == 1
            assert status["item_id"] is not None

    def test_boot_does_not_reapply_journaled_version(self, wal_dir):
        self.submitted_cohort(wal_dir)
        assert self.run_cli("calibrate", wal_dir, "--min-sittings", "2") == 0
        # first restart applies v1 and journals it; the second must see
        # the journaled version and skip the snapshot, not re-apply it
        for _ in range(2):
            with ExamServer(wal_dir=wal_dir, fsync="never") as srv:
                assert srv.lms.calibration_version(EXAM_ID) == 1
                admin = Client(srv)
                status, payload = admin.post("/admin/calibration/reload")
                admin.close()
                assert status == 200
                assert payload["applied"] == []

    def test_reload_refused_while_sittings_open(self, server, client, wal_dir):
        from repro.adaptive.online import write_calibration_snapshot

        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        exam = server.lms.exam(EXAM_ID)
        pool = exam.adaptive.pool_for(exam)
        write_calibration_snapshot(wal_dir / "calibration", EXAM_ID, 1, pool)
        status, payload = client.post("/admin/calibration/reload")
        assert status == 200
        assert payload["applied"] == []
        assert len(payload["skipped"]) == 1
        assert "open" in payload["skipped"][0]["reason"]
        # once the sitting closes, the same reload applies cleanly
        _, chosen = client.get(f"/exams/{EXAM_ID}/sittings/amy/next-item")
        client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": chosen["item_id"], "response": "A"},
        )
        client.post(f"/exams/{EXAM_ID}/sittings/amy/submit")
        status, payload = client.post("/admin/calibration/reload")
        assert status == 200
        assert [entry["version"] for entry in payload["applied"]] == [1]

    def test_torn_snapshot_write_leaves_nothing_and_boot_survives(
        self, wal_dir, monkeypatch
    ):
        import io

        from repro.adaptive.online import write_calibration_snapshot

        with ExamServer(wal_dir=wal_dir, fsync="never") as srv:
            admin = Client(srv)
            setup_over_http(admin)
            admin.close()
            exam = srv.lms.exam(EXAM_ID)
            pool = exam.adaptive.pool_for(exam)

        class Killed(BaseException):
            """The writer's process dying mid-write."""

        class TornFile:
            """A file whose writer dies halfway through a write."""

            def __init__(self, stream):
                self._stream = stream

            def write(self, text):
                self._stream.write(text[: len(text) // 2])
                self._stream.flush()
                raise Killed()

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._stream.close()

            def __getattr__(self, name):
                return getattr(self._stream, name)

        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            stream = real_open(file, mode, *args, **kwargs)
            return TornFile(stream) if "w" in mode else stream

        calibration = wal_dir / "calibration"
        monkeypatch.setattr(io, "open", torn_open)
        with pytest.raises(Killed):
            write_calibration_snapshot(calibration, EXAM_ID, 1, pool)
        monkeypatch.undo()
        # neither a half-written snapshot nor a temp file is left
        assert list(calibration.iterdir()) == []
        with ExamServer(wal_dir=wal_dir, fsync="never") as srv:
            assert srv.lms.calibration_version(EXAM_ID) == 0

    def test_calibrate_needs_enough_sittings(self, wal_dir):
        self.submitted_cohort(wal_dir)
        assert self.run_cli("calibrate", wal_dir, "--min-sittings", "5") == 1
        assert not list((wal_dir / "calibration").glob("params-*.json"))


class TestAdaptiveLoadgen:
    def run(self, srv, learners=4, seed=5):
        return run_loadgen(
            srv.url, learners=learners, questions=QUESTIONS,
            seed=seed, adaptive=True,
        )

    def test_adaptive_report(self):
        with ExamServer(Lms()) as srv:
            report = self.run(srv, learners=6, seed=13)
        assert report.adaptive is True
        assert report.errors == 0
        assert len(report.item_sequences) == 6
        policy_cap = classroom_adaptive_exam(QUESTIONS).adaptive.max_items
        for sequence in report.item_sequences.values():
            assert 0 < len(sequence) <= policy_cap
        assert report.to_dict()["adaptive"] is True

    def test_adaptive_is_deterministic_per_seed(self):
        with ExamServer(Lms()) as srv:
            first = self.run(srv)
        with ExamServer(Lms()) as srv:
            again = self.run(srv)
        assert first.item_sequences == again.item_sequences

    def test_adaptive_rejects_batch_mode(self):
        with ExamServer(Lms()) as srv:
            with pytest.raises(LoadgenError, match="batch"):
                run_loadgen(
                    srv.url, learners=2, questions=QUESTIONS,
                    adaptive=True, batch=4,
                )

    def test_adaptive_requires_adaptive_exam(self):
        with ExamServer(Lms()) as srv:
            with pytest.raises(LoadgenError, match="adaptive"):
                run_loadgen(
                    srv.url, learners=2, questions=QUESTIONS,
                    adaptive=True, exam=classroom_exam(QUESTIONS),
                )
