"""Route-by-route tests for the HTTP service (repro.server.app).

Every test talks to a real in-process :class:`ExamServer` over a
socket — the same stack ``mine-assess serve`` runs — so routing, JSON
framing, keep-alive, error rendering, backpressure, and shutdown are
all exercised end to end.
"""

import http.client
import json
import threading
import time

import pytest

from repro.bank.exambank import exam_to_record
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.lms.persistence import load_lms
from repro.lms.tracking import EventKind
from repro.server.app import ExamServer
from repro.sim.workloads import classroom_exam
from repro.store import recover

EXAM_ID = "classroom-mid"
QUESTIONS = 4


class Client:
    """A minimal keep-alive JSON client for the test server."""

    def __init__(self, server):
        self._conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )

    def request(self, method, path, body=None, raw_body=None, headers=None):
        data = raw_body
        if body is not None:
            data = json.dumps(body).encode("utf-8")
        self._conn.request(method, path, body=data, headers=headers or {})
        response = self._conn.getresponse()
        payload = response.read()
        parsed = json.loads(payload) if payload else None
        return response.status, parsed, dict(response.getheaders())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None, **kwargs):
        return self.request("POST", path, body=body, **kwargs)

    def close(self):
        self._conn.close()


def seeded_lms(learner_ids=("amy", "bob")):
    lms = Lms()
    lms.offer_exam(classroom_exam(QUESTIONS))
    for learner_id in learner_ids:
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
        lms.enroll(learner_id, EXAM_ID)
    return lms


@pytest.fixture
def server():
    with ExamServer(seeded_lms()) as srv:
        yield srv


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


def answer_all(client, learner_id, correct=True):
    """Answer every question in the started sitting; returns item count."""
    exam = classroom_exam(QUESTIONS)
    for item in exam.items:
        wrong = next(
            option for option in item.labels if option != item.correct_label
        )
        label = item.correct_label if correct else wrong
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/sittings/{learner_id}/answer",
            body={"item_id": item.item_id, "response": label},
        )
        assert status == 200, payload
    return len(exam.items)


class TestMeta:
    def test_healthz(self, client):
        status, payload, headers = client.get("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["exams_offered"] == 1
        assert payload["uptime_seconds"] >= 0
        assert headers["Content-Type"].startswith("application/json")

    def test_metrics_counts_requests(self, server, client):
        client.get("/healthz")
        client.get("/healthz")
        status, payload, _ = client.get("/metrics")
        assert status == 200
        assert payload["counters"]["server.requests{route=healthz}"] == 2
        assert "server.in_flight" in payload["gauges"]
        assert payload["in_flight"] >= 1  # this very request
        assert "frames_captured" in payload["monitor"]
        # the server's own registry counts per route
        assert server.context.registry.counter(
            "server.requests", route="healthz"
        ) == 2

    def test_the_registry_keeps_no_span_trees(self, server, client):
        status, first, _ = client.get("/metrics")
        assert status == 200
        for index in range(499):
            status, _, _ = client.get("/healthz" if index % 2 else "/exams")
            assert status == 200
        assert server.context.registry.roots == []
        status, last, _ = client.get("/metrics")
        assert status == 200
        assert set(last) == set(first) == {
            "uptime_seconds", "counters", "gauges", "monitor", "locks",
            "in_flight",
        }
        assert last["counters"]["server.requests{route=healthz}"] == 249

    def test_keep_alive_reuses_one_connection(self, client):
        # many requests through the same Client / socket
        for _ in range(5):
            status, _, headers = client.get("/healthz")
            assert status == 200
            assert headers.get("Connection", "").lower() != "close"


class TestCatalog:
    def test_list_and_get_exam(self, client):
        status, payload, _ = client.get("/exams")
        assert status == 200
        assert payload == {"exams": [EXAM_ID]}
        status, record, _ = client.get(f"/exams/{EXAM_ID}")
        assert status == 200
        assert record["exam_id"] == EXAM_ID
        assert len(record["items"]) == QUESTIONS

    def test_offer_exam_round_trips_a_record(self, client):
        record = exam_to_record(classroom_exam(3))
        record["exam_id"] = "quiz-2"
        status, payload, _ = client.post("/exams", body=record)
        assert status == 201
        assert payload == {"exam_id": "quiz-2", "items": 3}
        status, fetched, _ = client.get("/exams/quiz-2")
        assert status == 200
        assert fetched["exam_id"] == "quiz-2"

    def test_offer_duplicate_exam_409(self, client):
        record = exam_to_record(classroom_exam(QUESTIONS))
        status, payload, _ = client.post("/exams", body=record)
        assert status == 409
        assert payload["error"]["code"] == "conflict"

    def test_unknown_exam_404(self, client):
        status, payload, _ = client.get("/exams/ghost")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


class TestLearners:
    def test_register_and_fetch(self, client):
        status, payload, _ = client.post(
            "/learners",
            body={"learner_id": "zoe", "name": "Zoe", "email": "z@x.io"},
        )
        assert status == 201
        assert payload == {"learner_id": "zoe"}
        status, learner, _ = client.get("/learners/zoe")
        assert status == 200
        assert learner["name"] == "Zoe"
        assert learner["email"] == "z@x.io"

    def test_duplicate_registration_409(self, client):
        status, payload, _ = client.post(
            "/learners", body={"learner_id": "amy"}
        )
        assert status == 409
        assert payload["error"]["code"] == "conflict"

    def test_enroll_and_roster(self, client):
        client.post("/learners", body={"learner_id": "zoe"})
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/enrollments", body={"learner_id": "zoe"}
        )
        assert status == 201
        status, roster, _ = client.get(f"/exams/{EXAM_ID}/enrollments")
        assert status == 200
        assert roster["enrolled"] == ["amy", "bob", "zoe"]

    def test_roster_of_unknown_exam_404(self, client):
        status, payload, _ = client.get("/exams/ghost/enrollments")
        assert status == 404

    def test_enroll_unknown_learner_404(self, client):
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/enrollments", body={"learner_id": "ghost"}
        )
        assert status == 404


class TestSittingLifecycle:
    def test_full_lifecycle(self, client):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        status, started, _ = client.post(base + "/start")
        assert status == 201
        assert started["state"] == "in_progress"
        assert len(started["item_order"]) == QUESTIONS

        count = answer_all(client, "amy")
        status, sitting, _ = client.get(base)
        assert status == 200
        assert sorted(sitting["answered"]) == sorted(started["item_order"])

        status, payload, _ = client.post(base + "/suspend")
        assert (status, payload["state"]) == (200, "suspended")
        status, payload, _ = client.post(base + "/resume")
        assert (status, payload["state"]) == (200, "in_progress")

        status, graded, _ = client.post(base + "/submit")
        assert status == 200
        assert graded["learner_id"] == "amy"
        assert len(graded["scores"]) == count
        assert graded["total_points"] == graded["max_points"]

        status, results, _ = client.get(f"/exams/{EXAM_ID}/results")
        assert status == 200
        assert [r["learner_id"] for r in results["results"]] == ["amy"]

    def test_answers_store_the_registry_and_exam_id_objects(
        self, server, client
    ):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        answer_all(client, "amy")
        lms = server.lms
        learner_id = lms.learners.get("amy").learner_id
        exam = lms.exam(EXAM_ID)
        answered = lms.tracking.events(kind=EventKind.ANSWERED)
        assert len(answered) == QUESTIONS
        for event in answered:
            assert event.learner_id is learner_id
            assert event.course_id is exam.exam_id
            assert event.detail is exam.item(event.detail).item_id
        session = lms.sitting("amy", EXAM_ID).session
        assert session.learner_id is learner_id
        for event in session.answer_events():
            assert event.item_id is exam.item(event.item_id).item_id

    def test_answer_echoes_scored_response(self, client):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        exam = classroom_exam(QUESTIONS)
        item = exam.items[0]
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": item.item_id, "response": item.labels[0]},
        )
        assert status == 200
        assert payload["item_id"] == item.item_id
        assert payload["scored"]["selected"] == item.labels[0]
        assert payload["scored"]["correct"] is True

    def test_start_twice_409_invalid_state(self, client):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        client.post(base + "/start")
        status, payload, _ = client.post(base + "/start")
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"

    def test_double_submit_409(self, client):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        client.post(base + "/start")
        answer_all(client, "amy")
        status, _, _ = client.post(base + "/submit")
        assert status == 200
        status, payload, _ = client.post(base + "/submit")
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"

    def test_answer_without_start_404(self, client):
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": "q1", "response": "A"},
        )
        assert status == 404

    def test_answer_unknown_item_400(self, client):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answer",
            body={"item_id": "ghost", "response": "A"},
        )
        assert status in (400, 404), payload


class TestAnalysisRoutes:
    def seed_results(self, client, count=8):
        for index in range(count):
            learner_id = f"s{index}"
            client.post("/learners", body={"learner_id": learner_id})
            client.post(
                f"/exams/{EXAM_ID}/enrollments",
                body={"learner_id": learner_id},
            )
            client.post(f"/exams/{EXAM_ID}/sittings/{learner_id}/start")
            answer_all(client, learner_id, correct=(index % 2 == 0))
            client.post(f"/exams/{EXAM_ID}/sittings/{learner_id}/submit")

    def test_analysis_route(self, server, client):
        self.seed_results(client)
        status, payload, _ = client.get(f"/exams/{EXAM_ID}/analysis")
        assert status == 200
        assert len(payload["questions"]) == QUESTIONS
        assert set(payload["scores"]) == {f"s{i}" for i in range(8)}
        # the wire rendering matches the in-process analysis
        from repro.server.serialize import analysis_to_dict

        assert payload == analysis_to_dict(server.lms.live_analysis(EXAM_ID))

    def test_analysis_empty_cohort_422(self, client):
        status, payload, _ = client.get(f"/exams/{EXAM_ID}/analysis")
        assert status == 422
        assert payload["error"]["code"] == "unprocessable"

    def test_report_route(self, client):
        self.seed_results(client)
        status, payload, _ = client.get(f"/exams/{EXAM_ID}/report")
        assert status == 200
        assert "title" in payload
        assert len(payload["questions"]) == QUESTIONS

    def test_monitor_metrics_route(self, client):
        self.seed_results(client)
        status, payload, _ = client.get("/monitor/metrics")
        assert status == 200
        assert payload["frames_captured"] >= 2  # one per start


class TestBadRequests:
    def test_unknown_route_404(self, client):
        status, payload, _ = client.get("/nope/nothing")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_405(self, client):
        status, payload, _ = client.request("DELETE", "/exams")
        assert status == 405
        assert "GET" in payload["error"]["message"]

    def test_malformed_json_400(self, client):
        status, payload, _ = client.post(
            "/learners", raw_body=b"{not json", headers={"Content-Length": "9"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "not valid JSON" in payload["error"]["message"]

    def test_non_object_body_400(self, client):
        status, payload, _ = client.post("/learners", body=[1, 2, 3])
        assert status == 400
        assert "JSON object" in payload["error"]["message"]

    def test_missing_required_field_400(self, client):
        status, payload, _ = client.post("/learners", body={"name": "x"})
        assert status == 400
        assert "learner_id" in payload["error"]["message"]

    def test_unknown_field_400(self, client):
        status, payload, _ = client.post(
            "/learners", body={"learner_id": "x", "learner": "typo"}
        )
        assert status == 400
        assert "unknown field" in payload["error"]["message"]

    def test_mistyped_field_400(self, client):
        status, payload, _ = client.post("/learners", body={"learner_id": 7})
        assert status == 400
        assert "must be str" in payload["error"]["message"]

    def test_oversized_body_413(self):
        with ExamServer(seeded_lms(), max_body_bytes=64) as server:
            client = Client(server)
            try:
                status, payload, _ = client.post(
                    "/learners", body={"learner_id": "x" * 200}
                )
                assert status == 413
                assert payload["error"]["code"] == "payload_too_large"
            finally:
                client.close()

    def test_internal_errors_are_opaque_500(self, server, client):
        # sabotage one route: the client must never see the detail
        server.lms.offered_exams = lambda: 1 / 0
        status, payload, _ = client.get("/healthz")
        assert status == 500
        assert payload["error"] == {
            "code": "internal_error",
            "message": "internal server error",
        }
        assert server.context.registry.counter(
            "server.internal_errors", type="ZeroDivisionError"
        ) == 1


class TestBackpressure:
    def test_503_with_retry_after_when_saturated(self):
        with ExamServer(seeded_lms(), max_in_flight=1) as server:
            client = Client(server)
            try:
                assert server.in_flight.try_acquire()  # eat the only slot
                try:
                    status, payload, headers = client.get("/healthz")
                    assert status == 503
                    assert payload["error"]["code"] == "overloaded"
                    assert headers["Retry-After"] == "1"
                    assert server.context.registry.counter(
                        "server.rejected"
                    ) == 1
                finally:
                    server.in_flight.release()
                # capacity back: the same connection works again
                status, _, _ = client.get("/healthz")
                assert status == 200
            finally:
                client.close()

    def test_rejected_requests_do_not_leak_slots(self):
        with ExamServer(seeded_lms(), max_in_flight=1) as server:
            client = Client(server)
            try:
                server.in_flight.try_acquire()
                for _ in range(3):
                    status, _, _ = client.get("/healthz")
                    assert status == 503
                server.in_flight.release()
                assert server.in_flight.current() == 0
                status, _, _ = client.get("/healthz")
                assert status == 200
            finally:
                client.close()


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(self):
        server = ExamServer(seeded_lms()).start()
        client = Client(server)
        outcome = {}
        try:
            client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
            # stall the LMS: the next request blocks inside its handler
            server.lms.lock.acquire()

            def stalled_request():
                slow = Client(server)
                try:
                    outcome["response"] = slow.get(
                        f"/exams/{EXAM_ID}/sittings/amy"
                    )
                finally:
                    slow.close()

            worker = threading.Thread(target=stalled_request)
            worker.start()
            deadline = time.time() + 5
            while server.in_flight.current() == 0:
                assert time.time() < deadline, "request never went in flight"
                time.sleep(0.005)

            shutter = threading.Thread(
                target=lambda: outcome.update(
                    drained=server.shutdown(drain_timeout=10)
                )
            )
            shutter.start()
            time.sleep(0.15)
            # shutdown is waiting on the drain, not killing the request
            assert shutter.is_alive()
            server.lms.lock.release()
            shutter.join(timeout=10)
            worker.join(timeout=10)
            assert not shutter.is_alive()
            assert outcome["drained"] is True
            status, payload, _ = outcome["response"]
            assert status == 200  # the in-flight request completed
            assert payload["learner_id"] == "amy"
        finally:
            client.close()
            server.shutdown()

    def test_shutdown_reports_failed_drain(self):
        server = ExamServer(seeded_lms()).start()
        try:
            server.in_flight.try_acquire()  # a request that never finishes
            assert server.shutdown(drain_timeout=0.1) is False
        finally:
            server.in_flight.release()

    def test_shutdown_twice_is_idempotent(self):
        server = ExamServer(seeded_lms()).start()
        assert server.shutdown() is True
        assert server.shutdown() is True

    def test_start_twice_raises(self):
        server = ExamServer(seeded_lms()).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.shutdown()


class TestWalDurability:
    """The WAL is the server's only persistence: checkpoints do what
    ``save_lms`` snapshots of the whole state once did."""

    def test_admin_snapshot_route_is_gone(self, client):
        status, payload, _ = client.post("/admin/snapshot")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_admin_checkpoint_writes_a_loadable_state(self, tmp_path):
        with ExamServer(seeded_lms(), wal_dir=tmp_path) as server:
            client = Client(server)
            try:
                status, payload, _ = client.post("/admin/checkpoint")
            finally:
                client.close()
            assert status == 200
            restored = load_lms(payload["checkpoint"])
        assert restored.offered_exams() == [EXAM_ID]
        assert sorted(restored.learners.ids()) == ["amy", "bob"]

    def test_clean_shutdown_checkpoints_the_whole_log(self, tmp_path):
        server = ExamServer(wal_dir=tmp_path).start()
        client = Client(server)
        try:
            exam = exam_to_record(classroom_exam(QUESTIONS))
            assert client.post("/exams", body=exam)[0] == 201
            learner = {"learner_id": "zoe"}
            assert client.post("/learners", body=learner)[0] == 201
        finally:
            client.close()
        last_lsn = server.journal.last_lsn
        assert last_lsn > 0
        server.shutdown()
        report = recover(tmp_path)
        assert report.checkpoint_lsn == last_lsn
        assert report.records_replayed == 0
        assert report.lms.offered_exams() == [EXAM_ID]
        assert "zoe" in report.lms.learners.ids()

    def test_checkpoint_interval_checkpoints_a_growing_log(self, tmp_path):
        server = ExamServer(
            wal_dir=tmp_path, checkpoint_interval_seconds=0.05
        ).start()
        client = Client(server)
        try:
            for learner_id in ("zoe", "yan"):
                client.post("/learners", body={"learner_id": learner_id})
                lsn = server.journal.last_lsn
                deadline = time.time() + 5
                while server.checkpointer.last_covered_lsn < lsn:
                    assert time.time() < deadline, "no periodic checkpoint"
                    time.sleep(0.01)
            assert server.checkpointer.checkpoints_taken >= 2
        finally:
            client.close()
            server.shutdown()

    def test_checkpoint_interval_skips_a_quiet_log(self, tmp_path):
        server = ExamServer(
            wal_dir=tmp_path, checkpoint_interval_seconds=0.05
        ).start()
        client = Client(server)
        try:
            client.post("/learners", body={"learner_id": "zoe"})
            deadline = time.time() + 5
            while server.checkpointer.last_covered_lsn < 1:
                assert time.time() < deadline, "no periodic checkpoint"
                time.sleep(0.01)
            taken = server.checkpointer.checkpoints_taken
            time.sleep(0.3)  # about six beats with nothing new in the log
            assert server.checkpointer.checkpoints_taken == taken
        finally:
            client.close()
            server.shutdown()
