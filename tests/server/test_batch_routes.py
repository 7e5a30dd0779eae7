"""The batch ingestion routes (``POST .../answers:batch``).

Covers the contract the loadgen and differential suites rely on:
all-or-nothing application with the failing index named in the 4xx,
oversized batches rejected 413 before touching the LMS, backpressure
accounting one in-flight slot per *request* (not per answer), and the
``BodySpec`` nested-element validation that keeps malformed batch
payloads in the 4xx taxonomy instead of opaque 500s.
"""

import pytest

from test_app import EXAM_ID, QUESTIONS, Client, seeded_lms

from repro.lms.lms import Lms
from repro.server.app import ExamServer
from repro.sim.workloads import classroom_exam
from repro.store import read_records


@pytest.fixture
def server():
    with ExamServer(seeded_lms()) as srv:
        yield srv


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


def batch_body(count=QUESTIONS, response="A", submit=False):
    exam = classroom_exam(QUESTIONS)
    answers = [
        {
            "item_id": item.item_id,
            "response": item.correct_label if response == "A" else response,
        }
        for item in exam.items[:count]
    ]
    body = {"answers": answers}
    if submit:
        body["submit"] = True
    return body


class TestBatchHappyPath:
    def test_batch_answers_and_submit_in_one_request(self, client):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        client.post(base + "/start")
        status, payload, _ = client.post(
            base + "/answers:batch", body=batch_body(submit=True)
        )
        assert status == 200, payload
        assert payload["count"] == QUESTIONS
        assert payload["submitted"] is True
        assert len(payload["scored"]) == QUESTIONS
        assert all(e["scored"]["correct"] for e in payload["scored"])
        assert payload["graded"]["total_points"] == payload["graded"][
            "max_points"
        ]

    def test_batch_without_submit_leaves_sitting_open(self, client):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        client.post(base + "/start")
        status, payload, _ = client.post(
            base + "/answers:batch", body=batch_body(count=2)
        )
        assert status == 200
        assert payload["submitted"] is False
        status, sitting, _ = client.get(base)
        assert status == 200
        assert len(sitting["answered"]) == 2

    def test_batch_equals_singles_in_the_analysis(self, client):
        for learner_id, use_batch in (("amy", True), ("bob", False)):
            base = f"/exams/{EXAM_ID}/sittings/{learner_id}"
            client.post(base + "/start")
            if use_batch:
                client.post(
                    base + "/answers:batch", body=batch_body(submit=True)
                )
            else:
                for entry in batch_body()["answers"]:
                    client.post(base + "/answer", body=entry)
                client.post(base + "/submit")
        status, results, _ = client.get(f"/exams/{EXAM_ID}/results")
        assert status == 200
        by_learner = {r["learner_id"]: r for r in results["results"]}
        assert by_learner["amy"]["total_points"] == by_learner["bob"][
            "total_points"
        ]


class TestBatchAllOrNothing:
    def test_invalid_answer_rejects_whole_batch_naming_the_index(
        self, client
    ):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        client.post(base + "/start")
        body = batch_body()
        body["answers"][2]["item_id"] = "ghost"
        status, payload, _ = client.post(base + "/answers:batch", body=body)
        assert status in (400, 404)
        assert "answers[2]" in payload["error"]["message"]
        assert "ghost" in payload["error"]["message"]
        # nothing was applied
        status, sitting, _ = client.get(base)
        assert sitting["answered"] == []

    def test_failed_batch_writes_nothing_to_the_journal(self, tmp_path):
        with ExamServer(seeded_lms(), wal_dir=tmp_path) as server:
            client = Client(server)
            try:
                base = f"/exams/{EXAM_ID}/sittings/amy"
                client.post(base + "/start")
                before = server.journal.last_lsn
                body = batch_body()
                body["answers"][0]["response"] = "!"
                status, payload, _ = client.post(
                    base + "/answers:batch", body=body
                )
                assert 400 <= status < 500
                server.journal.sync()
                assert server.journal.last_lsn == before
                types = [r.type for r in read_records(tmp_path)]
                assert "answers" not in types
            finally:
                client.close()

    def test_batch_on_unstarted_sitting_404(self, client):
        status, payload, _ = client.post(
            f"/exams/{EXAM_ID}/sittings/amy/answers:batch",
            body=batch_body(count=1),
        )
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_empty_batch_400(self, client):
        base = f"/exams/{EXAM_ID}/sittings/amy"
        client.post(base + "/start")
        status, payload, _ = client.post(
            base + "/answers:batch", body={"answers": []}
        )
        assert status == 400
        assert "empty" in payload["error"]["message"]


class TestBatchLimits:
    def test_oversized_batch_413(self):
        with ExamServer(seeded_lms(), max_batch_answers=3) as server:
            client = Client(server)
            try:
                base = f"/exams/{EXAM_ID}/sittings/amy"
                client.post(base + "/start")
                status, payload, _ = client.post(
                    base + "/answers:batch", body=batch_body(count=4)
                )
                assert status == 413
                assert payload["error"]["code"] == "payload_too_large"
                # rejected before the LMS saw anything
                status, sitting, _ = client.get(base)
                assert sitting["answered"] == []
            finally:
                client.close()

    def test_batch_at_the_limit_is_accepted(self):
        with ExamServer(seeded_lms(), max_batch_answers=QUESTIONS) as server:
            client = Client(server)
            try:
                base = f"/exams/{EXAM_ID}/sittings/amy"
                client.post(base + "/start")
                status, payload, _ = client.post(
                    base + "/answers:batch", body=batch_body()
                )
                assert status == 200
                assert payload["count"] == QUESTIONS
            finally:
                client.close()

    def test_backpressure_counts_one_slot_per_request(self):
        """A K-answer batch consumes exactly one in-flight slot: with
        max_in_flight=1 and a free slot it succeeds outright; with the
        slot taken it is rejected 503 exactly once, not once per
        answer."""
        with ExamServer(seeded_lms(), max_in_flight=1) as server:
            client = Client(server)
            try:
                base = f"/exams/{EXAM_ID}/sittings/amy"
                client.post(base + "/start")
                # the handler releases its slot *after* flushing the
                # response we just read — wait for that, don't race it
                assert server.in_flight.wait_idle(timeout=5.0)
                assert server.in_flight.try_acquire()
                try:
                    status, payload, _ = client.post(
                        base + "/answers:batch", body=batch_body()
                    )
                    assert status == 503
                    assert server.registry.counter(
                        "server.rejected"
                    ) == 1
                finally:
                    server.in_flight.release()
                status, payload, _ = client.post(
                    base + "/answers:batch", body=batch_body()
                )
                assert status == 200
                assert payload["count"] == QUESTIONS
            finally:
                client.close()


class TestNestedBodyValidation:
    """Regression: malformed batch payloads used to surface as opaque
    500s; BodySpec element validation now yields 400s with a JSON
    pointer to the offending element."""

    def start(self, client):
        client.post(f"/exams/{EXAM_ID}/sittings/amy/start")
        return f"/exams/{EXAM_ID}/sittings/amy/answers:batch"

    def test_non_dict_element_400_with_pointer(self, client):
        path = self.start(client)
        status, payload, _ = client.post(
            path, body={"answers": [{"item_id": "q1", "response": "A"}, 7]}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "/answers/1" in payload["error"]["message"]

    def test_element_missing_field_400_with_pointer(self, client):
        path = self.start(client)
        status, payload, _ = client.post(
            path, body={"answers": [{"item_id": "q1"}]}
        )
        assert status == 400
        assert "response" in payload["error"]["message"]
        assert "/answers/0" in payload["error"]["message"]

    def test_element_mistyped_field_400_with_pointer(self, client):
        path = self.start(client)
        status, payload, _ = client.post(
            path, body={"answers": [{"item_id": 5, "response": "A"}]}
        )
        assert status == 400
        assert "must be str" in payload["error"]["message"]
        assert "/answers/0" in payload["error"]["message"]

    def test_element_unknown_field_400_with_pointer(self, client):
        path = self.start(client)
        status, payload, _ = client.post(
            path,
            body={
                "answers": [
                    {"item_id": "q1", "response": "A", "respnse": "typo"}
                ]
            },
        )
        assert status == 400
        assert "unknown field" in payload["error"]["message"]
        assert "/answers/0" in payload["error"]["message"]

    def test_top_level_messages_unchanged(self, client):
        # the pointer suffix only appears for nested elements
        path = self.start(client)
        status, payload, _ = client.post(path, body={})
        assert status == 400
        assert "answers" in payload["error"]["message"]
        assert " at /" not in payload["error"]["message"]


class TestBatchDurability:
    def test_batched_sittings_survive_recovery(self, tmp_path):
        from repro.store import recover, state_fingerprint

        with ExamServer(seeded_lms(), wal_dir=tmp_path) as server:
            client = Client(server)
            try:
                base = f"/exams/{EXAM_ID}/sittings/amy"
                client.post(base + "/start")
                status, _, _ = client.post(
                    base + "/answers:batch", body=batch_body(submit=True)
                )
                assert status == 200
                server.journal.sync()
                live = state_fingerprint(server.lms)
            finally:
                client.close()
        report = recover(tmp_path)
        assert state_fingerprint(report.lms) == live
