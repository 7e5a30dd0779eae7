"""The admin analytics surface end-to-end, single process.

A real :class:`ExamServer` with ``readmodel=True`` tails its own WAL;
a cohort is driven over HTTP and the ``/admin/analytics`` answers are
checked against the serving tier's — including the bit-identity of the
cohort analysis, which is the CQRS contract.
"""

import http.client
import json

import pytest

from repro.bank.exambank import exam_to_record
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem
from repro.items.essay import EssayItem
from repro.server.app import ExamServer
from repro.sim.workloads import classroom_exam

EXAM_ID = "classroom-mid"
QUESTIONS = 4
COHORT = 9


class Client:
    def __init__(self, server):
        self._conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else None

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body=body)

    def close(self):
        self._conn.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    wal_dir = tmp_path_factory.mktemp("wal")
    with ExamServer(port=0, wal_dir=wal_dir, readmodel=True) as srv:
        client = Client(srv)
        exam = classroom_exam(QUESTIONS)
        client.post("/exams", body=exam_to_record(exam))
        for n in range(COHORT):
            learner_id = f"l{n}"
            client.post(
                "/learners", body={"learner_id": learner_id, "name": learner_id}
            )
            client.post(
                f"/exams/{EXAM_ID}/enrollments",
                body={"learner_id": learner_id},
            )
            client.post(f"/exams/{EXAM_ID}/sittings/{learner_id}/start")
            for index, item in enumerate(exam.items):
                if (n + index) % 7 == 0:
                    continue  # leave some questions skipped
                label = item.labels[(n + index) % len(item.labels)]
                client.post(
                    f"/exams/{EXAM_ID}/sittings/{learner_id}/answer",
                    body={"item_id": item.item_id, "response": label},
                )
            client.post(f"/exams/{EXAM_ID}/sittings/{learner_id}/submit")
        client.close()
        yield srv


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


class TestAnalytics:
    def test_analysis_is_bit_identical_to_serving_tier(self, client):
        status, serving = client.get(f"/exams/{EXAM_ID}/analysis")
        assert status == 200
        status, admin = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis"
        )
        assert status == 200
        assert json.dumps(admin, sort_keys=True) == json.dumps(
            serving, sort_keys=True
        )

    def test_summary_counts_the_cohort(self, client):
        status, summary = client.get(f"/admin/analytics/exams/{EXAM_ID}")
        assert status == 200
        assert summary["submits"] == COHORT
        assert summary["enrolled"] == COHORT
        assert summary["distribution"]["count"] == COHORT
        assert sum(summary["distribution"]["buckets"]) == COHORT

    def test_blueprint_and_spec_table_views(self, client):
        status, blueprint = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/blueprint"
        )
        assert status == 200
        assert blueprint["blueprint"]["cohort"] == COHORT
        assert len(blueprint["blueprint"]["levels"]) == 6
        status, table = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/spec-table"
        )
        assert status == 200
        assert table["total"] == QUESTIONS
        assert table["exam_id"] == EXAM_ID

    def test_overview_lists_the_exam(self, client):
        status, overview = client.get("/admin/analytics")
        assert status == 200
        assert overview["exams"] == [
            {"exam_id": EXAM_ID, "submits": COHORT, "enrolled": COHORT}
        ]
        assert overview["learners"] == COHORT
        assert overview["follower"]["lag"] == 0

    def test_unknown_exam_404s(self, client):
        status, payload = client.get("/admin/analytics/exams/ghost")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


class TestTimeTravel:
    def test_as_of_lsn_replays_a_prefix(self, server, client):
        _, metrics = client.get("/metrics")
        tip = metrics["store"]["last_lsn"]
        status, payload = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis?as_of_lsn={tip}"
        )
        assert status == 200
        assert payload["as_of"]["applied_lsn"] == tip
        # at the tip the time-travel answer IS the live answer
        _, live = client.get(f"/admin/analytics/exams/{EXAM_ID}/analysis")
        assert json.dumps(payload["analysis"], sort_keys=True) == json.dumps(
            live, sort_keys=True
        )

    def test_as_of_before_the_exam_404s(self, client):
        status, payload = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis?as_of_lsn=0"
        )
        assert status == 404

    def test_both_targets_rejected(self, client):
        status, payload = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis"
            "?as_of_lsn=1&as_of_ts=5"
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_non_numeric_target_rejected(self, client):
        status, payload = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis?as_of_lsn=abc"
        )
        assert status == 400

    @pytest.mark.parametrize("ts", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_ts_rejected(self, client, ts):
        status, payload = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis?as_of_ts={ts}"
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


class TestObservability:
    def test_metrics_carry_store_and_readmodel_sections(self, client):
        status, metrics = client.get("/metrics")
        assert status == 200
        assert metrics["store"]["durable_lsn"] <= metrics["store"]["last_lsn"]
        assert metrics["readmodel"]["applied_lsn"] > 0
        assert metrics["readmodel"]["lag"] == 0

    def test_topology_still_requires_a_cluster(self, client):
        # the per-shard LSN columns ride /cluster/topology, which stays
        # a cluster-only surface (see tests/readmodel/test_cluster_http)
        status, payload = client.get("/cluster/topology")
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"

    def test_checkpoint_persists_the_readmodel(self, server, client):
        from repro.readmodel import readmodel_files

        status, payload = client.post("/admin/checkpoint")
        assert status == 200
        files = readmodel_files(server.wal_dir)
        assert files, "checkpoint_now must also checkpoint the read model"
        # and the server still answers identically afterwards
        status, admin = client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis"
        )
        assert status == 200


class TestDisabled:
    def test_analytics_409_without_readmodel(self, tmp_path):
        with ExamServer(port=0, wal_dir=tmp_path / "wal") as srv:
            client = Client(srv)
            status, payload = client.get("/admin/analytics")
            client.close()
        assert status == 409
        assert payload["error"]["code"] == "invalid_state"
        assert "serve --readmodel" in payload["error"]["message"]

    def test_readmodel_without_wal_rejected(self):
        with pytest.raises(ValueError, match="wal_dir"):
            ExamServer(port=0, readmodel=True)


WIDE_EXAM = "wide-quiz"  # more options than the cohort matrix can code
ESSAY_EXAM = "essay-only"  # no choice item, so no cohort matrix
NO_MATRIX_SITTERS = 8


def no_matrix_exams():
    labels = [f"L{n:03d}" for n in range(300)]
    wide = (
        ExamBuilder(WIDE_EXAM, "Wide Quiz")
        .add_item(
            MultipleChoiceItem.build(
                "wide", "Pick one.", labels, correct_index=0, labels=labels
            )
        )
        .time_limit(600)
        .build()
    )
    essay = (
        ExamBuilder(ESSAY_EXAM, "Essay Only")
        .add_item(EssayItem(item_id="e1", question="Discuss.", max_points=5.0))
        .time_limit(600)
        .build()
    )
    return wide, essay


@pytest.fixture(scope="module")
def no_matrix_server(tmp_path_factory):
    """The wide exam is offered first: its offer is the first record
    the read model folds, before the classroom exam and its cohort."""
    wal_dir = tmp_path_factory.mktemp("wal-no-matrix")
    with ExamServer(port=0, wal_dir=wal_dir, readmodel=True) as srv:
        client = Client(srv)
        wide, essay = no_matrix_exams()
        for exam in (wide, essay, classroom_exam(5)):
            status, _ = client.post("/exams", body=exam_to_record(exam))
            assert status == 201
        answers = {
            WIDE_EXAM: ("wide", lambda n: f"L{n * 7:03d}"),
            ESSAY_EXAM: ("e1", lambda n: f"essay {n}"),
            EXAM_ID: ("q01", lambda n: "ABCDE"[n % 5]),
        }
        for n in range(NO_MATRIX_SITTERS):
            learner_id = f"w{n}"
            client.post(
                "/learners", body={"learner_id": learner_id, "name": learner_id}
            )
            for exam_id, (item_id, response) in answers.items():
                base = f"/exams/{exam_id}/sittings/{learner_id}"
                client.post(
                    f"/exams/{exam_id}/enrollments",
                    body={"learner_id": learner_id},
                )
                client.post(f"{base}/start")
                status, _ = client.post(
                    f"{base}/answer",
                    body={"item_id": item_id, "response": response(n)},
                )
                assert status == 200
                status, _ = client.post(f"{base}/submit")
                assert status == 200
        client.close()
        yield srv


@pytest.fixture
def no_matrix_client(no_matrix_server):
    c = Client(no_matrix_server)
    yield c
    c.close()


class TestExamsWithoutAMatrix:
    def test_an_unholdable_exam_does_not_stall_the_follower(
        self, no_matrix_client
    ):
        status, overview = no_matrix_client.get("/admin/analytics")
        assert status == 200
        assert overview["follower"]["lag"] == 0
        assert overview["applied_lsn"] == overview["follower"]["journal_lsn"]
        assert [entry["exam_id"] for entry in overview["exams"]] == sorted(
            [EXAM_ID, ESSAY_EXAM, WIDE_EXAM]
        )
        status, summary = no_matrix_client.get(
            f"/admin/analytics/exams/{EXAM_ID}"
        )
        assert status == 200
        assert summary["submits"] == NO_MATRIX_SITTERS
        status, admin = no_matrix_client.get(
            f"/admin/analytics/exams/{EXAM_ID}/analysis"
        )
        _, serving = no_matrix_client.get(f"/exams/{EXAM_ID}/analysis")
        assert status == 200
        assert json.dumps(admin, sort_keys=True) == json.dumps(
            serving, sort_keys=True
        )

    @pytest.mark.parametrize("exam_id", [WIDE_EXAM, ESSAY_EXAM])
    def test_both_analysis_routes_answer_422_alike(
        self, no_matrix_client, exam_id
    ):
        serving = no_matrix_client.get(f"/exams/{exam_id}/analysis")
        admin = no_matrix_client.get(
            f"/admin/analytics/exams/{exam_id}/analysis"
        )
        assert serving[0] == 422
        assert serving[1]["error"]["code"] == "unprocessable"
        assert admin == serving

    @pytest.mark.parametrize("exam_id", [WIDE_EXAM, ESSAY_EXAM])
    def test_summary_counts_the_sittings(self, no_matrix_client, exam_id):
        status, summary = no_matrix_client.get(
            f"/admin/analytics/exams/{exam_id}"
        )
        assert status == 200
        assert summary["submits"] == NO_MATRIX_SITTERS
        assert summary["distribution"]["count"] == NO_MATRIX_SITTERS
        assert summary["blueprint"]["cohort"] == NO_MATRIX_SITTERS
