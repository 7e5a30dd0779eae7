"""Fleet routes when a shard fails: all or nothing, and retries converge.

An in-process fleet: one :class:`ExamServer` per shard, each with its
own WAL, its own read model and a :class:`ClusterContext` naming its
peers' ports.  Every request goes to shard-0, which proxies learner
routes to their owners and fans fleet routes out to its peers.

* A read that spans the fleet answers ``503 shard_unavailable`` with
  ``Retry-After`` while one shard is down — never a partial payload —
  and the same payload as before once the shard is back.  The stopped
  shard is the *last* of shard-0's peers, so the gather fails after
  another peer has already answered.
* A replicated write that a down shard missed reaches it when the
  client retries, although the retry answers 409 where it was applied;
  the missed shard gets what the first try applied, whatever the
  retry carries.
"""

import http.client
import json
import socket

import pytest

from repro.bank.exambank import exam_to_record
from repro.cluster.context import ClusterContext
from repro.cluster.ring import HashRing
from repro.server.app import ExamServer
from repro.server.loadgen import run_loadgen
from repro.sim.workloads import classroom_exam

HOST = "127.0.0.1"
EXAM_ID = "classroom-mid"
LEARNERS = 18
QUESTIONS = 5

FLEET_READS = [
    f"/exams/{EXAM_ID}/enrollments",
    f"/exams/{EXAM_ID}/results",
    f"/exams/{EXAM_ID}/analysis",
    "/admin/analytics",
    f"/admin/analytics/exams/{EXAM_ID}",
    f"/admin/analytics/exams/{EXAM_ID}/analysis",
    f"/admin/analytics/exams/{EXAM_ID}/blueprint",
    "/cluster/topology",
]


class Fleet:
    """``shards`` in-process shards that can be stopped and restarted.

    Each shard's port is held by a bound, never-listening
    ``SO_REUSEPORT`` socket for the fleet's lifetime (as the cluster
    supervisor does), so a stopped shard refuses connections and a
    restarted one binds the same port again.
    """

    def __init__(self, root, shards):
        self.root = root
        self._placeholders = []
        self.urls = {}
        for index in range(shards):
            placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            placeholder.bind((HOST, 0))
            self._placeholders.append(placeholder)
            port = placeholder.getsockname()[1]
            self.urls[f"shard-{index}"] = f"http://{HOST}:{port}"
        self.ring = HashRing(self.urls)
        self.servers = {}
        for shard in self.urls:
            self.start(shard)

    def start(self, shard):
        """Boot (or recover) one shard from its WAL directory."""
        server = ExamServer(
            host=HOST,
            port=int(self.urls[shard].rsplit(":", 1)[1]),
            wal_dir=self.root / shard,
            readmodel=True,
            cluster=ClusterContext(shard, self.urls),
        )
        self.servers[shard] = server.start()

    def stop(self, shard):
        self.servers.pop(shard).shutdown()

    def close(self):
        for server in self.servers.values():
            server.shutdown()
        for placeholder in self._placeholders:
            placeholder.close()

    def request(self, method, path, body=None, shard="shard-0"):
        """``(status, payload, Retry-After)`` from one shard's port."""
        host, port = self.urls[shard].rsplit("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=15)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return (
                response.status,
                json.loads(raw) if raw else None,
                response.getheader("Retry-After"),
            )
        finally:
            connection.close()


@pytest.fixture(scope="module")
def outage(tmp_path_factory):
    """A seeded three-shard fleet taken through one shard's outage.

    Records every fleet read and a checkpoint before the outage, while
    the last peer is down, and after it restarted on its port and WAL.
    """
    fleet = Fleet(tmp_path_factory.mktemp("fan-out"), shards=3)
    try:
        report = run_loadgen(
            fleet.urls["shard-0"],
            learners=LEARNERS,
            questions=QUESTIONS,
            seed=31,
            workers=2,
            batch=5,
        )
        assert report.errors == 0
        # fsync every shard's log, so the topology's durable_lsn equals
        # the last_lsn a restarted shard recovers
        status, payload, _ = fleet.request("POST", "/admin/checkpoint")
        assert (status, payload["peers_checkpointed"]) == (200, 2)
        before = {path: fleet.request("GET", path) for path in FLEET_READS}
        victim = fleet.servers["shard-0"].cluster.peers()[-1]
        fleet.stop(victim)
        during = {path: fleet.request("GET", path) for path in FLEET_READS}
        checkpoint_during = fleet.request("POST", "/admin/checkpoint")
        fleet.start(victim)
        after = {path: fleet.request("GET", path) for path in FLEET_READS}
        checkpoint_after = fleet.request("POST", "/admin/checkpoint")
    finally:
        fleet.close()
    return {
        "before": before,
        "during": during,
        "after": after,
        "checkpoint_during": checkpoint_during,
        "checkpoint_after": checkpoint_after,
    }


class TestShardDownMidGather:
    def test_reads_span_the_whole_fleet_before_the_outage(self, outage):
        for path, (status, payload, _) in outage["before"].items():
            assert status == 200, (path, payload)
        _, roster, _ = outage["before"][f"/exams/{EXAM_ID}/enrollments"]
        assert len(roster["enrolled"]) == LEARNERS
        _, topology, _ = outage["before"]["/cluster/topology"]
        assert len(topology["shards"]) == 3

    @pytest.mark.parametrize("path", FLEET_READS)
    def test_read_answers_503_never_a_partial_payload(self, outage, path):
        status, payload, retry_after = outage["during"][path]
        assert status == 503, payload
        assert payload["error"]["code"] == "shard_unavailable"
        assert retry_after == "1"

    @pytest.mark.parametrize("path", FLEET_READS)
    def test_read_after_restart_equals_the_read_before(self, outage, path):
        assert outage["after"][path] == outage["before"][path]

    def test_checkpoint_answers_503_while_a_peer_is_down(self, outage):
        status, payload, retry_after = outage["checkpoint_during"]
        assert status == 503, payload
        assert payload["error"]["code"] == "shard_unavailable"

    def test_checkpoint_reaches_both_peers_after_restart(self, outage):
        status, payload, _ = outage["checkpoint_after"]
        assert status == 200, payload
        assert payload["peers_checkpointed"] == 2


class TestRetriedBroadcast:
    def test_a_retried_offer_reaches_the_shard_the_first_one_missed(
        self, tmp_path
    ):
        fleet = Fleet(tmp_path, shards=2)
        try:
            offer = exam_to_record(classroom_exam(QUESTIONS))
            fleet.stop("shard-1")
            status, payload, _ = fleet.request("POST", "/exams", offer)
            assert status == 503, payload
            assert payload["error"]["code"] == "shard_unavailable"
            _, listed, _ = fleet.request("GET", "/exams")
            assert listed["exams"] == [EXAM_ID]  # applied here already

            fleet.start("shard-1")
            status, payload, _ = fleet.request("POST", "/exams", offer)
            # a single process answers a repeated offer 409 too
            assert status == 409, payload
            _, listed, _ = fleet.request("GET", "/exams", shard="shard-1")
            assert listed["exams"] == [EXAM_ID]

            # so shard-1's learners can enroll, through either shard
            learner = next(
                f"learner-{index}"
                for index in range(100)
                if fleet.ring.route(f"learner-{index}") == "shard-1"
            )
            status, _, _ = fleet.request(
                "POST", "/learners", {"learner_id": learner}
            )
            assert status == 201
            status, payload, _ = fleet.request(
                "POST",
                f"/exams/{EXAM_ID}/enrollments",
                {"learner_id": learner},
            )
            assert status == 201, payload
        finally:
            fleet.close()

    def test_a_retry_with_other_content_installs_the_first_offer(
        self, tmp_path
    ):
        """The retry answers 409 where the first try applied, and the
        shard that try missed gets the record the first shard holds,
        not the retry's other title."""
        fleet = Fleet(tmp_path, shards=2)
        try:
            offer = exam_to_record(classroom_exam(QUESTIONS))
            fleet.stop("shard-1")
            status, payload, _ = fleet.request("POST", "/exams", offer)
            assert status == 503, payload

            fleet.start("shard-1")
            other = dict(offer, title="a different exam under the same id")
            status, payload, _ = fleet.request("POST", "/exams", other)
            assert status == 409, payload
            for shard in fleet.urls:
                status, held, _ = fleet.request(
                    "GET", f"/exams/{EXAM_ID}", shard=shard
                )
                assert status == 200, (shard, held)
                assert held["title"] == offer["title"], shard
        finally:
            fleet.close()
