"""What a worker's :class:`ClusterContext` derives from its shard and URLs.

A request's owner is the ring owner of the ``learner_id`` in its path,
else in its JSON object body; the ``/internal/…`` peer legs have none.
``OWNED`` names, route by route, every route that has an owner: the
oracle the rule is checked against over the whole route table.
"""

import pytest

from repro.cluster.context import ClusterContext
from repro.cluster.ring import DEFAULT_REPLICAS
from repro.server.handlers import build_router

URLS = {
    f"shard-{index}": f"http://127.0.0.1:{9000 + index}"
    for index in range(3)
}
FRONT = "http://127.0.0.1:8999"

#: every route whose requests carry the learner whose state they touch
OWNED = {
    "learners.register",
    "learners.get",
    "enrollments.create",
    "sittings.start",
    "sittings.answer",
    "sittings.next_item",
    "sittings.answers_batch",
    "sittings.suspend",
    "sittings.resume",
    "sittings.submit",
    "sittings.status",
}
#: the owned routes whose learner is in the body, not the path
BODY_OWNED = {"learners.register", "enrollments.create"}


def path_params(route):
    values = {"learner_id": "amy", "exam_id": "e1"}
    return {
        segment[1:-1]: values[segment[1:-1]]
        for segment in route.segments
        if segment.startswith("{")
    }


class TestOwnerRule:
    def test_exactly_the_learner_routes_have_an_owner(self):
        context = ClusterContext("shard-0", URLS)
        owned = {}
        for route in build_router().routes():
            body = {"learner_id": "amy"} if route.name in BODY_OWNED else {}
            owner = context.owner_for(route.name, path_params(route), body)
            if owner is not None:
                owned[route.name] = owner
        assert set(owned) == OWNED
        assert set(owned.values()) == {context.owner("amy")}

    def test_a_learner_body_gives_every_outer_route_an_owner(self):
        """The body rule names no routes: a string ``learner_id`` in the
        body of any route but a peer leg (``exams.offer``,
        ``admin.checkpoint``, a GET sent with a body) sends the request
        to that learner's owner, not to the shard it landed on."""
        context = ClusterContext("shard-0", URLS)
        routes = build_router().routes()
        owned = {
            route.name for route in routes
            if context.owner_for(
                route.name, path_params(route), {"learner_id": "amy"}
            ) is not None
        }
        outer = {
            route.name for route in routes
            if not route.name.startswith("internal.")
        }
        assert OWNED < outer
        assert owned == outer

    def test_peer_legs_have_no_owner_even_with_a_learner_body(self):
        context = ClusterContext("shard-0", URLS)
        legs = [
            route for route in build_router().routes()
            if route.name.startswith("internal.")
        ]
        assert legs
        body = {"learner_id": "amy"}
        for route in legs:
            params = path_params(route)
            assert context.owner_for(route.name, params, body) is None

    @pytest.mark.parametrize(
        "body", [None, [], {}, {"learner_id": ""}, {"learner_id": 7}]
    )
    def test_no_string_id_means_no_owner(self, body):
        context = ClusterContext("shard-0", URLS)
        assert context.owner_for("learners.register", {}, body) is None

    def test_the_path_id_wins_over_the_body(self):
        context = ClusterContext("shard-0", URLS)
        learners = [f"learner-{index}" for index in range(50)]
        path_id = learners[0]
        body_id = next(
            learner for learner in learners
            if context.owner(learner) != context.owner(path_id)
        )
        owner = context.owner_for(
            "sittings.start",
            {"exam_id": "e1", "learner_id": path_id},
            {"learner_id": body_id},
        )
        assert owner == context.owner(path_id)


class TestConstruction:
    def test_a_shard_without_a_url_is_refused(self):
        with pytest.raises(ValueError, match="shard-3"):
            ClusterContext("shard-3", URLS)

    def test_the_ring_spans_the_urls(self):
        context = ClusterContext("shard-1", URLS, front_url=FRONT)
        assert context.ring.shards == list(URLS)
        assert context.peers() == ["shard-0", "shard-2"]
        topology = context.describe()
        del topology["pid"]
        assert topology == {
            "shard": "shard-1",
            "workers": 3,
            "replicas": DEFAULT_REPLICAS,
            "front_url": FRONT,
            "shards": [
                {"shard": name, "url": url} for name, url in URLS.items()
            ],
        }
