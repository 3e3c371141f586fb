"""Ownership of HTTP message objects carried across the transport.

Messages cross every hop as objects.  The transport hands each receiver
its own copy, taken at send time, so neither side can see the other's
later mutations — the guarantee a parse of fresh bytes used to give.
"""

import pytest

from repro.agent import abort
from repro.apps import build_twotier
from repro.http import REQUEST_ID_HEADER, HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.logstore import Query
from repro.microservice import PolicySpec
from repro.network import Address, Network

from tests.conftest import run_to_completion


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


class TestOwnership:
    def test_handler_mutations_do_not_reach_the_sender(self, sim, net):
        seen = []

        def handler(request):
            seen.append(request)
            request.headers[REQUEST_ID_HEADER] = "rewritten"
            request.headers["X-Touched"] = "yes"
            request.body = b"rewritten"
            yield sim.timeout(0.001)
            return HttpResponse(200, body=b"ok")

        HttpServer(net.add_host("server"), 80, handler).start()
        client = HttpClient(net.add_host("client"))
        request = HttpRequest("POST", "/x", {REQUEST_ID_HEADER: "test-1"}, b"payload")

        def scenario(sim):
            response = yield from client.call(Address("server", 80), request)
            return response.status

        assert run_to_completion(sim, scenario(sim)) == 200
        assert seen[0] is not request
        assert request.request_id == "test-1"
        assert "X-Touched" not in request.headers
        assert request.body == b"payload"

    def test_mutation_after_send_does_not_reach_the_receiver(self, sim, net):
        listener = net.add_host("server").listen(80)
        client_host = net.add_host("client")
        received = []

        def receiver(sim):
            conn = yield listener.accept()
            received.append((yield conn.recv()))

        def sender(sim):
            conn = yield client_host.connect(Address("server", 80))
            request = HttpRequest("POST", "/x", {"X-Mark": "sent"}, b"original")
            conn.send(request)
            request.uri = "/changed"
            request.headers["X-Mark"] = "changed"
            request.body = b"changed"
            yield sim.timeout(1.0)

        sim.process(receiver(sim))
        run_to_completion(sim, sender(sim))
        (got,) = received
        assert (got.uri, got.headers["X-Mark"], got.body) == ("/x", "sent", b"original")

    def test_replies_the_handler_reuses_stay_independent(self, sim, net):
        canned = HttpResponse(200, body=b"canned")

        def handler(request):
            yield sim.timeout(0.001)
            return canned

        HttpServer(net.add_host("server"), 80, handler).start()
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            first = yield from client.get(Address("server", 80), "/x")
            first.body = b"scribbled"
            first.headers["X-Scribbled"] = "yes"
            second = yield from client.get(Address("server", 80), "/x")
            return second

        second = run_to_completion(sim, scenario(sim))
        assert second.body == b"canned"
        assert "X-Scribbled" not in second.headers
        assert canned.body == b"canned"


class TestRetriesGetFreshSpans:
    def test_each_attempt_is_its_own_span_under_one_parent(self):
        """The agent writes the span header into the request it
        forwards; a retry of the same request must not inherit it."""
        deployment = build_twotier(policy=PolicySpec(timeout=5.0, max_retries=2)).deploy(seed=11)
        source = deployment.add_traffic_source("ServiceA")
        agent = deployment.agents_of("ServiceA")[0]
        agent.install_rule(abort("ServiceA", "ServiceB", error=503))

        def scenario(sim):
            request = HttpRequest("GET", "/api")
            request.request_id = "test-1"
            response = yield from source.client.call(request)
            return response.status

        assert run_to_completion(deployment.sim, scenario(deployment.sim)) == 500
        for kind in ("request", "reply"):
            records = deployment.store.search(Query(kind=kind, src="ServiceA", dst="ServiceB"))
            assert len(records) == 3
            assert all(record.status == 503 for record in records)
            assert len({record.span_id for record in records}) == 3
            parents = {record.parent_span for record in records}
            assert len(parents) == 1 and None not in parents
