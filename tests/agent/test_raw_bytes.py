"""The agent's raw-byte path: callers that write wire bytes, not objects.

Services hand the sidecar message objects, but a loopback port is still
a plain transport port.  A caller that writes HTTP bytes is parsed at
the agent, relayed, and answered in bytes; garbage gets a ``400``.
"""

from repro.agent import abort
from repro.apps import build_twotier
from repro.http import REQUEST_ID_HEADER, HttpRequest, decode_response, encode_request
from repro.logstore import Query
from repro.microservice import PolicySpec

from tests.conftest import run_to_completion


def exchange(payload, rules=()):
    """Write ``payload`` to ServiceA's sidecar port for ServiceB and
    return ``(reply, deployment)``."""
    deployment = build_twotier(policy=PolicySpec(timeout=5.0)).deploy(seed=11)
    agent = deployment.agents_of("ServiceA")[0]
    for rule in rules:
        agent.install_rule(rule)
    address = agent.route_address("ServiceB")

    def scenario(sim):
        conn = yield agent.host.connect(address)
        conn.send(payload)
        reply = yield conn.recv()
        conn.close()
        return reply

    return run_to_completion(deployment.sim, scenario(deployment.sim)), deployment


def raw_request(request_id):
    return encode_request(HttpRequest("GET", "/api", {REQUEST_ID_HEADER: request_id}))


def test_garbage_gets_a_wire_encoded_400():
    reply, deployment = exchange(b"garbage that is not HTTP\r\n\r\n")
    assert isinstance(reply, bytes)
    assert decode_response(reply).status == 400
    assert len(deployment.store) == 0  # nothing proxied, nothing logged


def test_well_formed_bytes_are_proxied_and_answered_in_bytes():
    reply, deployment = exchange(raw_request("test-raw"))
    assert isinstance(reply, bytes)
    response = decode_response(reply)
    assert response.status == 200
    assert response.request_id == "test-raw"
    (record,) = deployment.store.search(
        Query(kind="request", src="ServiceA", dst="ServiceB", id_pattern="test-raw")
    )
    assert record.status == 200
    assert record.span_id is not None


def test_faults_apply_on_the_raw_path():
    reply, deployment = exchange(
        raw_request("test-raw"), rules=[abort("ServiceA", "ServiceB", error=503)]
    )
    assert isinstance(reply, bytes)
    assert decode_response(reply).status == 503
    (record,) = deployment.store.search(Query(kind="reply", src="ServiceA", dst="ServiceB"))
    assert record.gremlin_generated and record.fault_applied == "abort(503)"
