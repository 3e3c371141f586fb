"""HTTP client over the simulated transport.

:meth:`HttpClient.call` is a *generator subroutine*: service handler
code running inside a simulation process invokes it with
``yield from``.  It opens a connection, sends the request object,
awaits the response, and surfaces every fault-model observable as an
exception (network errors, per-call timeout).  Messages travel as
objects both ways, so the call never pays the HTTP codec.

This client is deliberately *naive* — no retries, no breaker, no
default timeout.  The resilience patterns live one layer up, in
:mod:`repro.microservice.resilience`, precisely so Gremlin tests can
distinguish services that adopted the patterns from services that did
not.
"""

from __future__ import annotations

import typing as _t

from repro.errors import RequestTimeoutError
# Requests leave and replies arrive as objects, so the codec has no
# caller here; its names stay bound because perfbench/spans.py wraps the
# codec where it is imported.
from repro.http.codec import decode_response, encode_request  # noqa: F401
from repro.http.message import HttpRequest, HttpResponse
from repro.network.address import Address
from repro.network.transport import ConnectionEnd, Host
from repro.simulation.events import AnyOf, SimEvent
from repro.simulation.kernel import Simulator

__all__ = ["HttpClient", "await_with_deadline"]


def await_with_deadline(
    sim: Simulator, event: SimEvent, deadline: float | None
) -> _t.Generator[SimEvent, _t.Any, _t.Any]:
    """Wait for ``event``, but no later than absolute time ``deadline``.

    Generator subroutine (use with ``yield from``).  Returns the event's
    value; raises :class:`RequestTimeoutError` if the deadline passes
    first; propagates the event's failure exception otherwise.
    """
    if deadline is None:
        result = yield event
        return result
    remaining = deadline - sim.now
    if remaining <= 0:
        raise RequestTimeoutError(elapsed=0.0)
    timer = sim.timeout(remaining)
    winner = yield AnyOf(sim, [event, timer])
    if event in winner:
        return winner[event]
    raise RequestTimeoutError(elapsed=remaining)


class HttpClient:
    """One-connection-per-request HTTP client for a simulated host."""

    def __init__(self, host: Host, default_timeout: float | None = None) -> None:
        self.host = host
        self.default_timeout = default_timeout

    @property
    def sim(self) -> Simulator:
        """The simulator the owning host runs on."""
        return self.host.sim

    def call(
        self,
        dst: Address,
        request: HttpRequest,
        timeout: float | None = None,
    ) -> _t.Generator[SimEvent, _t.Any, HttpResponse]:
        """Send ``request`` to ``dst`` and return the response.

        Generator subroutine (use with ``yield from`` inside a process).

        ``timeout`` bounds the *whole* call — connect plus response —
        in virtual seconds; ``None`` falls back to the client default,
        and if that is also ``None`` the call waits forever (which is
        exactly the missing-timeout anti-pattern Fig 5 exposes).

        The response arrives as a message object and is never parsed,
        so a ``Modify`` fault (which rewrites the body of a copy) cannot
        make it unreadable.

        Raises
        ------
        RequestTimeoutError
            The deadline expired before the response arrived.
        NetworkError subclasses
            Connection refused / reset / partitioned, per the transport.
        """
        sim = self.sim
        budget = self.default_timeout if timeout is None else timeout
        deadline = None if budget is None else sim.now + budget

        conn: ConnectionEnd | None = None
        try:
            conn_ev = self.host.connect(dst)
            conn = yield from await_with_deadline(sim, conn_ev, deadline)
            conn.send(request)
            response = yield from await_with_deadline(sim, conn.recv(), deadline)
        finally:
            # Abandon the connection whether we succeeded, timed out or
            # hit a transport error; late server responses are dropped.
            if conn is not None and not conn.closed:
                conn.close()
        return response

    def get(
        self, dst: Address, uri: str, timeout: float | None = None, **header_kwargs: str
    ) -> _t.Generator[SimEvent, _t.Any, HttpResponse]:
        """Shorthand for a GET call (generator subroutine)."""
        request = HttpRequest("GET", uri, dict(header_kwargs))
        response = yield from self.call(dst, request, timeout=timeout)
        return response
