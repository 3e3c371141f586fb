"""HTTP server over the simulated transport.

A server binds a port and spawns one simulation process per inbound
connection; each process loops request -> handler -> response, so a
single connection can carry sequential requests (keep-alive) while
concurrent connections are served in parallel.

Handlers are generator functions ``handler(request) -> HttpResponse``
that may ``yield`` events (e.g. make downstream calls via
:class:`~repro.http.client.HttpClient`).  Handler exceptions become
``500`` responses.

Requests normally arrive as message objects, and the handler owns the
one it gets.  A raw-byte peer's request is parsed with the codec and
answered in bytes; if it does not parse, the reply is a ``400``.
"""

from __future__ import annotations

import typing as _t

from repro.errors import CodecError
from repro.http import status as http_status
from repro.http.codec import decode_request, encode_response
from repro.http.headers import REQUEST_ID_HEADER
from repro.http.message import HttpRequest, HttpResponse
from repro.network.transport import ConnectionEnd, Host, Listener
from repro.simulation.kernel import Simulator
from repro.simulation.resources import ChannelClosed

__all__ = ["HttpServer", "Handler"]

#: A handler is a generator function from request to response.
Handler = _t.Callable[[HttpRequest], _t.Generator[_t.Any, _t.Any, HttpResponse]]


class HttpServer:
    """Binds ``port`` on ``host`` and serves ``handler``."""

    def __init__(self, host: Host, port: int, handler: Handler, name: str | None = None) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.name = name or f"{host.name}:{port}"
        self._listener: Listener | None = None
        #: Count of requests served, for tests and capacity checks.
        self.requests_served = 0

    @property
    def sim(self) -> Simulator:
        """The simulator the owning host runs on."""
        return self.host.sim

    @property
    def running(self) -> bool:
        """True while the listener is bound."""
        return self._listener is not None and not self._listener.closed

    def start(self) -> "HttpServer":
        """Bind the port and begin accepting connections."""
        listener = self.host.listen(self.port)
        listener.on_connect(self._spawn)
        self._listener = listener
        return self

    def stop(self) -> None:
        """Unbind; existing connections keep draining, new ones refused."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- internals --------------------------------------------------------------

    def _spawn(self, conn: ConnectionEnd) -> None:
        self.sim.process(self._serve(conn), name=f"{self.name}/serve")

    def _serve(self, conn: ConnectionEnd) -> _t.Generator:
        while True:
            try:
                payload = yield conn.recv()
            except (ChannelClosed, Exception):  # noqa: BLE001 - reset/close both end the loop
                break
            raw = isinstance(payload, bytes)
            response = yield from self._dispatch(payload, raw)
            if conn.closed:
                break
            try:
                conn.send(encode_response(response) if raw else response)
            except Exception:  # noqa: BLE001 - peer vanished mid-response
                break
            self.requests_served += 1

    def _dispatch(
        self, payload: _t.Any, raw: bool
    ) -> _t.Generator[_t.Any, _t.Any, HttpResponse]:
        request = payload
        if raw:
            try:
                request = decode_request(payload)
            except CodecError as exc:
                return HttpResponse.error(http_status.BAD_REQUEST, str(exc))
        try:
            response = yield from self.handler(request)
        except Exception as exc:  # noqa: BLE001 - handler crash => 500
            response = HttpResponse.error(
                http_status.INTERNAL_SERVER_ERROR,
                f"handler error: {type(exc).__name__}: {exc}",
                request_id=request.request_id,
            )
        if not isinstance(response, HttpResponse):
            response = HttpResponse.error(
                http_status.INTERNAL_SERVER_ERROR,
                f"handler returned {type(response).__name__}, expected HttpResponse",
                request_id=request.request_id,
            )
        # Echo the request ID so flows stay traceable end to end.
        rid = request.request_id
        if rid is not None and REQUEST_ID_HEADER not in response.headers:
            response.headers[REQUEST_ID_HEADER] = rid
        return response

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<HttpServer {self.name} {state}>"
