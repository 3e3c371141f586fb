"""Wire-format codec: HTTP messages <-> bytes.

Messages travel across the simulated transport as objects, so no hop
encodes or parses them.  This codec is the boundary for peers that
write raw ``bytes`` instead: the server and the agent parse such a
request with it and answer in bytes.  Malformed input raises
``CodecError``, which only raw payloads can trigger.  The ``Modify``
fault primitive (paper Table 2) never does: it rewrites the body bytes
of a message copy, and ``Content-Length`` is re-derived on encode.

Format (one message per transport payload, body length from
``Content-Length``)::

    GET /search?q=x HTTP/1.1\r\n
    X-Gremlin-Request-Id: test-42\r\n
    Content-Length: 5\r\n
    \r\n
    hello
"""

from __future__ import annotations

from repro.errors import CodecError
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse, Message
from repro.http.status import reason_phrase

__all__ = ["encode", "decode", "encode_request", "encode_response", "decode_request", "decode_response"]

_CRLF = b"\r\n"
_VERSION = b"HTTP/1.1"


def encode_request(request: HttpRequest) -> bytes:
    """Serialize a request to its wire form."""
    lines = [f"{request.method} {request.uri} HTTP/1.1".encode("ascii")]
    lines.extend(_encode_headers(request.headers, len(request.body)))
    lines.append(b"")
    head = _CRLF.join(lines) + _CRLF
    return head + request.body


def encode_response(response: HttpResponse) -> bytes:
    """Serialize a response to its wire form."""
    status_line = f"HTTP/1.1 {response.status} {reason_phrase(response.status)}".encode("ascii")
    lines = [status_line]
    lines.extend(_encode_headers(response.headers, len(response.body)))
    lines.append(b"")
    head = _CRLF.join(lines) + _CRLF
    return head + response.body


def encode(message: Message) -> bytes:
    """Serialize either message kind."""
    if isinstance(message, HttpRequest):
        return encode_request(message)
    if isinstance(message, HttpResponse):
        return encode_response(message)
    raise TypeError(f"cannot encode {type(message).__name__}")


def decode(payload: bytes) -> Message:
    """Parse a wire payload into a request or response.

    Raises :class:`~repro.errors.CodecError` for malformed payloads,
    e.g. a start line that is not HTTP.
    """
    start_line = payload.split(_CRLF, 1)[0]
    if start_line.startswith(b"HTTP/"):
        return decode_response(payload)
    return decode_request(payload)


def decode_request(payload: bytes) -> HttpRequest:
    """Parse a request; raises :class:`CodecError` on malformed input."""
    head, body = _split_head(payload)
    lines = head.split(_CRLF)
    parts = lines[0].split(b" ", 2)
    if len(parts) != 3 or parts[2] != _VERSION:
        raise CodecError(f"malformed request line: {lines[0]!r}")
    method = parts[0].decode("ascii", errors="replace")
    uri = parts[1].decode("ascii", errors="replace")
    headers = _decode_headers(lines[1:])
    body = _take_body(headers, body)
    try:
        return HttpRequest(method, uri, headers, body)
    except ValueError as exc:
        raise CodecError(f"invalid request: {exc}") from exc


def decode_response(payload: bytes) -> HttpResponse:
    """Parse a response; raises :class:`CodecError` on malformed input."""
    head, body = _split_head(payload)
    lines = head.split(_CRLF)
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or parts[0] != _VERSION:
        raise CodecError(f"malformed status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise CodecError(f"malformed status code: {parts[1]!r}") from None
    headers = _decode_headers(lines[1:])
    body = _take_body(headers, body)
    try:
        return HttpResponse(status, headers, body)
    except ValueError as exc:
        raise CodecError(f"invalid response: {exc}") from exc


# -- helpers ------------------------------------------------------------------


def _encode_headers(headers: Headers, body_len: int) -> list[bytes]:
    lines = []
    for key, value in headers.items():
        if key.lower() == "content-length":
            continue  # always derived from the actual body
        lines.append(f"{key}: {value}".encode("utf-8"))
    lines.append(f"Content-Length: {body_len}".encode("ascii"))
    return lines


def _split_head(payload: bytes) -> tuple[bytes, bytes]:
    if not isinstance(payload, (bytes, bytearray)):
        raise CodecError(f"payload must be bytes, got {type(payload).__name__}")
    marker = payload.find(_CRLF + _CRLF)
    if marker < 0:
        raise CodecError("payload has no header/body separator")
    return bytes(payload[:marker]), bytes(payload[marker + 4 :])


def _decode_headers(lines: list[bytes]) -> Headers:
    headers = Headers()
    for line in lines:
        if not line:
            continue
        key, sep, value = line.partition(b":")
        if not sep:
            raise CodecError(f"malformed header line: {line!r}")
        headers[key.decode("utf-8", errors="replace").strip()] = (
            value.decode("utf-8", errors="replace").strip()
        )
    return headers


def _take_body(headers: Headers, body: bytes) -> bytes:
    declared = headers.get("Content-Length")
    if declared is None:
        return body
    try:
        length = int(declared)
    except ValueError:
        raise CodecError(f"malformed Content-Length: {declared!r}") from None
    if length < 0 or length > len(body):
        raise CodecError(f"Content-Length {length} exceeds payload ({len(body)} bytes)")
    return body[:length]
