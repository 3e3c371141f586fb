"""Case-insensitive HTTP header map.

Request-ID propagation — the mechanism Gremlin uses to confine fault
injection to test traffic (paper Section 4.1, "Injecting faults on
specific request flows") — rides in a header, so the header map is a
first-class substrate component.
"""

from __future__ import annotations

import typing as _t

__all__ = ["Headers", "REQUEST_ID_HEADER", "SPAN_ID_HEADER"]

#: The header carrying the globally-unique request ID that every
#: microservice propagates downstream (cf. Zipkin's ``X-B3-TraceId``).
REQUEST_ID_HEADER = "X-Gremlin-Request-Id"

#: The header carrying the span ID of the *enclosing* call, so the next
#: sidecar hop can record it as the parent span (cf. ``X-B3-SpanId``).
#: Minted by agents, propagated by services alongside the request ID.
SPAN_ID_HEADER = "X-Gremlin-Span-Id"


class Headers:
    """An ordered, case-insensitive single-value header map.

    Keys preserve their first-seen casing for serialization but compare
    case-insensitively, as HTTP requires.  Values are strings.
    """

    def __init__(self, items: _t.Union[dict, _t.Iterable[tuple[str, str]], None] = None) -> None:
        self._entries: dict[str, tuple[str, str]] = {}
        if items:
            pairs = items.items() if isinstance(items, dict) else items
            for key, value in pairs:
                self[key] = value

    def __setitem__(self, key: str, value: str) -> None:
        self._entries[key.lower()] = (key, str(value))

    def __getitem__(self, key: str) -> str:
        return self._entries[key.lower()][1]

    def __delitem__(self, key: str) -> None:
        del self._entries[key.lower()]

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and key.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> _t.Iterator[str]:
        return (original for original, _value in self._entries.values())

    def get(self, key: str, default: str | None = None) -> str | None:
        """Value for ``key`` or ``default`` if absent."""
        entry = self._entries.get(key.lower())
        return entry[1] if entry is not None else default

    def setdefault(self, key: str, value: str) -> str:
        """Set ``key`` to ``value`` unless present; return final value."""
        if key in self:
            return self[key]
        self[key] = value
        return value

    def items(self) -> _t.Iterator[tuple[str, str]]:
        """Iterate ``(original_case_key, value)`` pairs in insert order."""
        return iter(list(self._entries.values()))

    def copy(self) -> "Headers":
        """An independent copy (entries are immutable tuples, so a
        shallow copy of the map is enough)."""
        clone = Headers.__new__(Headers)
        clone._entries = dict(self._entries)
        return clone

    def to_dict(self) -> dict[str, str]:
        """Plain dict snapshot (original-case keys)."""
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Headers):
            return {k.lower(): v for k, (_, v) in self._entries.items()} == {
                k.lower(): v for k, (_, v) in other._entries.items()
            }
        return NotImplemented

    def __repr__(self) -> str:
        return f"Headers({self.to_dict()!r})"
