"""The observation-record schema shared by agents and the checker.

Paper Section 4.1 lists what each Gremlin agent records about an API
call: the message timestamp and request ID, parts of the message
(status codes, request URI), and the fault actions applied, if any.
:class:`ObservationRecord` carries exactly that, plus the bookkeeping
fields (``injected_delay``, ``gremlin_generated``) needed to implement
the ``withRule`` accounting of the assertion interface (Table 3).
"""

from __future__ import annotations

import dataclasses
import typing as _t

__all__ = ["ObservationKind", "ObservationRecord"]

#: Outcome fields the agent mutates in place after ingestion *and* the
#: store indexes.  Assignments to these notify the owning store so its
#: secondary indexes can follow the update (the in-process analogue of
#: an Elasticsearch document update re-indexing the changed fields).
#: Identity fields (kind, src, dst, timestamp, request_id) are treated
#: as immutable once a record is stored.
_INDEXED_MUTABLE_FIELDS = frozenset({"status", "fault_applied"})


class ObservationKind:
    """Enumeration of the two observable message directions."""

    REQUEST = "request"
    REPLY = "reply"

    ALL = (REQUEST, REPLY)


@dataclasses.dataclass(init=False)
class ObservationRecord:
    """One logged observation of a message at a Gremlin agent.

    Records are *mutable*: the agent emits a request record the moment
    the call leaves the caller, then updates its ``status``/``error``
    in place once the outcome is known — the in-process analogue of an
    Elasticsearch document update.  This is what lets ``CheckStatus``
    operate on request lists ("check that at least NumMatch requests
    have *returned* status Status", Table 3) without a join.

    Fields
    ------
    timestamp:
        Virtual time at which the agent observed the message (for
        replies: the time the reply was delivered to the caller).
    kind:
        ``"request"`` or ``"reply"``.
    src / dst:
        Logical service names of caller and callee.
    src_instance:
        Physical instance ID of the caller whose sidecar logged this.
    request_id:
        Propagated end-to-end request ID, or ``None`` for untagged
        traffic.
    method / uri:
        Request line parts (also echoed on the reply record).
    status:
        HTTP status code; ``None`` on request records and on replies
        that never materialized (transport error instead).
    latency:
        Reply records only: time from the caller's request leaving the
        agent to the reply being handed back, as the caller observed it
        (i.e. *including* any Gremlin-injected delay).
    injected_delay:
        Delay added by Gremlin rules on this call (0.0 if none); used
        by ``withRule=False`` queries to recover the callee's true
        timing.
    fault_applied:
        Human-readable description of the rule action applied, e.g.
        ``"abort(503)"``, ``"delay(3.0)"``, ``"modify"``, or ``None``.
    gremlin_generated:
        True when the reply was synthesized by the agent itself (an
        Abort) rather than produced by the callee; ``withRule=False``
        reply queries exclude these.
    error:
        Transport-level failure observed instead of an HTTP reply:
        ``"reset"``, ``"timeout"``, ``"refused"``, ``"unreachable"``
        or ``None``.
    span_id:
        Identity of the proxied call this record belongs to, minted by
        the observing agent (one span per request/reply exchange —
        each retry attempt is its own span).  ``None`` for records from
        deployments with tracing disabled.
    parent_span:
        Span ID of the enclosing call, read from the propagated span
        header; ``None`` for root spans (the trace's entry edge) and
        untraced records.  The ``(span_id, parent_span)`` pair is what
        :mod:`repro.observability.trace` rebuilds causal trees from.
    """

    timestamp: float
    kind: str
    src: str
    dst: str
    src_instance: str = ""
    request_id: _t.Optional[str] = None
    method: _t.Optional[str] = None
    uri: _t.Optional[str] = None
    status: _t.Optional[int] = None
    latency: _t.Optional[float] = None
    injected_delay: float = 0.0
    fault_applied: _t.Optional[str] = None
    gremlin_generated: bool = False
    error: _t.Optional[str] = None
    span_id: _t.Optional[str] = None
    parent_span: _t.Optional[str] = None

    def __init__(
        self,
        timestamp: float,
        kind: str,
        src: str,
        dst: str,
        src_instance: str = "",
        request_id: _t.Optional[str] = None,
        method: _t.Optional[str] = None,
        uri: _t.Optional[str] = None,
        status: _t.Optional[int] = None,
        latency: _t.Optional[float] = None,
        injected_delay: float = 0.0,
        fault_applied: _t.Optional[str] = None,
        gremlin_generated: bool = False,
        error: _t.Optional[str] = None,
        span_id: _t.Optional[str] = None,
        parent_span: _t.Optional[str] = None,
    ) -> None:
        if kind not in ObservationKind.ALL:
            raise ValueError(f"kind must be one of {ObservationKind.ALL}, got {kind!r}")
        # Fields go straight into __dict__ rather than through
        # __setattr__: a record under construction belongs to no store,
        # so there is no index hook to notify.  One store per field, in
        # declaration order, keeps the instance dict key-sharing;
        # ``__dict__.update(...)`` would double its size.
        fields = self.__dict__
        fields["timestamp"] = timestamp
        fields["kind"] = kind
        fields["src"] = src
        fields["dst"] = dst
        fields["src_instance"] = src_instance
        fields["request_id"] = request_id
        fields["method"] = method
        fields["uri"] = uri
        fields["status"] = status
        fields["latency"] = latency
        fields["injected_delay"] = injected_delay
        fields["fault_applied"] = fault_applied
        fields["gremlin_generated"] = gremlin_generated
        fields["error"] = error
        fields["span_id"] = span_id
        fields["parent_span"] = parent_span

    def __setattr__(self, name: str, value: _t.Any) -> None:
        # Stores install ``_index_hook`` (a plain __dict__ entry, not a
        # dataclass field) at ingest time; updates to indexed mutable
        # fields flow through it so posting lists stay a superset of
        # the truth.  Unhooked records (owned by a linear-strategy
        # store, or built but not yet stored) pay only the membership
        # test; construction bypasses this method entirely.
        if name in _INDEXED_MUTABLE_FIELDS:
            hook = self.__dict__.get("_index_hook")
            if hook is not None and value != self.__dict__.get(name):
                hook(self, name, value)
        object.__setattr__(self, name, value)

    @property
    def is_request(self) -> bool:
        """True for request-direction observations."""
        return self.kind == ObservationKind.REQUEST

    @property
    def is_reply(self) -> bool:
        """True for reply-direction observations."""
        return self.kind == ObservationKind.REPLY

    @property
    def actual_latency(self) -> _t.Optional[float]:
        """Reply latency with Gremlin's injected delay factored out.

        This is what ``ReplyLatency(..., withRule=False)`` reports: the
        callee's untampered behaviour during multi-fault experiments.
        """
        if self.latency is None:
            return None
        return max(0.0, self.latency - self.injected_delay)

    def to_dict(self) -> dict:
        """Plain-dict form, e.g. for JSON-lines export."""
        return dataclasses.asdict(self)
