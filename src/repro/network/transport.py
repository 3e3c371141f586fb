"""Simulated connection-oriented transport (the TCP stand-in).

The paper's fault model (Section 3.1) enumerates what a microservice
can observe of a failing dependency: delayed responses, error
responses, invalid responses, connection timeouts, and failure to
establish the connection.  This transport exposes exactly those
observables:

* :meth:`Network.connect` fails with ``ConnectionRefusedError_`` when
  no listener is bound, with ``ConnectionTimeoutError`` when the
  destination is partitioned away (SYN blackholed), and with
  ``HostUnreachableError`` for unknown hosts.
* :meth:`ConnectionEnd.recv` fails with ``ConnectionResetError_`` when
  the peer resets — which is how a Gremlin ``Abort`` rule with
  ``Error=-1`` emulates an abrupt crash, per Section 5 of the paper.
* Messages in flight across a newly-partitioned link are silently
  dropped, so the caller's only signal is its own timeout.

Data units are either raw ``bytes`` or message objects (the HTTP
layer's ``HttpRequest``/``HttpResponse``).  A message object crosses
the link whole: :meth:`ConnectionEnd.send` hands the receiver the
object's own shallow ``copy()``, so sender and receiver never share
mutable state, and no hop pays to serialize and re-parse it.  The
transport never looks inside either kind.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.errors import (
    ConnectionRefusedError_,
    ConnectionResetError_,
    ConnectionTimeoutError,
    HostUnreachableError,
    NetworkError,
)
from repro.network.address import Address
from repro.network.latency import LatencyModel, as_latency
from repro.simulation.events import SimEvent
from repro.simulation.kernel import Simulator
from repro.simulation.resources import Channel, ChannelClosed

__all__ = ["Network", "Host", "Listener", "Connection", "ConnectionEnd"]

#: Default one-way link latency: 0.5 ms (same-datacenter RTT ~1 ms).
DEFAULT_LINK_LATENCY = 0.0005

#: Default loopback latency for microservice -> sidecar hops: 10 µs.
DEFAULT_LOOPBACK_LATENCY = 0.00001

#: How long a connect attempt waits before concluding the destination is
#: unreachable (partitioned).  Mirrors a kernel SYN-retry budget.
DEFAULT_CONNECT_TIMEOUT = 3.0


class Network:
    """The simulated network fabric: hosts, links, partitions.

    A single :class:`Network` hosts an entire application deployment.
    Links are implicit (full mesh); latency comes from a default model
    with optional per-host-pair overrides.  Partitions are symmetric
    host-pair blocks that drop in-flight traffic and blackhole new
    connection attempts.
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency: _t.Union[float, LatencyModel, None] = DEFAULT_LINK_LATENCY,
        loopback_latency: _t.Union[float, LatencyModel, None] = DEFAULT_LOOPBACK_LATENCY,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.sim = sim
        self.default_latency = as_latency(default_latency)
        self.loopback_latency = as_latency(loopback_latency)
        self.connect_timeout = connect_timeout
        self._hosts: dict[str, Host] = {}
        self._pair_latency: dict[frozenset[str], LatencyModel] = {}
        self._partitions: set[frozenset[str]] = set()
        self._conn_ids = itertools.count(1)

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str) -> "Host":
        """Create and register a host; names must be unique."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(self, name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> "Host":
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise HostUnreachableError(f"no host named {name!r}") from None

    def has_host(self, name: str) -> bool:
        """True if a host with this name exists."""
        return name in self._hosts

    @property
    def hosts(self) -> list["Host"]:
        """All registered hosts (stable order of registration)."""
        return list(self._hosts.values())

    def set_latency(
        self, host_a: str, host_b: str, latency: _t.Union[float, LatencyModel]
    ) -> None:
        """Override the latency model for one host pair (symmetric)."""
        self._pair_latency[frozenset((host_a, host_b))] = as_latency(latency)

    def latency_between(self, host_a: str, host_b: str) -> float:
        """Sample a one-way delay for a message between two hosts."""
        if host_a == host_b:
            return self.loopback_latency.sample(self.sim)
        model = self._pair_latency.get(frozenset((host_a, host_b)), self.default_latency)
        return model.sample(self.sim)

    # -- partitions -------------------------------------------------------------

    def partition(self, host_a: str, host_b: str) -> None:
        """Block all traffic between two hosts (symmetric)."""
        self._partitions.add(frozenset((host_a, host_b)))

    def heal(self, host_a: str, host_b: str) -> None:
        """Remove a partition between two hosts (no-op if absent)."""
        self._partitions.discard(frozenset((host_a, host_b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    def is_partitioned(self, host_a: str, host_b: str) -> bool:
        """True if traffic between the two hosts is currently blocked."""
        return frozenset((host_a, host_b)) in self._partitions

    # -- connections ---------------------------------------------------------------

    def connect(
        self,
        src: "Host",
        dst: Address,
        timeout: float | None = None,
    ) -> SimEvent:
        """Open a connection from ``src`` to ``dst``.

        Returns an event that succeeds with a :class:`ConnectionEnd`
        (the client side) or fails with one of the transport errors.
        Refusal is signalled after one RTT; partition/blackhole after
        ``timeout`` (default: the network's connect timeout).
        """
        ev = self.sim.event()
        budget = self.connect_timeout if timeout is None else timeout

        if dst.is_loopback:
            dst_host: Host | None = src
        else:
            dst_host = self._hosts.get(dst.host)

        if dst_host is None:
            # Unknown host: fail after the connect budget, like a DNS
            # blackhole / unroutable address.
            self.sim._schedule_at(
                self.sim.now + budget,
                _failer(ev, HostUnreachableError(f"no route to host {dst.host!r}")),
            )
            return ev

        if src.name != dst_host.name and self.is_partitioned(src.name, dst_host.name):
            self.sim._schedule_at(
                self.sim.now + budget,
                _failer(
                    ev,
                    ConnectionTimeoutError(
                        f"connect {src.name} -> {dst}: network partition"
                    ),
                ),
            )
            return ev

        rtt = self.latency_between(src.name, dst_host.name) * 2
        listener = dst_host._listeners.get(dst.port)
        if listener is None or listener.closed:
            self.sim._schedule_at(
                self.sim.now + rtt,
                _failer(ev, ConnectionRefusedError_(f"connection refused: {dst}")),
            )
            return ev

        conn = Connection(self, next(self._conn_ids), src, dst_host, dst.port)
        # Handshake completes after one RTT; then both sides learn of it.
        done = self.sim.timeout(rtt)

        def _complete(_: SimEvent) -> None:
            if listener.closed:
                ev.fail(ConnectionRefusedError_(f"connection refused: {dst}"))
                return
            listener._deliver(conn.server_end)
            ev.succeed(conn.client_end)

        done.add_callback(_complete)
        return ev


def _failer(ev: SimEvent, exc: Exception) -> SimEvent:
    """Build a pseudo-event whose processing fails ``ev`` with ``exc``.

    Internal helper: the kernel heap stores events, so delayed failure
    is expressed as a tiny already-succeeded event with one callback.
    """
    trigger = SimEvent(ev.sim)
    trigger._ok = True  # noqa: SLF001 - kernel-internal construction
    trigger._value = None
    trigger.add_callback(lambda _e: ev.fail(exc))
    return trigger


class Host:
    """A machine (or container) on the simulated network."""

    def __init__(self, network: Network, name: str) -> None:
        self.network = network
        self.name = name
        self._listeners: dict[int, Listener] = {}

    @property
    def sim(self) -> Simulator:
        """The simulator this host's network runs on."""
        return self.network.sim

    def listen(self, port: int) -> "Listener":
        """Bind a listener on ``port``; returns the Listener."""
        if port in self._listeners and not self._listeners[port].closed:
            raise NetworkError(f"{self.name}: port {port} already bound")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, dst: Address, timeout: float | None = None) -> SimEvent:
        """Open an outbound connection; see :meth:`Network.connect`."""
        return self.network.connect(self, dst, timeout=timeout)

    def __repr__(self) -> str:
        return f"<Host {self.name!r} listeners={sorted(self._listeners)}>"


class Listener:
    """A bound port accepting inbound connections."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.closed = False
        self._accept_queue: Channel = Channel(host.sim, name=f"{host.name}:{port}/accept")
        self._on_connect: _t.Callable[["ConnectionEnd"], None] | None = None

    @property
    def address(self) -> Address:
        """The address this listener is bound to."""
        return Address(self.host.name, self.port)

    def accept(self) -> SimEvent:
        """Event yielding the next inbound :class:`ConnectionEnd`."""
        return self._accept_queue.get()

    def on_connect(self, callback: _t.Callable[["ConnectionEnd"], None]) -> None:
        """Deliver every new connection to ``callback`` instead of the
        accept queue — the idiom servers use to spawn a handler process
        per connection."""
        self._on_connect = callback
        # Drain anything already queued.
        while len(self._accept_queue):
            ev = self._accept_queue.get()
            callback(ev.value)

    def _deliver(self, server_end: "ConnectionEnd") -> None:
        if self._on_connect is not None:
            self._on_connect(server_end)
        else:
            self._accept_queue.put(server_end)

    def close(self) -> None:
        """Unbind: subsequent connects are refused."""
        self.closed = True
        self.host._listeners.pop(self.port, None)
        self._accept_queue.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Listener {self.address} {state}>"


class Connection:
    """A bidirectional message pipe between two hosts.

    Holds the two :class:`ConnectionEnd` halves.  Application code only
    ever touches the ends; the Connection exists so resets and closes
    can coordinate both directions.
    """

    def __init__(
        self, network: Network, conn_id: int, client_host: Host, server_host: Host, port: int
    ) -> None:
        self.network = network
        self.id = conn_id
        self.client_host = client_host
        self.server_host = server_host
        self.port = port
        label = f"conn{conn_id}:{client_host.name}->{server_host.name}:{port}"
        self.client_end = ConnectionEnd(self, client_host, server_host, f"{label}/client")
        self.server_end = ConnectionEnd(self, server_host, client_host, f"{label}/server")
        self.client_end.peer = self.server_end
        self.server_end.peer = self.client_end

    def __repr__(self) -> str:
        return f"<Connection #{self.id} {self.client_host.name}->{self.server_host.name}:{self.port}>"


class ConnectionEnd:
    """One endpoint of a connection: send to the peer, recv from it."""

    def __init__(self, conn: Connection, local: Host, remote: Host, label: str) -> None:
        self.conn = conn
        self.local = local
        self.remote = remote
        self.label = label
        self.peer: "ConnectionEnd" | None = None  # set by Connection
        self._inbox: Channel = Channel(conn.network.sim, name=f"{label}/inbox")
        self.closed = False

    @property
    def sim(self) -> Simulator:
        """The simulator this connection runs on."""
        return self.conn.network.sim

    def send(self, payload: _t.Any) -> None:
        """Transmit ``payload`` to the peer after one link latency.

        ``payload`` is ``bytes``/``bytearray`` (delivered as ``bytes``)
        or a message object with a ``copy()`` method.  The copy, taken
        now, is what the peer receives, so later changes by the sender
        never reach it.  Anything else (a ``str``, say) is a
        ``TypeError``.

        Sends on a closed end raise ``ConnectionResetError_``; messages
        crossing a link that is partitioned *at delivery time* are
        dropped silently (the real-world behaviour that makes client
        timeouts necessary).
        """
        if self.closed:
            raise ConnectionResetError_(f"{self.label}: send on closed connection")
        if isinstance(payload, (bytes, bytearray)):
            payload = bytes(payload)
        else:
            copy = getattr(payload, "copy", None)
            if copy is None:
                raise TypeError(
                    f"payload must be bytes or a message object, got {type(payload).__name__}"
                )
            payload = copy()
        network = self.conn.network
        delay = network.latency_between(self.local.name, self.remote.name)
        peer = self.peer
        assert peer is not None

        def _deliver(_: SimEvent) -> None:
            if peer._inbox.closed:
                return  # peer already gone; drop like a RST race
            if self.local.name != self.remote.name and network.is_partitioned(
                self.local.name, self.remote.name
            ):
                return  # dropped on the floor by the partition
            peer._inbox.put(payload)

        self.sim.timeout(delay).add_callback(_deliver)

    def recv(self) -> SimEvent:
        """Event yielding the next payload from the peer.

        Fails with ``ConnectionResetError_`` if the peer resets, or
        :class:`~repro.simulation.resources.ChannelClosed` on orderly
        close with nothing buffered.
        """
        return self._inbox.get()

    def close(self) -> None:
        """Orderly close of both directions (delivered after latency)."""
        self._shutdown(reset=False)

    def reset(self) -> None:
        """Abortive close: the peer's pending/future recv fails with
        ``ConnectionResetError_``.  This is the transport mechanism the
        Abort fault uses for ``Error=-1``."""
        self._shutdown(reset=True)

    def _shutdown(self, reset: bool) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        assert peer is not None
        delay = self.conn.network.latency_between(self.local.name, self.remote.name)

        def _notify(_: SimEvent) -> None:
            if peer._inbox.closed:
                return
            if reset:
                peer._inbox.close(ConnectionResetError_(f"{peer.label}: connection reset by peer"))
            else:
                peer._inbox.close()
            peer.closed = True

        self.sim.timeout(delay).add_callback(_notify)
        if reset:
            # Local pending receives also fail immediately on reset.
            self._inbox.close(ConnectionResetError_(f"{self.label}: connection reset"))
        else:
            self._inbox.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<ConnectionEnd {self.label} {state}>"


# Re-export ChannelClosed so transport users need not import resources.
__all__.append("ChannelClosed")
