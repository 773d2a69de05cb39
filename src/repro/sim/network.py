"""Simulated point-to-point network.

Models exactly the failure modes the paper reasons about:

- **refused connections** -- nothing listening, or the host is down
  ("a refused network connection may indicate that the target service is
  temporarily offline, or ... an invalid address", §5);
- **timeouts** -- partitions and down hosts surface as elapsed time, the
  raw material for time-dependent scope resolution;
- **broken connections** -- "on a network connection, an escaping error is
  communicated by breaking the connection" (§3.2); :meth:`Connection.break_`
  implements precisely that.

All failures are delivered as :class:`NetworkError` subclasses with an
errno-style ``code`` so that higher layers can classify them without
string matching.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import AnyOf, Event, Simulator, Timeout

__all__ = [
    "BrokenConnection",
    "Connection",
    "ConnectionRefused",
    "ConnectionTimedOut",
    "Endpoint",
    "HostUnreachable",
    "Listener",
    "Network",
    "NetworkError",
]

#: One-way latency between two distinct hosts, in simulated seconds.
LATENCY = 0.001


class NetworkError(Exception):
    """Base class for simulated network failures."""

    code = "ENET"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail


class ConnectionRefused(NetworkError):
    """The destination exists but nothing is listening (or it refused)."""

    code = "ECONNREFUSED"


class ConnectionTimedOut(NetworkError):
    """No response within the caller's patience (partition or down host)."""

    code = "ETIMEDOUT"


class HostUnreachable(NetworkError):
    """The named host is not registered on the network."""

    code = "EHOSTUNREACH"


class BrokenConnection(NetworkError):
    """The peer broke the connection -- the wire form of an escaping error."""

    code = "ECONNRESET"


class Endpoint:
    """An address: ``(host, port)``."""

    __slots__ = ("host", "port")

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def key(self) -> tuple[str, int]:
        return (self.host, self.port)

    def __repr__(self) -> str:
        return f"{self.host}:{self.port}"


class Connection:
    """One side of an established duplex message channel."""

    __slots__ = ("sim", "network", "local", "remote", "peer",
                 "_inbox", "_waiters", "_broken", "bytes_sent")

    def __init__(self, sim: Simulator, network: "Network", local: Endpoint, remote: Endpoint):
        self.sim = sim
        self.network = network
        self.local = local
        self.remote = remote
        self.peer: "Connection | None" = None  # set by Network
        self._inbox: deque[Any] = deque()
        self._waiters: deque[Event] = deque()
        self._broken = False
        self.bytes_sent = 0

    # -- state ---------------------------------------------------------
    @property
    def broken(self) -> bool:
        """True once either side has broken/closed the connection."""
        return self._broken

    # -- sending ---------------------------------------------------------
    def send(self, message: Any, size: int = 64) -> None:
        """Send *message* to the peer; delivery after network latency.

        *size* is the nominal wire size in bytes, recorded for traffic
        accounting (the black-hole experiment measures wasted bytes).

        Raises :class:`BrokenConnection` if the channel is already broken.
        Messages sent into a partition are silently dropped -- the sender
        only discovers the problem via timeout, as on a real network.
        """
        if self._broken:
            raise BrokenConnection("send on broken connection")
        self.bytes_sent += size
        self.network._record_traffic(self.local.host, self.remote.host, size)
        peer = self.peer
        assert peer is not None
        if self.network.is_partitioned(self.local.host, self.remote.host):
            return  # dropped on the floor
        message = self.network._maybe_corrupt(message)
        latency = self.network.latency(self.local.host, self.remote.host)
        self.sim.call_in(latency, peer._deliver, message)

    def _deliver(self, message: Any) -> None:
        if self._broken:
            return
        self._inbox.append(message)
        self._wake()

    def _wake(self) -> None:
        while self._waiters and (self._inbox or self._broken):
            waiter = self._waiters.popleft()
            if waiter._triggered:
                continue
            if self._inbox:
                waiter._trigger(True, self._inbox.popleft())
            else:
                waiter._trigger(False, BrokenConnection("peer broke connection"))

    # -- receiving -----------------------------------------------------
    def recv(self, timeout: float | None = None):
        """Generator: wait for the next message.

        ``msg = yield from conn.recv(timeout=5.0)``

        Raises :class:`ConnectionTimedOut` if *timeout* elapses first and
        :class:`BrokenConnection` if the peer breaks the channel while we
        wait (the escaping error arriving on the wire).
        """
        if self._inbox:
            return self._inbox.popleft()
        if self._broken:
            raise BrokenConnection("recv on broken connection")
        waiter = Event(self.sim)
        self._waiters.append(waiter)
        if timeout is None:
            msg = yield waiter
            return msg
        expiry = Timeout(self.sim, timeout)
        outcome = yield AnyOf(self.sim, [waiter, expiry])
        if waiter in outcome:
            # The message won the race: the deadline is dead weight in
            # the event heap; cancel it so firing is a no-op.
            expiry.cancel()
            return outcome[waiter]
        # Timed out: detach so a late delivery is not lost to a dead waiter.
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass
        if not waiter._triggered:
            waiter.defuse()
            waiter.succeed(None)  # neutralize
            raise ConnectionTimedOut(f"no message within {timeout}s")
        return waiter._value

    # -- teardown ---------------------------------------------------------
    def break_(self) -> None:
        """Break the connection abruptly -- communicates an escaping error.

        The peer's pending and future ``recv`` calls raise
        :class:`BrokenConnection`; so do its ``send`` calls.
        """
        self._teardown()
        # An unlinked peer is already torn down; the no-op entry it would
        # have got is this side's.
        peer = self.peer if self.peer is not None else self
        latency = self.network.latency(self.local.host, self.remote.host)
        self.sim.call_in(latency, peer._teardown)

    close = break_  # a close is observed identically by the remote peer

    def _teardown(self) -> None:
        if self._broken:
            return
        self._broken = True
        self._wake()
        peer = self.peer
        if peer is not None and peer._broken:
            self.peer = peer.peer = None  # both sides down: unlink

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Connection {self.local}->{self.remote} broken={self._broken}>"


class Listener:
    """A passive endpoint accepting inbound connections."""

    __slots__ = ("sim", "network", "endpoint", "_backlog", "_accept_waiters", "closed")

    def __init__(self, sim: Simulator, network: "Network", endpoint: Endpoint):
        self.sim = sim
        self.network = network
        self.endpoint = endpoint
        self._backlog: deque[Connection] = deque()
        self._accept_waiters: deque[Event] = deque()
        self.closed = False

    def _offer(self, conn: Connection) -> None:
        self._backlog.append(conn)
        while self._accept_waiters and self._backlog:
            waiter = self._accept_waiters.popleft()
            if not waiter._triggered:
                waiter.succeed(self._backlog.popleft())

    def accept(self):
        """Generator: wait for and return the next inbound :class:`Connection`."""
        if self._backlog:
            return self._backlog.popleft()
        waiter = Event(self.sim)
        self._accept_waiters.append(waiter)
        conn = yield waiter
        return conn

    def close(self) -> None:
        """Stop accepting; future connect attempts are refused."""
        self.closed = True
        self.network._unlisten(self.endpoint)


class Network:
    """The fabric connecting simulated hosts."""

    def __init__(
        self,
        sim: Simulator,
        rng=None,
    ):
        self.sim = sim
        #: Probability that an eligible message's payload is silently
        #: corrupted in flight -- the "CRC and TCP checksum disagree"
        #: fault, the raw material of *implicit* errors.
        self.corrupt_probability = 0.0
        #: Predicate selecting which messages are eligible for corruption
        #: (default: any message with a non-empty ``data: bytes`` field).
        self.corrupt_filter = None
        self.corruptions = 0
        self.rng = rng
        self._hosts: set[str] = set()
        self._listeners: dict[tuple[str, int], Listener] = {}
        self._partitions: set[frozenset[str]] = set()
        self._down_hosts: set[str] = set()
        self.traffic_bytes: dict[tuple[str, str], int] = {}

    # -- topology ----------------------------------------------------------
    def register_host(self, host: str) -> None:
        """Add *host* to the fabric (idempotent)."""
        self._hosts.add(host)

    def set_host_down(self, host: str, down: bool = True) -> None:
        """A down host refuses nothing and answers nothing: connects time out."""
        if down:
            self._down_hosts.add(host)
        else:
            self._down_hosts.discard(host)

    def partition(self, host_a: str, host_b: str) -> None:
        """Silently drop all traffic between *host_a* and *host_b*."""
        self._partitions.add(frozenset((host_a, host_b)))

    def heal(self, host_a: str, host_b: str) -> None:
        """Remove the partition between *host_a* and *host_b*."""
        self._partitions.discard(frozenset((host_a, host_b)))

    def is_partitioned(self, host_a: str, host_b: str) -> bool:
        # no pair is built while nothing is partitioned (the usual case)
        return bool(self._partitions) and frozenset((host_a, host_b)) in self._partitions

    def latency(self, host_a: str, host_b: str) -> float:
        return 0.0 if host_a == host_b else LATENCY

    def _maybe_corrupt(self, message: Any) -> Any:
        """Silently flip one payload byte with ``corrupt_probability``.

        The corrupted message is still well-formed -- no layer below the
        application can notice, which is exactly what makes the resulting
        error *implicit* (paper §5's end-to-end discussion).
        """
        if self.corrupt_probability <= 0.0 or self.rng is None:
            return message
        data = getattr(message, "data", None)
        if not isinstance(data, bytes) or not data:
            return message
        if self.corrupt_filter is not None and not self.corrupt_filter(message):
            return message
        if self.rng.random() >= self.corrupt_probability:
            return message
        import dataclasses

        idx = self.rng.randrange(len(data))
        buf = bytearray(data)
        buf[idx] ^= 0xFF
        self.corruptions += 1
        return dataclasses.replace(message, data=bytes(buf))

    def _record_traffic(self, src: str, dst: str, size: int) -> None:
        key = (src, dst)
        self.traffic_bytes[key] = self.traffic_bytes.get(key, 0) + size

    def total_traffic(self) -> int:
        """Total bytes offered to the network since construction."""
        return sum(self.traffic_bytes.values())

    # -- listening -----------------------------------------------------------
    def listen(self, host: str, port: int) -> Listener:
        """Open a listener on ``host:port``."""
        self.register_host(host)
        key = (host, port)
        if key in self._listeners:
            raise ValueError(f"{host}:{port} already has a listener")
        listener = Listener(self.sim, self, Endpoint(host, port))
        self._listeners[key] = listener
        return listener

    def _unlisten(self, endpoint: Endpoint) -> None:
        self._listeners.pop(endpoint.key(), None)

    # -- connecting -----------------------------------------------------------
    def connect(self, src_host: str, dst_host: str, dst_port: int, timeout: float = 5.0):
        """Generator: open a connection from *src_host* to ``dst_host:dst_port``.

        Raises :class:`HostUnreachable`, :class:`ConnectionRefused`, or
        :class:`ConnectionTimedOut` exactly as a real stack would:

        - unknown host -> unreachable (invalid address, §5);
        - known host, nothing listening -> refused (service offline, §5);
        - partition or down host -> the SYN vanishes; timeout.
        """
        self.register_host(src_host)
        if dst_host not in self._hosts:
            raise HostUnreachable(f"no such host {dst_host!r}")
        rtt = 2 * self.latency(src_host, dst_host)
        if self.is_partitioned(src_host, dst_host) or dst_host in self._down_hosts:
            yield Timeout(self.sim, timeout)
            raise ConnectionTimedOut(
                f"connect {src_host}->{dst_host}:{dst_port} timed out"
            )
        yield Timeout(self.sim, rtt)
        listener = self._listeners.get((dst_host, dst_port))
        if listener is None or listener.closed:
            raise ConnectionRefused(f"{dst_host}:{dst_port} refused connection")
        local = Endpoint(src_host, -1)
        remote = Endpoint(dst_host, dst_port)
        a = Connection(self.sim, self, local, remote)
        b = Connection(self.sim, self, remote, local)
        a.peer, b.peer = b, a
        listener._offer(b)
        return a
