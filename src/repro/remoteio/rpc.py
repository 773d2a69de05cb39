"""RPC messages, credentials, and the client call helper.

The RPC layer is where §3.3's canonical example lives: "a failure in
remote procedure call has process scope -- it indicates that the
mechanism of function call is no longer valid within the process."
:meth:`RpcClient.call` therefore distinguishes *results* (including
explicit file-system error codes, which belong to the caller) from
*transport failures* (timeout, broken connection), which it surfaces as
the simulated network's exceptions for the proxy to rescope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condor.protocols import WireSize
from repro.sim.network import Connection

__all__ = ["Credential", "RpcClient", "RpcReply", "RpcRequest"]


@dataclass(frozen=True)
class Credential:
    """A GSI/Kerberos-style credential with an expiry time."""

    owner: str
    expires_at: float = float("inf")

    def valid_at(self, now: float) -> bool:
        return now < self.expires_at


@dataclass(frozen=True)
class RpcRequest:
    """One UNIX-like file operation."""

    op: str  # "read_file" | "write_file"
    path: str
    data: bytes = b""
    credential: Credential | None = None


@dataclass(frozen=True)
class RpcReply:
    """Result or explicit error for one request."""

    ok: bool
    data: bytes = b""
    error: str = ""  # errno-style code, or CREDENTIAL_EXPIRED / BAD_CREDENTIAL


class RpcClient:
    """Caller side: one request/reply exchange over an open connection."""

    def __init__(self, connection: Connection, timeout: float = 10.0):
        self.connection = connection
        self.timeout = timeout

    def call(self, request: RpcRequest):
        """Generator: send *request*, wait for the reply.

        Returns the :class:`RpcReply`.  Transport failures
        (:class:`~repro.sim.network.ConnectionTimedOut`,
        :class:`~repro.sim.network.BrokenConnection`) propagate to the
        caller, which must rescope them (they are process-scope events,
        not file results).
        """
        size = WireSize.CONTROL + len(request.data)
        self.connection.send(request, size=size)
        reply = yield from self.connection.recv(timeout=self.timeout)
        return reply
