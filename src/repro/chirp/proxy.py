"""The starter-side Chirp proxy.

    "The proxy allows the starter to transparently add additional I/O
    functionality to the job without placing any burden on the user."

The proxy accepts Chirp requests on the loopback interface, checks the
shared secret, and forwards each operation to the shadow over the remote
I/O RPC channel.  Its error translation embodies the theory:

- file-system error codes from the shadow pass through as the Chirp codes
  within the I/O contract (``NOT_FOUND``, ``NOT_AUTHORIZED``,
  ``NO_SPACE``);
- transport failures of the RPC channel itself -- which have *process*
  scope at this layer (§3.3) -- are re-presented as the machinery codes
  (``SERVER_DOWN``, ``TIMED_OUT``), gaining significance as they travel.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.chirp.auth import secrets_equal
from repro.chirp.protocol import ChirpCode, ChirpReply, ChirpRequest
from repro.condor.protocols import WireSize
from repro.remoteio.rpc import Credential, RpcClient, RpcRequest
from repro.sim.engine import Simulator
from repro.sim.network import (
    BrokenConnection,
    ConnectionRefused,
    ConnectionTimedOut,
    HostUnreachable,
    Network,
)

__all__ = ["ChirpProxy"]

#: Wall-time hook set by ``repro.obs.profile.install_wall``.
WALL_PROFILE = None

#: Simulated seconds the proxy waits to reach, or hear back from, the shadow.
RPC_TIMEOUT = 10.0

_FS_TO_CHIRP = {
    "ENOENT": ChirpCode.NOT_FOUND,
    "EACCES": ChirpCode.NOT_AUTHORIZED,
    "EISDIR": ChirpCode.NOT_FOUND,
    "ENOSPC": ChirpCode.NO_SPACE,
    "EIO": ChirpCode.SERVER_DOWN,  # home file system offline
    "ETIMEDOUT": ChirpCode.TIMED_OUT,  # soft-mounted home fs timed out
    "CREDENTIAL_EXPIRED": ChirpCode.CREDENTIAL_EXPIRED,
    "BAD_CREDENTIAL": ChirpCode.CREDENTIAL_EXPIRED,
}


class ChirpProxy:
    """One proxy instance per running job, hosted by the starter."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        host: str,
        port: int,
        secret: str,
        shadow_host: str,
        shadow_port: int,
        credential: Credential | None = None,
    ):
        self.sim = sim
        self.net = net
        self.host = host
        self.port = port
        self.secret = secret
        self.shadow_host = shadow_host
        self.shadow_port = shadow_port
        self.credential = credential
        self.requests_handled = 0
        self._rpc: RpcClient | None = None
        self.listener = net.listen(host, port)
        self._proc = sim.spawn(self._accept_loop(), name=f"chirp-proxy:{host}:{port}")
        self._proc.defuse()

    def close(self) -> None:
        self.listener.close()
        if self._rpc is not None and not self._rpc.connection.broken:
            self._rpc.connection.close()
        self._proc.interrupt("proxy shutdown")

    # -- serving the job-side library ------------------------------------
    def _accept_loop(self):
        while True:
            conn = yield from self.listener.accept()
            handler = self.sim.spawn(self._serve(conn), name="chirp-serve")
            handler.defuse()

    def _serve(self, conn):
        try:
            while True:
                request = yield from conn.recv()
                if not isinstance(request, ChirpRequest):
                    conn.send(ChirpReply(ChirpCode.INVALID_REQUEST), size=WireSize.CONTROL)
                    continue
                reply = yield from self._handle(request)
                conn.send(reply, size=WireSize.CONTROL + len(reply.data))
        except BrokenConnection:
            return

    def _handle(self, request: ChirpRequest):
        """Generator: authenticate, forward, translate."""
        self.requests_handled += 1
        reply = yield from self._forward(request)
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "io", "chirp_op",
                channel="chirp", op=request.op, path=request.path,
                code=reply.code.name, bytes=len(reply.data),
            )
        return reply

    def _forward(self, request: ChirpRequest):
        """Generator: the authenticate/forward/translate body.

        The synchronous ends (:meth:`_prepare`, :meth:`_translate`) are
        the channel's real Python cost and carry the wall-time counters;
        the middle is simulated waiting and must never be wall-timed.
        """
        prepared = self._prepare(request)
        if isinstance(prepared, ChirpReply):
            return prepared
        try:
            rpc = yield from self._shadow_rpc()
            reply = yield from rpc.call(prepared)
        except (ConnectionTimedOut,) :
            return ChirpReply(ChirpCode.TIMED_OUT)
        except (BrokenConnection, ConnectionRefused, HostUnreachable):
            self._rpc = None  # force a reconnect attempt next time
            return ChirpReply(ChirpCode.SERVER_DOWN)
        return self._translate(reply)

    def _prepare(self, request: ChirpRequest):
        """Authenticate and translate Chirp -> RPC (an early
        :class:`ChirpReply` rejects the request before any forwarding)."""
        wall = WALL_PROFILE
        t0 = perf_counter_ns() if wall is not None else 0
        try:
            if not secrets_equal(request.secret, self.secret):
                return ChirpReply(ChirpCode.AUTH_FAILED)
            if request.op not in ("read", "write"):
                return ChirpReply(ChirpCode.INVALID_REQUEST)
            op = {"read": "read_file", "write": "write_file"}[request.op]
            return RpcRequest(
                op=op, path=request.path, data=request.data, credential=self.credential
            )
        finally:
            if wall is not None:
                wall.add("chirp.prepare", perf_counter_ns() - t0)

    def _translate(self, reply) -> ChirpReply:
        """Translate the shadow's RPC reply into the job's Chirp code."""
        wall = WALL_PROFILE
        t0 = perf_counter_ns() if wall is not None else 0
        try:
            if reply.ok:
                return ChirpReply(ChirpCode.OK, data=reply.data)
            return ChirpReply(_FS_TO_CHIRP.get(reply.error, ChirpCode.SERVER_DOWN))
        finally:
            if wall is not None:
                wall.add("chirp.translate", perf_counter_ns() - t0)

    def _shadow_rpc(self):
        """Generator: the (re)connected RPC client to the shadow."""
        if self._rpc is None or self._rpc.connection.broken:
            conn = yield from self.net.connect(
                self.host, self.shadow_host, self.shadow_port, timeout=RPC_TIMEOUT
            )
            self._rpc = RpcClient(conn, timeout=RPC_TIMEOUT)
        return self._rpc
