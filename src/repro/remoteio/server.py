"""The shadow-side remote I/O file server.

Serves the submit machine's home file system to the starter's proxy:
whole-file reads and writes, each checked against the shadow's
credential.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.condor.protocols import WireSize
from repro.remoteio.rpc import RpcReply, RpcRequest
from repro.sim.engine import Simulator
from repro.sim.filesystem import FsError, LocalFileSystem
from repro.sim.network import BrokenConnection, Network

__all__ = ["RemoteIoServer", "SyncFsAdapter"]

#: Wall-time hook set by ``repro.obs.profile.install_wall``.  The
#: adapter's leaf file operations are the remote-I/O channel's
#: synchronous hot path; NFS-mounted operations wait in simulated time
#: and are deliberately not wall-timed.
WALL_PROFILE = None


def _timed_fs_op(fn, *args):
    wall = WALL_PROFILE
    if wall is None:
        return fn(*args)
    t0 = perf_counter_ns()
    try:
        return fn(*args)
    finally:
        wall.add("remoteio.fs_op", perf_counter_ns() - t0)


class SyncFsAdapter:
    """Adapts a :class:`LocalFileSystem` to the server's generator API."""

    def __init__(self, fs: LocalFileSystem):
        self.fs = fs

    def read_file(self, path: str):
        return _timed_fs_op(self.fs.read_file, path)
        yield  # pragma: no cover - makes this a generator function

    def write_file(self, path: str, data: bytes):
        return _timed_fs_op(self.fs.write_file, path, data)
        yield  # pragma: no cover



class RemoteIoServer:
    """The shadow's file server: accepts connections, serves RPCs."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        host: str,
        port: int,
        home_fs: SyncFsAdapter,
    ):
        self.sim = sim
        self.net = net
        self.host = host
        self.port = port
        self.home_fs = home_fs
        self.requests_served = 0
        self.listener = net.listen(host, port)
        self._proc = sim.spawn(self._accept_loop(), name=f"ioserver:{host}:{port}")
        self._proc.defuse()

    def close(self) -> None:
        self.listener.close()
        self._proc.interrupt("server shutdown")

    def _accept_loop(self):
        while True:
            conn = yield from self.listener.accept()
            handler = self.sim.spawn(self._serve(conn), name=f"ioserve:{self.host}")
            handler.defuse()

    def _serve(self, conn):
        try:
            while True:
                request = yield from conn.recv()
                if not isinstance(request, RpcRequest):
                    conn.send(RpcReply(ok=False, error="BAD_REQUEST"), size=WireSize.CONTROL)
                    continue
                reply = yield from self._dispatch(request)
                conn.send(reply, size=WireSize.CONTROL + len(reply.data))
        except BrokenConnection:
            return  # client went away; nothing to clean up

    def _dispatch(self, request: RpcRequest):
        """Generator: perform one operation against the home file system."""
        self.requests_served += 1
        reply = yield from self._perform(request)
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "io", "rpc_op",
                channel="rpc", op=request.op, path=request.path,
                ok=reply.ok, error=reply.error, bytes=len(reply.data),
            )
        return reply

    def _perform(self, request: RpcRequest):
        """Generator: the operation body (credential check + fs call)."""
        if request.credential is None:
            return RpcReply(ok=False, error="BAD_CREDENTIAL")
        if not request.credential.valid_at(self.sim.now):
            # GSI/Kerberos tickets expire: an error the naive library
            # smuggles to the program as an IOException (§4).
            return RpcReply(ok=False, error="CREDENTIAL_EXPIRED")
        try:
            if request.op == "read_file":
                data = yield from self.home_fs.read_file(request.path)
                return RpcReply(ok=True, data=data)
            if request.op == "write_file":
                yield from self.home_fs.write_file(request.path, request.data)
                return RpcReply(ok=True)
            return RpcReply(ok=False, error="BAD_OP")
        except FsError as exc:
            return RpcReply(ok=False, error=exc.code)
