"""Unit tests for the Chirp protocol, auth, proxy, and client library."""

import pytest

from repro.chirp.auth import SECRET_FILENAME, generate_secret, place_secret
from repro.chirp.client import CondorIoLibrary
from repro.chirp.protocol import ChirpCode, ChirpReply, ChirpRequest
from repro.chirp.proxy import ChirpProxy
from repro.remoteio.rpc import Credential
from repro.remoteio.server import RemoteIoServer, SyncFsAdapter
from repro.sim.engine import Simulator
from repro.sim.filesystem import LocalFileSystem
from repro.sim.network import Network


class TestProtocol:
    def test_request_reply_shapes(self):
        request = ChirpRequest(op="read", path="/x", secret="s")
        assert request.data == b""
        reply = ChirpReply(ChirpCode.OK, data=b"abc")
        assert reply.code is ChirpCode.OK


class TestAuth:
    def test_secret_deterministic(self):
        assert generate_secret("claim-1") == generate_secret("claim-1")
        assert generate_secret("claim-1") != generate_secret("claim-2")
        assert len(generate_secret("x")) == 32

    def test_place_and_read(self):
        fs = LocalFileSystem()
        fs.mkdir("/scratch/j", parents=True)
        secret = generate_secret("c")
        path = place_secret(fs, "/scratch/j", secret)
        assert path.endswith(SECRET_FILENAME)
        assert fs.read_file(path).decode() == secret

class ProxyRig:
    """Proxy + server + raw client connection, no JVM in the way."""

    def __init__(self, secret="s3cret", credential=None):
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.fs = LocalFileSystem("home", capacity=10_000, sim=self.sim)
        self.fs.mkdir("/home", parents=True)
        self.fs.write_file("/home/f.dat", b"content")
        self.server = RemoteIoServer(
            self.sim, self.net, "submit", 7000, SyncFsAdapter(self.fs)
        )
        self.proxy = ChirpProxy(
            self.sim, self.net, "exec", 9000, secret, "submit", 7000,
            credential=credential or Credential("u"),
        )

    def request(self, request: ChirpRequest):
        result = []

        def client(sim):
            conn = yield from self.net.connect("exec", "exec", 9000)
            conn.send(request)
            reply = yield from conn.recv(timeout=30.0)
            result.append(reply)
            conn.close()

        proc = self.sim.spawn(client(self.sim))
        while not result and self.sim.run_steps(1):
            pass
        return result[0]


class TestProxy:
    def test_read_forwarded(self):
        rig = ProxyRig()
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.OK
        assert reply.data == b"content"
        assert rig.proxy.requests_handled == 1
        assert rig.server.requests_served == 1

    def test_write_forwarded(self):
        rig = ProxyRig()
        reply = rig.request(ChirpRequest("write", "/home/new", b"data", secret="s3cret"))
        assert reply.code is ChirpCode.OK
        assert rig.fs.read_file("/home/new") == b"data"

    def test_bad_secret_rejected_without_forwarding(self):
        rig = ProxyRig()
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="wrong"))
        assert reply.code is ChirpCode.AUTH_FAILED
        assert rig.server.requests_served == 0

    def test_unknown_op_invalid(self):
        rig = ProxyRig()
        reply = rig.request(ChirpRequest("unlink", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.INVALID_REQUEST

    def test_non_chirp_message_invalid(self):
        rig = ProxyRig()
        reply = rig.request("not a chirp request")  # type: ignore[arg-type]
        assert reply.code is ChirpCode.INVALID_REQUEST

    def test_enoent_maps_to_not_found(self):
        rig = ProxyRig()
        reply = rig.request(ChirpRequest("read", "/home/missing", secret="s3cret"))
        assert reply.code is ChirpCode.NOT_FOUND

    def test_enospc_maps_to_no_space(self):
        rig = ProxyRig()
        reply = rig.request(
            ChirpRequest("write", "/home/big", b"x" * 20_000, secret="s3cret")
        )
        assert reply.code is ChirpCode.NO_SPACE

    def test_offline_home_maps_to_server_down(self):
        rig = ProxyRig()
        rig.fs.set_online(False)
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.SERVER_DOWN

    def test_expired_credential_maps_through(self):
        rig = ProxyRig(credential=Credential("u", expires_at=0.0))
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.CREDENTIAL_EXPIRED

    def test_partition_to_shadow_times_out(self):
        rig = ProxyRig()
        rig.net.partition("exec", "submit")
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.TIMED_OUT

    def test_server_shutdown_maps_to_server_down(self):
        rig = ProxyRig()
        rig.server.close()
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.SERVER_DOWN

    def test_proxy_reconnects_after_break(self):
        rig = ProxyRig()
        assert rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret")).code is ChirpCode.OK
        # Break the proxy-shadow channel behind the proxy's back.
        rig.proxy._rpc.connection.break_()
        rig.sim.run(until=rig.sim.now + 1.0)
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code in (ChirpCode.OK, ChirpCode.SERVER_DOWN)
        # And the next one definitely works (fresh connection).
        reply = rig.request(ChirpRequest("read", "/home/f.dat", secret="s3cret"))
        assert reply.code is ChirpCode.OK


class TestClientLibraryModes:
    def test_bad_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CondorIoLibrary(sim, Network(sim), "h", 1, "s", mode="wat")

    def test_naive_interface_is_generic(self):
        sim = Simulator()
        lib = CondorIoLibrary(sim, Network(sim), "h", 1, "s", mode="naive")
        assert all(op.generic for op in lib.interface.operations())

    def test_scoped_interface_is_finite(self):
        sim = Simulator()
        lib = CondorIoLibrary(sim, Network(sim), "h", 1, "s", mode="scoped")
        ops = {op.name: op for op in lib.interface.operations()}
        assert not any(op.generic for op in ops.values())
        assert ops["read"].errors == {"FileNotFound", "AccessDenied"}
        assert ops["write"].errors == {"DiskFull", "AccessDenied"}
