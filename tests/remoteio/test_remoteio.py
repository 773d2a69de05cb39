"""Unit tests for the shadow's remote I/O channel."""

import pytest

from repro.remoteio.rpc import Credential, RpcClient, RpcReply, RpcRequest
from repro.remoteio.server import RemoteIoServer, SyncFsAdapter
from repro.sim.engine import Simulator
from repro.sim.filesystem import LocalFileSystem, NfsClient
from repro.sim.network import ConnectionTimedOut, Network


class Rig:
    def __init__(self, nfs=None):
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.fs = LocalFileSystem("home", capacity=10_000, sim=self.sim)
        self.fs.mkdir("/home", parents=True)
        self.fs.write_file("/home/data", b"bytes")
        backend = nfs if nfs is not None else SyncFsAdapter(self.fs)
        self.server = RemoteIoServer(self.sim, self.net, "submit", 7000, backend)

    def call(self, request, timeout=10.0):
        box = []

        def client(sim):
            conn = yield from self.net.connect("client", "submit", 7000)
            rpc = RpcClient(conn, timeout=timeout)
            try:
                reply = yield from rpc.call(request)
                box.append(reply)
            except Exception as exc:  # noqa: BLE001 - tests inspect it
                box.append(exc)
            conn.close()

        self.sim.spawn(client(self.sim)).defuse()
        while not box and self.sim.run_steps(1):
            pass
        return box[0]


GOOD = Credential("user")


class TestCredentials:
    def test_valid_credential_accepted(self):
        reply = Rig().call(RpcRequest("read_file", "/home/data", credential=GOOD))
        assert reply.ok and reply.data == b"bytes"

    def test_missing_credential_rejected(self):
        reply = Rig().call(RpcRequest("read_file", "/home/data"))
        assert not reply.ok and reply.error == "BAD_CREDENTIAL"

    def test_expired_credential_rejected(self):
        expired = Credential("user", expires_at=0.0)
        reply = Rig().call(RpcRequest("read_file", "/home/data", credential=expired))
        assert not reply.ok and reply.error == "CREDENTIAL_EXPIRED"

    def test_credential_validity_window(self):
        cred = Credential("user", expires_at=100.0)
        assert cred.valid_at(99.9)
        assert not cred.valid_at(100.0)


class TestOperations:
    def test_write_then_read(self):
        rig = Rig()
        assert rig.call(RpcRequest("write_file", "/home/out", b"w", credential=GOOD)).ok
        assert rig.fs.read_file("/home/out") == b"w"

    def test_fs_errors_pass_through(self):
        rig = Rig()
        reply = rig.call(RpcRequest("read_file", "/home/none", credential=GOOD))
        assert not reply.ok and reply.error == "ENOENT"

    def test_unknown_op_rejected(self):
        reply = Rig().call(RpcRequest("chmod", "/home/data", credential=GOOD))
        assert not reply.ok and reply.error == "BAD_OP"

    def test_garbage_request_rejected(self):
        rig = Rig()
        box = []

        def client(sim):
            conn = yield from rig.net.connect("client", "submit", 7000)
            conn.send("garbage")
            reply = yield from conn.recv(timeout=10.0)
            box.append(reply)
            conn.close()

        rig.sim.spawn(client(rig.sim)).defuse()
        while not box and rig.sim.run_steps(1):
            pass
        assert not box[0].ok and box[0].error == "BAD_REQUEST"

    def test_multiple_requests_one_connection(self):
        rig = Rig()
        box = []

        def client(sim):
            conn = yield from rig.net.connect("client", "submit", 7000)
            rpc = RpcClient(conn)
            for _ in range(3):
                reply = yield from rpc.call(
                    RpcRequest("read_file", "/home/data", credential=GOOD)
                )
                box.append(reply.ok)
            conn.close()

        rig.sim.spawn(client(rig.sim)).defuse()
        rig.sim.run(until=10.0)
        assert box == [True, True, True]
        assert rig.server.requests_served == 3


class TestNfsBackedServer:
    def test_soft_mount_timeout_surfaces_as_explicit_error(self):
        sim_holder = Rig()  # throwaway to reuse structure
        sim = Simulator()
        net = Network(sim)
        nfs_server = LocalFileSystem("nfs", sim=sim)
        nfs_server.mkdir("/home", parents=True)
        nfs_server.write_file("/home/data", b"x")
        mount = NfsClient(sim, nfs_server, mode="soft", soft_timeout=2.0,
                          retry_interval=0.5)
        server = RemoteIoServer(sim, net, "submit", 7000, mount)
        nfs_server.set_online(False)
        box = []

        def client(s):
            conn = yield from net.connect("client", "submit", 7000)
            rpc = RpcClient(conn, timeout=30.0)
            reply = yield from rpc.call(
                RpcRequest("read_file", "/home/data", credential=GOOD)
            )
            box.append(reply)

        sim.spawn(client(sim)).defuse()
        while not box and sim.run_steps(1):
            pass
        assert not box[0].ok and box[0].error == "ETIMEDOUT"

    def test_hard_mount_outage_starves_the_rpc(self):
        sim = Simulator()
        net = Network(sim)
        nfs_server = LocalFileSystem("nfs", sim=sim)
        nfs_server.mkdir("/home", parents=True)
        nfs_server.write_file("/home/data", b"x")
        mount = NfsClient(sim, nfs_server, mode="hard", retry_interval=0.5)
        RemoteIoServer(sim, net, "submit", 7000, mount)
        nfs_server.set_online(False)
        box = []

        def client(s):
            conn = yield from net.connect("client", "submit", 7000)
            rpc = RpcClient(conn, timeout=5.0)
            try:
                yield from rpc.call(RpcRequest("read_file", "/home/data", credential=GOOD))
            except ConnectionTimedOut:
                box.append("rpc timeout")

        sim.spawn(client(sim)).defuse()
        while not box and sim.run_steps(1):
            pass
        # The hang propagated upward as a *transport* timeout -- the
        # indeterminate-scope situation of §5.
        assert box == ["rpc timeout"]
