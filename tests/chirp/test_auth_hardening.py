"""Constant-time secret comparison and the proxy's AUTH_FAILED path."""

from repro.chirp.auth import generate_secret, secrets_equal
from repro.chirp.protocol import ChirpCode, ChirpReply, ChirpRequest
from repro.chirp.proxy import ChirpProxy
from repro.remoteio.rpc import Credential, RpcRequest
from repro.remoteio.server import RemoteIoServer, SyncFsAdapter
from repro.sim.engine import Simulator
from repro.sim.filesystem import LocalFileSystem
from repro.sim.network import Network


class TestSecretsEqual:
    def test_equal_secrets(self):
        assert secrets_equal("s3cret", "s3cret")

    def test_unequal_same_length(self):
        assert not secrets_equal("s3cret", "s3creT")

    def test_unequal_lengths(self):
        assert not secrets_equal("s3", "s3cret")
        assert not secrets_equal("s3cret-and-more", "s3cret")

    def test_empty_vs_real(self):
        # A job whose scratch lost the secret file presents "" -- it must
        # never compare equal to a real secret.
        assert not secrets_equal("", generate_secret("claim"))
        assert secrets_equal("", "")


def make_proxy(secret="s3cret"):
    sim = Simulator()
    net = Network(sim)
    fs = LocalFileSystem("home", capacity=10_000, sim=sim)
    fs.mkdir("/home", parents=True)
    RemoteIoServer(sim, net, "submit", 7000, SyncFsAdapter(fs))
    return ChirpProxy(
        sim, net, "exec", 9000, secret, "submit", 7000,
        credential=Credential("u"),
    )


class TestProxyAuthCheck:
    def _prepare(self, presented, expected="s3cret"):
        proxy = make_proxy(secret=expected)
        return proxy._prepare(
            ChirpRequest(op="read", path="/home/f.dat", secret=presented)
        )

    def test_wrong_secret_is_auth_failed(self):
        prepared = self._prepare("guess")
        assert isinstance(prepared, ChirpReply)
        assert prepared.code is ChirpCode.AUTH_FAILED

    def test_missing_secret_is_auth_failed(self):
        # A job whose scratch lost the secret file presents ""; the proxy
        # refuses it the same way.
        prepared = self._prepare("")
        assert isinstance(prepared, ChirpReply)
        assert prepared.code is ChirpCode.AUTH_FAILED

    def test_right_secret_translates_to_rpc(self):
        prepared = self._prepare("s3cret")
        assert isinstance(prepared, RpcRequest)
        assert prepared.op == "read_file"
