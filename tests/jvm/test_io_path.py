"""Integration tests of the Figure-2 I/O path:

    program --(Chirp/loopback)--> starter proxy --(RPC)--> shadow --> home FS

Exercises the naive vs. scoped library behaviour for each failure mode
the paper names: home FS offline, credential expiry, bad secret, and the
in-contract errors FileNotFound / AccessDenied / DiskFull.
"""

import pytest

from repro.chirp.auth import generate_secret
from repro.chirp.client import CondorIoLibrary
from repro.chirp.proxy import ChirpProxy
from repro.core.result import ResultStatus
from repro.core.scope import ErrorScope
from repro.jvm.machine import Jvm
from repro.jvm.program import JavaProgram, Step
from repro.jvm import throwables as jt
from repro.remoteio.rpc import Credential
from repro.remoteio.server import RemoteIoServer, SyncFsAdapter
from repro.sim.engine import Simulator
from repro.sim.filesystem import LocalFileSystem, NfsClient
from repro.sim.machine import Machine
from repro.sim.network import Network

MB = 2**20


class Rig:
    """A submit machine (shadow side) and an execute machine (starter side)."""

    def __init__(self, mode="scoped", credential_expires=float("inf"), nfs=None):
        self.sim = Simulator()
        self.net = Network(self.sim)
        # Submit side: home file system + remote I/O server.
        self.home_fs = LocalFileSystem("home", capacity=1 * MB, sim=self.sim)
        self.home_fs.mkdir("/home/user", parents=True)
        self.home_fs.write_file("/home/user/input.dat", b"input-bytes")
        backend = SyncFsAdapter(self.home_fs) if nfs is None else nfs
        self.server = RemoteIoServer(
            self.sim, self.net, "submit", 7000, backend
        )
        # Execute side: machine, proxy, library.
        self.machine = Machine(self.sim, "exec1")
        self.machine.scratch.mkdir("/scratch/job", parents=True)
        self.secret = generate_secret("rig")
        credential = Credential("user", expires_at=credential_expires)
        self.proxy = ChirpProxy(
            self.sim,
            self.net,
            "exec1",
            9000,
            self.secret,
            "submit",
            7000,
            credential=credential,
        )
        self.io = CondorIoLibrary(
            self.sim, self.net, "exec1", 9000, self.secret, mode=mode,
            request_timeout=8.0,
        )

    def run_program(self, program, heap=32 * MB):
        jvm = Jvm(self.sim, self.machine)
        from repro.condor.job import ProgramImage
        from repro.core.classify import DEFAULT_CLASSIFIER
        from repro.core.result import ResultFile

        sink = []
        image = ProgramImage("Main.class", program=program)
        proc = self.machine.processes.spawn(
            "java",
            jvm.run_wrapped(image, program, self.io, heap, DEFAULT_CLASSIFIER, sink.append),
        )
        # Drive the simulation only until the JVM process finishes: daemon
        # loops (hard-mount retries, accept loops) may generate events forever.
        while proc.status is None and self.sim.run_steps(1):
            pass
        return proc.status, (ResultFile.parse(sink[0]) if sink else None)

    def run_program_bare(self, program, heap=32 * MB):
        """The fully naive configuration: no wrapper, exit codes only."""
        from repro.condor.job import ProgramImage

        jvm = Jvm(self.sim, self.machine)
        image = ProgramImage("Main.class", program=program)
        proc = self.machine.processes.spawn(
            "java", jvm.run_bare(image, program, self.io, heap)
        )
        while proc.status is None and self.sim.run_steps(1):
            pass
        return proc.status


class TestHappyPath:
    def test_read_through_both_hops(self):
        rig = Rig()
        program = JavaProgram(steps=[Step.read("/home/user/input.dat"), Step.exit(0)])
        status, result = rig.run_program(program)
        assert result.status is ResultStatus.COMPLETED
        assert rig.proxy.requests_handled == 1
        assert rig.server.requests_served == 1

    def test_write_lands_on_home_fs(self):
        rig = Rig()
        program = JavaProgram(
            steps=[Step.write("/home/user/out.dat", b"result-bytes")]
        )
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.COMPLETED
        assert rig.home_fs.read_file("/home/user/out.dat") == b"result-bytes"

    def test_traffic_flows_over_network(self):
        rig = Rig()
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        rig.run_program(program)
        assert rig.net.traffic_bytes.get(("exec1", "submit"), 0) > 0
        assert rig.net.traffic_bytes.get(("submit", "exec1"), 0) > 0


class TestContractErrors:
    """Errors within the I/O contract reach the program in both modes."""

    @pytest.mark.parametrize("mode", ["naive", "scoped"])
    def test_missing_file_is_program_exception(self, mode):
        rig = Rig(mode=mode)
        program = JavaProgram(steps=[Step.read("/home/user/nope")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.EXCEPTION
        assert result.exception_name == "FileNotFoundException"

    @pytest.mark.parametrize("mode", ["naive", "scoped"])
    def test_access_denied(self, mode):
        rig = Rig(mode=mode)
        rig.home_fs._files["/home/user/input.dat"].readable = False
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.EXCEPTION
        assert result.exception_name == "AccessDeniedException"

    @pytest.mark.parametrize("mode", ["naive", "scoped"])
    def test_disk_full_on_write(self, mode):
        rig = Rig(mode=mode)
        program = JavaProgram(steps=[Step.write("/home/user/big", b"x" * (2 * MB))])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.EXCEPTION
        assert result.exception_name == "DiskFullException"

    def test_program_can_handle_contract_errors(self):
        rig = Rig()
        program = JavaProgram(
            steps=[Step.read("/home/user/nope"), Step.exit(3)],
            handles={"FileNotFoundException"},
        )
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.COMPLETED
        assert result.exit_code == 3


class TestMachineryErrors:
    """Out-of-contract failures: the modes diverge (the paper's crux)."""

    def test_naive_home_fs_offline_becomes_program_result(self):
        """§2.3: 'the job would exit indicating a ConnectionTimedOutException'
        -- and without the wrapper, the JVM collapses it to exit code 1,
        indistinguishable from a program failure."""
        rig = Rig(mode="naive")
        rig.home_fs.set_online(False)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        status = rig.run_program_bare(program)
        assert status.code == 1  # the Figure-4 collapse

    def test_wrapper_plus_naive_library_misclassifies_invented_types(self):
        """Even with the wrapper, the naive library's *invented* IOException
        subtypes (CredentialExpiredIOException) defeat classification: the
        heuristic calls an unknown ...Exception a program result.  This is
        why P4 matters even once the wrapper exists."""
        rig = Rig(mode="naive", credential_expires=0.0)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.EXCEPTION  # wrong!
        assert result.exception_name == "CredentialExpiredIOException"

    def test_scoped_home_fs_offline_is_local_resource(self):
        """§4: the fixed library escapes; the wrapper scopes it correctly."""
        rig = Rig(mode="scoped")
        rig.home_fs.set_online(False)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.ENVIRONMENT
        assert result.scope is ErrorScope.LOCAL_RESOURCE
        assert result.error_name == "RemoteIoUnavailableError"

    def test_naive_credential_expiry_exits_one(self):
        rig = Rig(mode="naive", credential_expires=0.0)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        status = rig.run_program_bare(program)
        assert status.code == 1

    def test_scoped_credential_expiry_is_local_resource(self):
        rig = Rig(mode="scoped", credential_expires=0.0)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.ENVIRONMENT
        assert result.scope is ErrorScope.LOCAL_RESOURCE
        assert result.error_name == "CredentialExpiredError"

    def test_scoped_partition_is_local_resource(self):
        rig = Rig(mode="scoped")
        rig.net.partition("exec1", "submit")
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.ENVIRONMENT
        assert result.scope is ErrorScope.LOCAL_RESOURCE

    def test_bad_secret_rejected(self):
        rig = Rig(mode="scoped")
        rig.io.secret = "wrong"
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.ENVIRONMENT

    def test_interface_crossings_recorded_for_auditor(self):
        rig = Rig(mode="naive")
        rig.home_fs.set_online(False)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        rig.run_program(program)
        assert rig.io.interface.generic_passes() == 1

    def test_scoped_interface_records_conversion(self):
        rig = Rig(mode="scoped")
        rig.home_fs.set_online(False)
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        rig.run_program(program)
        assert rig.io.interface.conversions() == 1


class TestNfsHomeDirectory:
    def test_hard_mounted_home_outage_times_out_at_proxy(self):
        """Hard-mounted home FS + outage: the shadow blocks, the proxy's
        RPC times out, the scoped library escapes (indeterminate scope)."""
        sim_rig = Rig(mode="scoped")
        # Rebuild with an NFS-backed home: server exports what home_fs holds.
        rig = Rig.__new__(Rig)
        rig.sim = Simulator()
        rig.net = Network(rig.sim)
        nfs_server_fs = LocalFileSystem("nfs-server", sim=rig.sim)
        nfs_server_fs.mkdir("/home/user", parents=True)
        nfs_server_fs.write_file("/home/user/input.dat", b"x")
        mount = NfsClient(rig.sim, nfs_server_fs, mode="hard", retry_interval=1.0)
        rig.home_fs = nfs_server_fs
        rig.server = RemoteIoServer(rig.sim, rig.net, "submit", 7000, mount)
        rig.machine = Machine(rig.sim, "exec1")
        rig.machine.scratch.mkdir("/scratch/job", parents=True)
        rig.secret = generate_secret("rig")
        rig.proxy = ChirpProxy(
            rig.sim, rig.net, "exec1", 9000, rig.secret, "submit", 7000,
            credential=Credential("user"),
        )
        rig.io = CondorIoLibrary(
            rig.sim, rig.net, "exec1", 9000, rig.secret, mode="scoped",
            request_timeout=30.0,
        )
        nfs_server_fs.set_online(False)  # outage, never healed
        program = JavaProgram(steps=[Step.read("/home/user/input.dat")])
        _, result = rig.run_program(program)
        assert result.status is ResultStatus.ENVIRONMENT
        assert result.scope is ErrorScope.LOCAL_RESOURCE
