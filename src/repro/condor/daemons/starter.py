"""The starter: the execution-side manager of one job.

    "The startd creates a starter, which is responsible for the execution
    environment, such as creating a scratch directory, loading the
    executable, and moving input and output files." (§2.1)

In the error-scope map (Figure 3) the starter manages *remote resource*
scope: problems with the machine it stands on (bad Java installation,
full scratch disk) are its to report; problems inside the JVM come to it
through the result file; problems with the submit side come to it as
explicit file-transfer errors or broken connections, which it forwards
without consuming.
"""

from __future__ import annotations

from repro.chirp.auth import generate_secret, place_secret
from repro.chirp.client import CondorIoLibrary, LocalIoLibrary
from repro.chirp.proxy import ChirpProxy
from repro.condor.daemons.config import CONTROL_TIMEOUT, CondorConfig
from repro.condor.protocols import (
    CheckpointNotice,
    FileData,
    FileRequest,
    JobDetails,
    JobResult,
    Keepalive,
    WireSize,
)
from repro.core.classify import DEFAULT_CLASSIFIER
from repro.core.result import ResultFile
from repro.core.scope import ErrorScope
from repro.jvm.machine import Jvm, JvmExecError
from repro.jvm.program import JavaProgram
from repro.sim.engine import Simulator
from repro.sim.filesystem import FsError
from repro.sim.machine import Machine
from repro.sim.network import Network, NetworkError

__all__ = ["Starter"]

#: deadline of one request the job's I/O library sends to its proxy
IO_REQUEST_TIMEOUT = 20.0


class Starter:
    """One starter per claim; lives for one job execution."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        machine: Machine,
        claim_id: str,
        port: int,
        config: CondorConfig,
        on_exit=None,
    ):
        self.sim = sim
        self.net = net
        self.machine = machine
        self.claim_id = claim_id
        self.port = port
        self.config = config
        self.on_exit = on_exit or (lambda: None)
        self.scratch_dir = f"/scratch/{claim_id}"
        self.proxy: ChirpProxy | None = None
        self._job_proc = None
        self._evicted = False
        self.listener = net.listen(machine.name, port)
        self._proc = machine.processes.spawn(f"starter:{claim_id}", self._run())
        self._finished = False

    def evict(self) -> None:
        """Owner policy reclaims the machine: kill the job, report the
        eviction as a remote-resource condition (the site, not the job,
        became unusable)."""
        self._evicted = True
        if self._job_proc is not None and self._job_proc.is_alive:
            from repro.sim.process import Signal

            self._job_proc.kill(Signal.SIGTERM)

    # -- lifecycle ------------------------------------------------------------
    def _run(self):
        try:
            yield from self._serve_one_job()
        finally:
            self._cleanup()

    def _cleanup(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.listener.close()
        if self.proxy is not None:
            self.proxy.close()
        self.on_exit()

    def _serve_one_job(self):
        # Wait for the shadow to activate the claim.
        try:
            conn = yield from self._accept_with_timeout()
        except NetworkError:
            return
        if conn is None:
            return
        try:
            details = yield from conn.recv(timeout=CONTROL_TIMEOUT)
        except NetworkError:
            conn.close()
            return
        if not isinstance(details, JobDetails):
            conn.close()
            return
        result = yield from self._execute(conn, details)
        try:
            conn.send(result, size=WireSize.CONTROL + len(result.result_file or b""))
        except NetworkError:
            pass
        conn.close()

    def _accept_with_timeout(self):
        accept = self.sim.spawn(self.listener.accept(), name="starter-accept")
        expiry = self.sim.timeout(CONTROL_TIMEOUT)
        outcome = yield self.sim.any_of([accept, expiry])
        if accept in outcome:
            return outcome[accept]
        accept.interrupt("timed out")
        return None

    # -- the execution environment ------------------------------------------
    def _execute(self, conn, details: JobDetails):
        """Generator: set up, fetch, run, report."""
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "starter_exec",
                machine=self.machine.name, job=details.job_id,
                universe=details.universe,
            )
        # 1. Scratch directory.
        try:
            self.machine.scratch.mkdir(self.scratch_dir, parents=True)
        except FsError as exc:
            return self._starter_failure("condor", "ScratchDiskFull", str(exc))
        # 2. Load the executable and input files from the shadow.
        fetch_error = yield from self._fetch_files(conn, details)
        if fetch_error is not None:
            return fetch_error
        # 3. Run, per universe, with keepalives flowing to the shadow so a
        # long job is never mistaken for a dead site.
        keepalive = self.sim.spawn(self._keepalive_loop(conn), name="starter-keepalive")
        keepalive.defuse()
        try:
            if details.universe == "java":
                result = yield from self._run_java(details)
            elif details.universe == "standard":
                result = yield from self._run_standard(conn, details)
            elif details.universe == "pvm":
                result = yield from self._run_pvm(details)
            else:
                result = yield from self._run_vanilla(details)
        finally:
            keepalive.interrupt("job finished")
        return result

    def _keepalive_loop(self, conn):
        interval = CONTROL_TIMEOUT / 4.0
        while not conn.broken:
            yield self.sim.timeout(interval)
            try:
                conn.send(Keepalive(claim_id=self.claim_id), size=WireSize.CONTROL)
            except NetworkError:
                return

    def _fetch_files(self, conn, details: JobDetails):
        """Generator: transfer image + inputs; returns a JobResult on error."""
        names = (details.image_name,) + tuple(details.input_files)
        for name in names:
            try:
                conn.send(FileRequest(name=name), size=WireSize.CONTROL)
                data = yield from conn.recv(timeout=CONTROL_TIMEOUT)
            except NetworkError as exc:
                # The shadow vanished mid-transfer; nobody is listening, so
                # just die -- the schedd will notice the shadow's fate.
                return self._starter_failure("condor", "ShadowDied", str(exc))
            if not isinstance(data, FileData):
                return self._starter_failure("condor", "ShadowDied", "bad transfer message")
            if data.error:
                if data.error in ("ENOENT", "EACCES"):
                    # "a corrupted program or a missing input file has job
                    # scope" (§4).
                    return self._starter_failure(
                        "condor", "MissingInputFile", f"{name}: {data.error}"
                    )
                return self._starter_failure(
                    "condor", "HomeFilesystemOffline", f"{name}: {data.error}"
                )
            try:
                self.machine.scratch.write_file(f"{self.scratch_dir}/{name}", data.data)
            except FsError as exc:
                if exc.code == "ENOSPC":
                    return self._starter_failure("condor", "ScratchDiskFull", str(exc))
                return self._starter_failure("condor", "ScratchDiskFull", str(exc))
        return None

    def _starter_failure(self, namespace: str, name: str, detail: str) -> JobResult:
        """A condition the starter itself discovered, scoped via the table."""
        classification = DEFAULT_CLASSIFIER.classify(namespace, name)
        bus = self.sim.telemetry
        if bus is not None and bus.active:
            bus.emit(
                self.sim.now, "daemon", "starter_error",
                machine=self.machine.name, error=name,
                scope=classification.scope.name,
            )
        return JobResult(
            claim_id=self.claim_id,
            starter_error=f"{name}: {detail}",
            starter_error_scope=classification.scope.name,
        )

    # -- universes ------------------------------------------------------------
    def _run_java(self, details: JobDetails):
        program: JavaProgram = details.program
        jvm = Jvm(self.sim, self.machine)
        # exec the java binary
        try:
            jvm.check_exec()
        except JvmExecError as exc:
            return self._starter_failure("condor", "JvmBinaryMissing", str(exc))
        # Chirp proxy + shared secret (Figure 2).
        secret = generate_secret(self.claim_id)
        try:
            place_secret(self.machine.scratch, self.scratch_dir, secret)
        except FsError as exc:
            return self._starter_failure("condor", "ScratchDiskFull", str(exc))
        self.proxy = ChirpProxy(
            self.sim,
            self.net,
            self.machine.name,
            self.port + 10000,
            secret,
            details.shadow_io_host,
            details.shadow_io_port,
            credential=details.credential,
        )
        io = CondorIoLibrary(
            self.sim,
            self.net,
            self.machine.name,
            self.port + 10000,
            secret,
            mode=self.config.error_mode,
            request_timeout=IO_REQUEST_TIMEOUT,
        )
        self.io_interface = io.interface  # kept for the principle auditor
        if self.config.interface_registry is not None:
            self.config.interface_registry.append(io.interface)
        image = self._image_for(details)
        result_sink: list[bytes] = []
        if self.config.error_mode == "naive":
            body = jvm.run_bare(image, program, io, details.heap_request)
        else:
            body = jvm.run_wrapped(
                image, program, io, details.heap_request, DEFAULT_CLASSIFIER,
                result_sink.append,
            )
        proc = self.machine.processes.spawn(f"java:{self.claim_id}", body)
        self._job_proc = proc
        status = yield from proc.wait()
        io.close()
        if self._evicted:
            return self._starter_failure("condor", "Evicted", "owner reclaimed machine")
        if self.config.error_mode == "naive":
            # §2.3: "we relied entirely on the exit code of the JVM".
            return JobResult(
                claim_id=self.claim_id,
                exit_code=status.code,
                exit_signal=status.signal,
            )
        # §4: "The starter examines this result file and ignores the JVM
        # result entirely."
        if result_sink:
            return JobResult(claim_id=self.claim_id, result_file=result_sink[0])
        # JVM exited without the wrapper producing a result file: the VM
        # itself never came up -- the owner's installation is at fault.
        return self._starter_failure(
            "condor", "JvmMisconfigured", f"no result file; JVM said {status}"
        )

    def _image_for(self, details: JobDetails):
        from repro.condor.job import ProgramImage

        data = self.machine.scratch.read_file(f"{self.scratch_dir}/{details.image_name}")
        corrupt = not data.startswith(b"\xca\xfe\xba\xbe")
        return ProgramImage(details.image_name, content=data, program=details.program,
                            corrupt=corrupt)

    def _run_vanilla(self, details: JobDetails):
        """Vanilla universe: no wrapper, no remote I/O -- scratch only."""
        program: JavaProgram = details.program
        jvm = Jvm(self.sim, self.machine)  # stands in for any runtime
        io = LocalIoLibrary(self.machine.scratch, self.scratch_dir)
        image = self._image_for(details)
        proc = self.machine.processes.spawn(
            f"vanilla:{self.claim_id}",
            jvm.run_bare(image, program, io, details.heap_request),
        )
        self._job_proc = proc
        status = yield from proc.wait()
        if self._evicted:
            return self._starter_failure("condor", "Evicted", "owner reclaimed machine")
        return JobResult(
            claim_id=self.claim_id, exit_code=status.code, exit_signal=status.signal
        )

    def _run_pvm(self, details: JobDetails):
        """PVM universe: the starter creates the cluster, so the starter
        manages cluster scope (§3.3).  One node's failure obliges the
        whole cluster to fail: survivors are killed and a cluster-scope
        error is reported -- never a half-finished "result"."""
        cluster = details.program  # a PvmProgram
        jvm_pool = []
        node_procs = []
        for node_id, node_program in enumerate(cluster.nodes):
            jvm = Jvm(self.sim, self.machine)
            io = LocalIoLibrary(self.machine.scratch, self.scratch_dir)
            image = self._image_for(details)
            # Per-node heap: the cluster's request divided evenly.
            heap = max(1, details.heap_request // cluster.n_nodes)
            proc = self.machine.processes.spawn(
                f"pvm-node{node_id}:{self.claim_id}",
                jvm.run_bare(image, node_program, io, heap),
            )
            jvm_pool.append(jvm)
            node_procs.append(proc)
        # Wait for all nodes; fail fast on the first node death.
        statuses = []
        for proc in node_procs:
            status = yield from proc.wait()
            statuses.append(status)
            if not status.exited_normally or status.code != 0:
                break
        failed = any(
            (not s.exited_normally) or s.code != 0 for s in statuses
        )
        if failed or self._evicted:
            for proc in node_procs:
                if proc.is_alive:
                    proc.kill()
            # Let the kills land before reporting.
            yield self.sim.timeout(0.0)
            if self._evicted:
                return self._starter_failure("condor", "Evicted", "owner reclaimed machine")
            bad = next(i for i, s in enumerate(statuses)
                       if (not s.exited_normally) or s.code != 0)
            return self._starter_failure(
                "condor", "PvmNodeFailed",
                f"node {bad} of {cluster.n_nodes} died ({statuses[bad]}); "
                "cluster obliged to fail",
            )
        # The master's exit code is the cluster's result.
        return JobResult(claim_id=self.claim_id, exit_code=statuses[0].code)

    def _run_standard(self, conn, details: JobDetails):
        """Standard universe: re-linked binary with transparent
        checkpointing (§2.1).  Each committed step is reported to the
        shadow; an eviction loses only the work since the last notice."""
        program: JavaProgram = details.program
        jvm = Jvm(self.sim, self.machine)
        io = LocalIoLibrary(self.machine.scratch, self.scratch_dir)
        image = self._image_for(details)

        def on_step(steps_done: int) -> None:
            try:
                conn.send(
                    CheckpointNotice(claim_id=self.claim_id, steps_done=steps_done),
                    size=WireSize.CONTROL,
                )
            except NetworkError:
                pass  # the shadow is gone; the run is doomed anyway

        proc = self.machine.processes.spawn(
            f"standard:{self.claim_id}",
            jvm.run_bare(
                image, program, io, details.heap_request,
                start_at=details.resume_from, on_step=on_step,
            ),
        )
        self._job_proc = proc
        status = yield from proc.wait()
        if self._evicted:
            return self._starter_failure("condor", "Evicted", "owner reclaimed machine")
        return JobResult(
            claim_id=self.claim_id, exit_code=status.code, exit_signal=status.signal
        )
