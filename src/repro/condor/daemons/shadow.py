"""The shadow: the submission-side manager of one execution.

    "The schedd starts a shadow, which is responsible for providing the
    details of the job to be run, such as the executable, the input
    files, and the arguments." (§2.1)

In the error-scope map (Figure 3) the shadow manages *remote resource*
scope: if the execution site proves unusable (claim lost, starter
reports a bad JVM), the shadow's report tells the schedd "the job cannot
run on the given host" -- and nothing more.  Errors of wider scope (its
own home file system) it passes upward; errors of narrower scope arrive
packaged in the starter's result and flow through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condor.daemons.config import CLAIM_TIMEOUT, CONTROL_TIMEOUT, CondorConfig
from repro.condor.job import Job
from repro.condor.protocols import (
    CheckpointNotice,
    FileData,
    FileRequest,
    JobDetails,
    JobResult,
    Keepalive,
    WireSize,
)
from repro.core.result import ResultFile
from repro.core.scope import ErrorScope
from repro.remoteio.rpc import Credential
from repro.remoteio.server import RemoteIoServer
from repro.sim.engine import Simulator
from repro.sim.filesystem import FsError
from repro.sim.network import Network, NetworkError

__all__ = ["Shadow", "ShadowOutcome"]


@dataclass
class ShadowOutcome:
    """What the shadow tells the schedd when it exits."""

    kind: str  # "result" | "environment"
    result: ResultFile | None = None
    scope: ErrorScope | None = None
    error_name: str = ""
    detail: str = ""

    @classmethod
    def program_result(cls, result: ResultFile) -> "ShadowOutcome":
        return cls(kind="result", result=result)

    @classmethod
    def environment(cls, scope: ErrorScope, name: str, detail: str = "") -> "ShadowOutcome":
        return cls(kind="environment", scope=scope, error_name=name, detail=detail)


class Shadow:
    """One shadow per execution attempt."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        submit_host: str,
        home_fs,  # SyncFsAdapter over the submit machine's home file system
        job: Job,
        exec_host: str,
        starter_port: int,
        config: CondorConfig,
        credential: Credential | None = None,
        io_port: int = 20001,
    ):
        self.sim = sim
        self.net = net
        self.submit_host = submit_host
        self.home_fs = home_fs
        self.job = job
        self.exec_host = exec_host
        self.starter_port = starter_port
        self.config = config
        self.credential = credential or Credential(owner=job.owner)
        # The schedd allocates I/O server ports from a per-schedd
        # sequence: unique on the submit host, deterministic per run.
        self.io_port = io_port
        self.outcome: ShadowOutcome | None = None
        self.io_server: RemoteIoServer | None = None
        self._resume_from = job.checkpoint if config.checkpointing else 0
        self._steps_seen = self._resume_from

    def run(self):
        """Generator (the shadow process body); sets ``self.outcome``."""
        try:
            self.io_server = RemoteIoServer(
                self.sim, self.net, self.submit_host, self.io_port, self.home_fs
            )
            self.outcome = yield from self._oversee()
        finally:
            if self.io_server is not None:
                self.io_server.close()
            bus = self.sim.telemetry
            if bus is not None and bus.active:
                o = self.outcome
                bus.emit(
                    self.sim.now, "daemon", "shadow_exit",
                    job=self.job.job_id, site=self.exec_host,
                    kind=o.kind if o is not None else "died",
                    error=o.error_name if o is not None else "",
                )
        return self.outcome

    # -- the shadow protocol -------------------------------------------------
    def _oversee(self):
        try:
            conn = yield from self.net.connect(
                self.submit_host, self.exec_host, self.starter_port,
                timeout=CLAIM_TIMEOUT,
            )
        except NetworkError as exc:
            return ShadowOutcome.environment(
                ErrorScope.REMOTE_RESOURCE, "ClaimLost", f"cannot reach starter: {exc}"
            )
        conn.send(self._details(), size=WireSize.AD)
        try:
            result = yield from self._serve_until_result(conn)
        except NetworkError as exc:
            conn.close()
            return ShadowOutcome.environment(
                ErrorScope.REMOTE_RESOURCE, "ClaimLost", f"starter lost: {exc}"
            )
        conn.close()
        return self._interpret(result)

    def _details(self) -> JobDetails:
        return JobDetails(
            job_id=self.job.job_id,
            universe=self.job.universe.value,
            image_name=self.job.image.name,
            input_files=tuple(self.job.input_files),
            heap_request=self.job.heap_request,
            program=self.job.image.program,
            shadow_io_host=self.submit_host,
            shadow_io_port=self.io_port,
            credential=self.credential,
            resume_from=self._resume_from,
        )

    def _serve_until_result(self, conn):
        """Generator: answer file requests until the JobResult arrives."""
        while True:
            message = yield from conn.recv(timeout=CONTROL_TIMEOUT)
            if isinstance(message, JobResult):
                return message
            if isinstance(message, Keepalive):
                continue  # the site is alive; keep waiting
            if isinstance(message, CheckpointNotice):
                # Count executed work (re-executions included), then
                # commit the checkpoint so it survives this attempt.
                self.job.steps_executed += max(0, message.steps_done - self._steps_seen)
                self._steps_seen = max(self._steps_seen, message.steps_done)
                if self.config.checkpointing:
                    self.job.checkpoint = max(self.job.checkpoint, message.steps_done)
                continue
            if isinstance(message, FileRequest):
                reply = yield from self._read_for_transfer(message.name)
                conn.send(reply, size=WireSize.CONTROL + len(reply.data))

    def _read_for_transfer(self, name: str):
        """Generator: produce FileData for one requested file."""
        if name == self.job.image.name:
            return FileData(name=name, data=self.job.image.serialized())
        path = self.job.input_files.get(name)
        if path is None:
            return FileData(name=name, error="ENOENT")
        try:
            data = yield from self.home_fs.read_file(path)
        except FsError as exc:
            return FileData(name=name, error=exc.code)
        return FileData(name=name, data=data)

    # -- interpretation (the scope logic of §4) --------------------------------
    def _interpret(self, result: JobResult) -> ShadowOutcome:
        if result.starter_error:
            scope = ErrorScope[result.starter_error_scope]
            return ShadowOutcome.environment(scope, result.starter_error.split(":")[0],
                                             result.starter_error)
        if result.result_file is not None:
            try:
                parsed = ResultFile.parse(result.result_file)
            except ValueError as exc:
                # A corrupt result file must not become a silent wrong
                # answer (Principle 1): treat the site as suspect.
                return ShadowOutcome.environment(
                    ErrorScope.REMOTE_RESOURCE, "BadResultFile", str(exc)
                )
            if parsed.is_program_result:
                return ShadowOutcome.program_result(parsed)
            return ShadowOutcome.environment(parsed.scope, parsed.error_name, parsed.detail)
        # Raw exit status only (naive mode, or vanilla universe).
        if result.exit_signal is not None:
            return ShadowOutcome.program_result(
                ResultFile.completed(128 + result.exit_signal)
            )
        return ShadowOutcome.program_result(ResultFile.completed(result.exit_code))
