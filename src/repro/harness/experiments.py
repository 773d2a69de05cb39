"""One named experiment per paper figure and evaluative claim.

See DESIGN.md §4 for the experiment index.  Every function is
deterministic given its seed, and returns a result object exposing
``table()`` -- the rows the matching benchmark prints and EXPERIMENTS.md
records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.config import CondorConfig
from repro.core.principles import PrincipleAuditor
from repro.core.result import ResultFile, ResultStatus
from repro.core.scope import ErrorScope
from repro.core.timescope import EscalationLadder, TimeScopeEscalator
from repro.faults import (
    CorruptProgramImage,
    CredentialExpiry,
    FaultInjector,
    HomeFilesystemOffline,
    MemoryPressure,
    MisconfiguredJvm,
    MissingInputFile,
)
from repro.harness.metrics import RunMetrics, collect_metrics
from repro.harness.report import Table
from repro.harness.workloads import WorkloadSpec, expected_result_for, make_workload
from repro.jvm.program import JavaProgram, Step
from repro.sim.rng import RngRegistry

__all__ = [
    "run_fig1_kernel",
    "run_fig2_java_universe",
    "run_fig3_scopes",
    "run_fig4_result_codes",
    "run_naive_vs_scoped",
    "run_black_hole",
    "run_nfs_mounts",
    "run_time_scope",
    "run_principles",
    "run_end_to_end",
    "run_checkpoint_ablation",
    "run_fair_share",
    "run_preemption",
    "run_retry_sweep",
    "run_churn",
    "run_flocking",
]

MB = 2**20


class _KeyedRows:
    """``row(key)`` for a result whose ``rows`` are keyed by one field."""

    ROW_KEY: str  # the row field that names a row; not a dataclass field

    def row(self, key):
        for r in self.rows:
            if getattr(r, self.ROW_KEY) == key:
                return r
        raise KeyError(key)


# ---------------------------------------------------------------------------
# FIG1 -- the Condor kernel
# ---------------------------------------------------------------------------

@dataclass
class Fig1Result:
    jobs: int
    machines: int
    ads_sent: int
    cycles: int
    matches: int
    claims_granted: int
    shadows_spawned: int
    completed: int
    makespan: float

    def table(self) -> Table:
        return Table(
            ["kernel stage", "count"],
            [
                ["machine ads sent (startd -> matchmaker)", self.ads_sent],
                ["negotiation cycles", self.cycles],
                ["matches notified (matchmaker -> schedd)", self.matches],
                ["claims granted (schedd <-> startd)", self.claims_granted],
                ["shadows spawned (schedd fork)", self.shadows_spawned],
                ["jobs completed", self.completed],
                ["makespan (s)", self.makespan],
            ],
            title=f"FIG1: Condor kernel, {self.jobs} jobs on {self.machines} machines",
        )


def run_fig1_kernel(seed: int = 0, n_jobs: int = 8, n_machines: int = 4) -> Fig1Result:
    """A healthy pool: verifies Figure 1's protocol wiring end to end."""
    pool = Pool(PoolConfig(n_machines=n_machines, seed=seed))
    rngs = RngRegistry(seed)
    jobs = make_workload(
        WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                     exit_code_fraction=0.0),
        rngs.stream("fig1"),
    )
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=100_000)
    return Fig1Result(
        jobs=n_jobs,
        machines=n_machines,
        ads_sent=sum(s.ads_sent for s in pool.startds.values()),
        cycles=pool.matchmaker.cycles_run,
        matches=pool.matchmaker.matches_made,
        claims_granted=sum(s.claims_granted for s in pool.startds.values()),
        shadows_spawned=pool.schedd.shadows_spawned,
        completed=sum(1 for j in jobs if j.state is JobState.COMPLETED),
        makespan=pool.sim.now,
    )


# ---------------------------------------------------------------------------
# FIG2 -- the Java Universe I/O path
# ---------------------------------------------------------------------------

@dataclass
class Fig2Result:
    completed: bool
    chirp_requests: int
    rpc_requests: int
    bytes_exec_to_submit: int
    bytes_submit_to_exec: int
    output_written: bool

    def table(self) -> Table:
        return Table(
            ["Java Universe hop", "value"],
            [
                ["job completed", self.completed],
                ["Chirp requests (program -> proxy)", self.chirp_requests],
                ["RPC requests (proxy -> shadow)", self.rpc_requests],
                ["bytes exec -> submit", self.bytes_exec_to_submit],
                ["bytes submit -> exec", self.bytes_submit_to_exec],
                ["output landed on home fs", self.output_written],
            ],
            title="FIG2: two-hop remote I/O through the starter proxy",
        )


def run_fig2_java_universe(seed: int = 0, n_reads: int = 4) -> Fig2Result:
    """One Java job doing remote I/O through proxy and shadow (Figure 2)."""
    registry: list = []
    pool = Pool(PoolConfig(
        n_machines=1, seed=seed,
        condor=CondorConfig(error_mode="scoped", interface_registry=registry),
    ))
    for i in range(n_reads):
        pool.home_fs.write_file(f"/home/user/in{i}.dat", b"x" * 512)
    steps = [Step.read(f"/home/user/in{i}.dat") for i in range(n_reads)]
    steps.append(Step.write("/home/user/result.dat", b"y" * 256))
    program = JavaProgram(steps=steps)
    job = Job("1.0", owner="thain", universe=Universe.JAVA,
              image=ProgramImage("io.class", program=program))
    pool.submit(job)
    pool.run_until_done(max_time=100_000)
    exec_host = job.attempts[0].site if job.attempts else "exec000"
    io_requests = n_reads + 1
    return Fig2Result(
        completed=job.state is JobState.COMPLETED,
        chirp_requests=io_requests,
        rpc_requests=io_requests,
        bytes_exec_to_submit=pool.net.traffic_bytes.get((exec_host, "submit"), 0),
        bytes_submit_to_exec=pool.net.traffic_bytes.get(("submit", exec_host), 0),
        output_written=pool.home_fs.exists("/home/user/result.dat"),
    )


# ---------------------------------------------------------------------------
# FIG3 -- error scopes and their handlers
# ---------------------------------------------------------------------------

@dataclass
class Fig3Row:
    fault: str
    expected_scope: ErrorScope
    observed_scope: ErrorScope | None
    handler: str
    disposition: str
    correct: bool


@dataclass
class Fig3Result:
    rows: list[Fig3Row]

    def table(self) -> Table:
        table = Table(
            ["fault", "expected scope", "observed scope", "handler", "disposition", "correct"],
            title="FIG3: each canonical fault lands at its scope's manager",
        )
        for row in self.rows:
            table.add_row([
                row.fault,
                str(row.expected_scope),
                str(row.observed_scope) if row.observed_scope else "program-result",
                row.handler,
                row.disposition,
                row.correct,
            ])
        return table

    @property
    def all_correct(self) -> bool:
        return all(row.correct for row in self.rows)


def _one_job_pool(seed: int, steps=None, n_machines: int = 3) -> tuple[Pool, Job]:
    pool = Pool(PoolConfig(n_machines=n_machines, seed=seed,
                           condor=CondorConfig(error_mode="scoped")))
    pool.home_fs.write_file("/home/user/in.dat", b"data")
    program = JavaProgram(steps=steps or [Step.compute(2.0)])
    job = Job("1.0", owner="thain", universe=Universe.JAVA,
              image=ProgramImage("probe.class", program=program))
    job.expected_result = expected_result_for(program, {"/home/user/in.dat"})
    return pool, job


def run_fig3_scopes(seed: int = 0) -> Fig3Result:
    """Inject each scope's canonical fault; verify delivery per Figure 3."""
    rows: list[Fig3Row] = []

    # PROGRAM scope: the program's own exception is a result for the user.
    pool, job = _one_job_pool(seed, steps=[Step.throw("NullPointerException")])
    pool.submit(job)
    pool.run_until_done(max_time=50_000)
    rows.append(Fig3Row(
        "NullPointerException (program bug)", ErrorScope.PROGRAM, None,
        "user", "delivered as program result",
        job.state is JobState.COMPLETED
        and job.final_result.status is ResultStatus.EXCEPTION,
    ))

    # VIRTUAL_MACHINE scope: memory pressure.
    pool, job = _one_job_pool(seed + 1, steps=[Step.allocate(64 * MB)])
    job.heap_request = 128 * MB
    FaultInjector(pool).schedule(MemoryPressure("exec000", 250 * MB))
    pool.submit(job)
    pool.run_until_done(max_time=50_000)
    failed = [a for a in job.attempts if a.error_scope is not None]
    rows.append(Fig3Row(
        "OutOfMemoryError (machine busy)", ErrorScope.VIRTUAL_MACHINE,
        failed[0].error_scope if failed else None,
        "starter", "retried at a new site",
        bool(failed) and failed[0].error_scope is ErrorScope.VIRTUAL_MACHINE
        and job.state is JobState.COMPLETED,
    ))

    # REMOTE_RESOURCE scope: misconfigured JVM.
    pool, job = _one_job_pool(seed + 2)
    FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
    pool.submit(job)
    pool.run_until_done(max_time=50_000)
    failed = [a for a in job.attempts if a.error_scope is not None]
    rows.append(Fig3Row(
        "Misconfigured JVM", ErrorScope.REMOTE_RESOURCE,
        failed[0].error_scope if failed else None,
        "shadow", "retried at a new site",
        bool(failed) and failed[0].error_scope is ErrorScope.REMOTE_RESOURCE
        and job.state is JobState.COMPLETED,
    ))

    # LOCAL_RESOURCE scope: home file system offline (transient).
    pool, job = _one_job_pool(
        seed + 3, steps=[Step.read("/home/user/in.dat"), Step.exit(0)]
    )
    FaultInjector(pool).schedule(HomeFilesystemOffline(), at=0.0, until=300.0)
    pool.submit(job)
    pool.run_until_done(max_time=50_000)
    failed = [a for a in job.attempts if a.error_scope is not None]
    rows.append(Fig3Row(
        "Home file system offline", ErrorScope.LOCAL_RESOURCE,
        failed[0].error_scope if failed else None,
        "schedd", "retried until it healed",
        bool(failed) and failed[0].error_scope is ErrorScope.LOCAL_RESOURCE
        and job.state is JobState.COMPLETED,
    ))

    # JOB scope: corrupt program image.
    pool, job = _one_job_pool(seed + 4)
    pool.submit(job)
    FaultInjector(pool).schedule(CorruptProgramImage(job.job_id))
    pool.run_until_done(max_time=50_000)
    failed = [a for a in job.attempts if a.error_scope is not None]
    rows.append(Fig3Row(
        "Corrupt program image", ErrorScope.JOB,
        failed[0].error_scope if failed else None,
        "schedd", "held as unexecutable (no retry)",
        bool(failed) and failed[0].error_scope is ErrorScope.JOB
        and job.state is JobState.HELD and len(job.attempts) == 1,
    ))
    return Fig3Result(rows)


# ---------------------------------------------------------------------------
# FIG4 -- JVM result codes
# ---------------------------------------------------------------------------

@dataclass
class Fig4Row:
    detail: str
    scope: str
    bare_code: int
    wrapper_report: str


@dataclass
class Fig4Result:
    rows: list[Fig4Row]

    def table(self) -> Table:
        table = Table(
            ["Execution Detail", "Error Scope", "JVM Result Code", "Wrapper Result File"],
            title="FIG4: JVM result codes (paper columns) + wrapper recovery",
        )
        table.add_records(self.rows)
        return table

    @property
    def bare_codes(self) -> list[int]:
        return [row.bare_code for row in self.rows]

    @property
    def distinct_wrapper_reports(self) -> int:
        return len({row.wrapper_report for row in self.rows})


def run_fig4_result_codes() -> Fig4Result:
    """Reproduce Figure 4 exactly: seven execution details, bare exit codes,
    and the wrapper's recovered scopes."""
    from repro.core.classify import DEFAULT_CLASSIFIER
    from repro.jvm.machine import Jvm
    from repro.sim.engine import Simulator
    from repro.sim.machine import JavaInstallation, Machine

    scenarios = [
        ("The program exited by completing main.", "Program",
         JavaProgram(steps=[Step.compute(1.0)]), {}, None),
        ("The program exited by calling System.exit(x)", "Program",
         JavaProgram(steps=[Step.exit(5)]), {}, None),
        ("Exception: The program de-referenced a null pointer.", "Program",
         JavaProgram(steps=[Step.throw("NullPointerException")]), {}, None),
        ("Exception: There was not enough memory for the program.", "Virtual Machine",
         JavaProgram(steps=[Step.allocate(64 * MB)]), {"heap": 16 * MB}, None),
        ("Exception: The Java installation is misconfigured.", "Remote Resource",
         JavaProgram(steps=[Step.compute(1.0)]), {},
         JavaInstallation(classpath_ok=False)),
        ("Exception: The home file system was offline.", "Local Resource",
         JavaProgram(steps=[Step.throw("ConnectionTimedOutException")]), {}, None),
        ("Exception: The program image was corrupt.", "Job",
         JavaProgram(steps=[Step.compute(1.0)]), {"corrupt": True}, None),
    ]
    rows: list[Fig4Row] = []
    for detail, scope_name, program, opts, installation in scenarios:
        bare_code = _bare_exit_code(program, opts, installation)
        wrapper_report = _wrapper_report(program, opts, installation)
        rows.append(Fig4Row(detail, scope_name, bare_code, wrapper_report))
    return Fig4Result(rows)


def _jvm_rig(installation):
    from repro.jvm.machine import Jvm
    from repro.sim.engine import Simulator
    from repro.sim.machine import Machine

    sim = Simulator()
    machine = Machine(sim, "exec", java=installation) if installation else Machine(sim, "exec")
    machine.scratch.mkdir("/scratch/job", parents=True)
    jvm = Jvm(sim, machine, installation=installation)
    return sim, machine, jvm


def _bare_exit_code(program, opts, installation) -> int:
    from repro.chirp.client import LocalIoLibrary

    sim, machine, jvm = _jvm_rig(installation)
    io = LocalIoLibrary(machine.scratch, "/scratch/job")
    image = ProgramImage("Main.class", program=program, corrupt=opts.get("corrupt", False))
    proc = machine.processes.spawn(
        "java", jvm.run_bare(image, program, io, opts.get("heap", 32 * MB))
    )
    sim.run()
    return proc.status.code


def _wrapper_report(program, opts, installation) -> str:
    from repro.chirp.client import LocalIoLibrary
    from repro.core.classify import DEFAULT_CLASSIFIER

    sim, machine, jvm = _jvm_rig(installation)
    io = LocalIoLibrary(machine.scratch, "/scratch/job")
    image = ProgramImage("Main.class", program=program, corrupt=opts.get("corrupt", False))
    sink: list[bytes] = []
    proc = machine.processes.spawn(
        "java",
        jvm.run_wrapped(image, program, io, opts.get("heap", 32 * MB),
                        DEFAULT_CLASSIFIER, sink.append),
    )
    sim.run()
    if not sink:
        # No result file: the starter scopes this as remote-resource.
        return "no result file -> environment(remote-resource)"
    return str(ResultFile.parse(sink[0]))


# ---------------------------------------------------------------------------
# EXP-NAIVE / EXP-SCOPED -- the headline comparison
# ---------------------------------------------------------------------------

@dataclass
class NaiveVsScopedResult:
    naive: RunMetrics
    scoped: RunMetrics
    naive_violations: dict[int, int]
    scoped_violations: dict[int, int]

    def table(self) -> Table:
        table = Table(
            ["metric", "naive (§2.3)", "scoped (§4)"],
            title="EXP-NAIVE vs EXP-SCOPED: the same workload and faults",
        )
        for (name, naive_value), (_, scoped_value) in zip(
            self.naive.as_rows(), self.scoped.as_rows()
        ):
            table.add_row([name, naive_value, scoped_value])
        for principle in (1, 2, 3, 4):
            table.add_row([
                f"P{principle} violations",
                self.naive_violations.get(principle, 0),
                self.scoped_violations.get(principle, 0),
            ])
        return table


def _fault_mix(pool: Pool, jobs: list[Job]) -> FaultInjector:
    """The §2.3 gauntlet: one bad JVM, one starved machine, a home-fs
    outage window, a credential-expiry window, one corrupt image and one
    missing input."""
    injector = FaultInjector(pool)
    injector.schedule(MisconfiguredJvm("exec000"))
    injector.schedule(MemoryPressure("exec001", pool.machines["exec001"].memory_total - 10 * MB))
    injector.schedule(HomeFilesystemOffline(), at=150.0, until=450.0)
    injector.schedule(CredentialExpiry(), at=600.0, until=900.0)
    if len(jobs) >= 2:
        injector.schedule(CorruptProgramImage(jobs[0]))
        injector.schedule(MissingInputFile(jobs[1]))
    return injector


def _run_mode(mode: str, seed: int, n_jobs: int, n_machines: int):
    started = time.perf_counter()
    registry: list = []
    condor = CondorConfig(error_mode=mode, interface_registry=registry)
    pool = Pool(PoolConfig(n_machines=n_machines, seed=seed, condor=condor))
    rngs = RngRegistry(seed)
    spec = WorkloadSpec(n_jobs=n_jobs, io_fraction=0.5, exception_fraction=0.15,
                        exit_code_fraction=0.1, mean_work=8.0)
    jobs = make_workload(spec, rngs.stream("workload"), home_fs=pool.home_fs)
    # Jobs that allocate exercise the memory-pressure machine.
    for i, job in enumerate(jobs):
        if i % 3 == 0:
            job.image.program.steps.insert(0, Step.allocate(16 * MB))
    # Stagger arrivals so the job stream overlaps the fault windows, like
    # a real pool's continuous load.
    arrivals = rngs.stream("arrivals")
    when = 0.0
    for job in jobs:
        pool.submit_at(job, when)
        when += arrivals.expovariate(1.0 / 40.0)
    injector = _fault_mix(pool, jobs)
    pool.run_until_done(max_time=200_000, expected_jobs=len(jobs))
    metrics = collect_metrics(
        pool, jobs, injector, wall_clock=time.perf_counter() - started
    )
    auditor = PrincipleAuditor()
    auditor.audit_outcomes(injector.audit_outcomes(jobs))
    auditor.audit_interfaces(registry)
    auditor.audit_trace(pool.trace)
    return metrics, auditor.summary()


def run_naive_vs_scoped(
    seed: int = 0, n_jobs: int = 24, n_machines: int = 6
) -> NaiveVsScopedResult:
    """The headline experiment: identical workload and fault schedule under
    the naive and the scoped configurations."""
    naive_metrics, naive_violations = _run_mode("naive", seed, n_jobs, n_machines)
    scoped_metrics, scoped_violations = _run_mode("scoped", seed, n_jobs, n_machines)
    return NaiveVsScopedResult(
        naive=naive_metrics,
        scoped=scoped_metrics,
        naive_violations=naive_violations,
        scoped_violations=scoped_violations,
    )


# ---------------------------------------------------------------------------
# EXP-BH -- black-hole machines (§5)
# ---------------------------------------------------------------------------

@dataclass
class BlackHoleRow:
    defense: str
    completed: int
    wasted_attempts: int
    network_bytes: int
    makespan: float
    mean_turnaround: float


@dataclass
class BlackHoleResult(_KeyedRows):
    ROW_KEY = "defense"

    rows: list[BlackHoleRow]

    def table(self) -> Table:
        table = Table(
            ["defense", "completed", "wasted executions", "network bytes",
             "makespan (s)", "mean turnaround (s)"],
            title="EXP-BH: black-hole machines vs the two §5 defenses",
        )
        table.add_records(self.rows)
        return table


def run_black_hole(
    seed: int = 0,
    n_jobs: int = 16,
    n_machines: int = 6,
    n_black_holes: int = 2,
    defenses: tuple[str, ...] = ("none", "self-test", "avoidance"),
) -> BlackHoleResult:
    """§5: 'a small number of misconfigured machines attracted a continuous
    stream of jobs that would attempt to execute, fail, and be returned.'"""
    rows = []
    for defense in defenses:
        condor = CondorConfig(
            error_mode="scoped",
            startd_self_test=(defense == "self-test"),
            schedd_avoidance=(defense == "avoidance"),
        )
        pool = Pool(PoolConfig(n_machines=n_machines, seed=seed, condor=condor))
        injector = FaultInjector(pool)
        for i in range(n_black_holes):
            injector.schedule(MisconfiguredJvm(f"exec{i:03d}"))
        rngs = RngRegistry(seed)
        jobs = make_workload(
            WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                         exit_code_fraction=0.0, mean_work=5.0),
            rngs.stream("bh"),
        )
        # Self-test needs the startds rebuilt with knowledge of the fault:
        # arm first, then re-run the probe.
        if defense == "self-test":
            for name, startd in pool.startds.items():
                startd.java_advertised = startd._self_test()
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=300_000)
        metrics = collect_metrics(pool, jobs, injector)
        rows.append(BlackHoleRow(
            defense=defense,
            completed=metrics.completed,
            wasted_attempts=metrics.wasted_attempts,
            network_bytes=metrics.network_bytes,
            makespan=metrics.makespan,
            mean_turnaround=metrics.mean_turnaround,
        ))
    return BlackHoleResult(rows)


# ---------------------------------------------------------------------------
# EXP-NFS -- hard vs soft mounts (§5)
# ---------------------------------------------------------------------------

@dataclass
class NfsRow:
    outage: float
    mode: str
    outcome: str
    elapsed: float
    retries: int
    timeouts: int


@dataclass
class NfsResult:
    rows: list[NfsRow]

    def table(self) -> Table:
        table = Table(
            ["outage (s)", "mount mode", "outcome", "elapsed (s)", "retries", "timeouts"],
            title="EXP-NFS: the hard/soft mount dilemma (§5)",
        )
        table.add_records(self.rows)
        return table


def run_nfs_mounts(
    outages: tuple[float, ...] = (5.0, 60.0, 600.0),
    soft_timeout: float = 30.0,
    deadline: float = 120.0,
) -> NfsResult:
    """A program reads through an NFS mount during an outage, under hard,
    soft, and per-operation-deadline (the paper's wished-for mechanism)."""
    from repro.sim.engine import Simulator
    from repro.sim.filesystem import FsError, LocalFileSystem, NfsClient

    rows: list[NfsRow] = []
    for outage in outages:
        for mode in ("hard", "soft", "per-op deadline"):
            sim = Simulator()
            server = LocalFileSystem("server", sim=sim)
            server.mkdir("/export")
            server.write_file("/export/data", b"payload")
            mount_mode = "soft" if mode == "soft" else "hard"
            mount = NfsClient(sim, server, mode=mount_mode,
                              soft_timeout=soft_timeout, retry_interval=1.0)
            server.set_online(False)
            sim.call_at(outage, lambda fs=server: fs.set_online(True))

            outcome: list[str] = []

            def job(sim=sim, mount=mount, mode=mode):
                try:
                    if mode == "per-op deadline":
                        yield from mount.read_file("/export/data", deadline=deadline)
                    else:
                        yield from mount.read_file("/export/data")
                    outcome.append("completed")
                except FsError as exc:
                    outcome.append(f"error {exc.code}")

            proc = sim.spawn(job())
            proc.defuse()
            sim.run(until=10 * max(outages) + 1000)
            rows.append(NfsRow(
                outage=outage,
                mode=mode,
                outcome=outcome[0] if outcome else "hung",
                elapsed=sim.now if not outcome else _first_done_time(mount, sim),
                retries=mount.stats.retries,
                timeouts=mount.stats.timeouts,
            ))
    return NfsResult(rows)


def _first_done_time(mount, sim) -> float:
    # blocked_time accumulates exactly the job's wait; rpc latency is small.
    return round(mount.stats.blocked_time, 3)


# ---------------------------------------------------------------------------
# EXP-SCOPE-TIME -- time-dependent scope (§5)
# ---------------------------------------------------------------------------

@dataclass
class TimeScopeRow:
    outage: float
    truth: str
    assigned: str
    correct: bool
    decided_after: float


@dataclass
class TimeScopeResult:
    rows: list[TimeScopeRow]
    threshold: float

    def table(self) -> Table:
        table = Table(
            ["outage (s)", "true scope", "assigned scope", "correct", "decided after (s)"],
            title=f"EXP-SCOPE-TIME: escalation threshold = {self.threshold}s",
        )
        table.add_records(self.rows)
        return table

    @property
    def accuracy(self) -> float:
        return sum(1 for r in self.rows if r.correct) / len(self.rows)


def run_time_scope(
    outages: tuple[float, ...] = (1.0, 5.0, 30.0, 120.0, 900.0, 10_000.0),
    threshold: float = 60.0,
    retry_interval: float = 5.0,
    observation_window: float = 1200.0,
) -> TimeScopeResult:
    """§5: 'time becomes a factor in error propagation.'  A client retries a
    failing service; the escalator assigns process scope to blips and
    remote-resource scope to persistent outages."""
    ladder = EscalationLadder((
        (0.0, ErrorScope.PROCESS),
        (threshold, ErrorScope.REMOTE_RESOURCE),
    ))
    rows: list[TimeScopeRow] = []
    for outage in outages:
        escalator = TimeScopeEscalator(ladder)
        truth = (
            ErrorScope.PROCESS if outage < threshold else ErrorScope.REMOTE_RESOURCE
        )
        assigned = ErrorScope.PROCESS
        decided_after = 0.0
        now = 0.0
        while now < min(outage, observation_window):
            assigned = escalator.record_failure("service", now)
            decided_after = now
            if assigned is not ErrorScope.PROCESS:
                break
            now += retry_interval
        rows.append(TimeScopeRow(
            outage=outage,
            truth=str(truth),
            assigned=str(assigned),
            correct=assigned is truth,
            decided_after=decided_after,
        ))
    return TimeScopeResult(rows, threshold)


# ---------------------------------------------------------------------------
# EXP-P1..P4 -- principle violations at scale
# ---------------------------------------------------------------------------

@dataclass
class PrinciplesResult:
    naive: dict[int, int]
    scoped: dict[int, int]
    n_jobs: int

    def table(self) -> Table:
        table = Table(
            ["principle", "naive violations", "scoped violations"],
            title=f"EXP-P1..P4: violations over {self.n_jobs} jobs",
        )
        for principle in (1, 2, 3, 4):
            table.add_row([
                f"P{principle}",
                self.naive.get(principle, 0),
                self.scoped.get(principle, 0),
            ])
        return table


def run_principles(seed: int = 0, n_jobs: int = 24, n_machines: int = 6) -> PrinciplesResult:
    """Audit both configurations for violations of all four principles."""
    _, naive = _run_mode("naive", seed, n_jobs, n_machines)
    _, scoped = _run_mode("scoped", seed, n_jobs, n_machines)
    return PrinciplesResult(naive=naive, scoped=scoped, n_jobs=n_jobs)


# ---------------------------------------------------------------------------
# EXP-RETRY -- schedd retry-budget sweep (policy ablation)
# ---------------------------------------------------------------------------

@dataclass
class RetryRow:
    max_retries: int
    completed: int
    held: int
    wasted_attempts: int
    mean_turnaround: float


@dataclass
class RetrySweepResult(_KeyedRows):
    ROW_KEY = "max_retries"

    rows: list[RetryRow]
    n_jobs: int

    def table(self) -> Table:
        table = Table(
            ["max retries", "completed", "held", "wasted attempts",
             "mean turnaround (s)"],
            title=f"EXP-RETRY: schedd retry budget vs outcome ({self.n_jobs} jobs)",
        )
        table.add_records(self.rows)
        return table


def run_retry_sweep(
    seed: int = 0,
    n_jobs: int = 12,
    n_machines: int = 4,
    n_broken: int = 2,
    budgets: tuple[int, ...] = (0, 1, 2, 4, 8),
) -> RetrySweepResult:
    """How many retries does the 'log and retry elsewhere' policy need?

    Half the pool is broken.  With budget 0, the first environmental
    error holds the job (the naive outcome, minus the lie); with a
    budget at least the broken-machine count, the matchmaker's rotation
    guarantees a good machine is found.  The sweep locates the knee.
    """
    rows: list[RetryRow] = []
    for budget in budgets:
        condor = CondorConfig(error_mode="scoped", max_retries=budget)
        pool = Pool(PoolConfig(n_machines=n_machines, seed=seed, condor=condor))
        injector = FaultInjector(pool)
        for i in range(n_broken):
            injector.schedule(MisconfiguredJvm(f"exec{i:03d}"))
        rngs = RngRegistry(seed)
        jobs = make_workload(
            WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                         exit_code_fraction=0.0, mean_work=5.0),
            rngs.stream("retry"),
        )
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=300_000)
        metrics = collect_metrics(pool, jobs, injector)
        rows.append(RetryRow(
            max_retries=budget,
            completed=metrics.completed,
            held=metrics.held,
            wasted_attempts=metrics.wasted_attempts,
            mean_turnaround=metrics.mean_turnaround,
        ))
    return RetrySweepResult(rows, n_jobs)


# ---------------------------------------------------------------------------
# EXP-FAIR -- matchmaker fair share (substrate ablation)
# ---------------------------------------------------------------------------

@dataclass
class FairShareRow:
    fair_share: bool
    flood_user_mean_turnaround: float
    small_user_mean_turnaround: float
    small_user_done_at: float


@dataclass
class FairShareResult(_KeyedRows):
    ROW_KEY = "fair_share"

    rows: list[FairShareRow]

    def table(self) -> Table:
        table = Table(
            ["fair share", "flood user mean turnaround (s)",
             "small user mean turnaround (s)", "small user done at (s)"],
            title="EXP-FAIR: matchmaker fair share, flood vs trickle",
        )
        table.add_records(self.rows)
        return table


def run_fair_share(
    seed: int = 0,
    flood_jobs: int = 8,
    small_jobs: int = 2,
    work: float = 20.0,
    small_arrives_at: float = 100.0,
) -> FairShareResult:
    """One machine, one flooding user, one late small user: does the small
    user wait behind the whole flood?  (Negotiator ablation.)"""
    rows: list[FairShareRow] = []
    for fair_share in (True, False):
        condor = CondorConfig(error_mode="scoped", fair_share=fair_share)
        pool = Pool(PoolConfig(n_machines=1, seed=seed, condor=condor))
        flood = []
        for i in range(flood_jobs):
            program = JavaProgram(steps=[Step.compute(work)])
            job = Job(f"1.{i}", owner="flooder", universe=Universe.JAVA,
                      image=ProgramImage(f"f{i}.class", program=program))
            flood.append(job)
            pool.submit(job)
        second = pool.add_schedd("submit2")
        small = []
        for i in range(small_jobs):
            program = JavaProgram(steps=[Step.compute(work)])
            job = Job(f"2.{i}", owner="trickler", universe=Universe.JAVA,
                      image=ProgramImage(f"s{i}.class", program=program))
            small.append(job)
            pool.sim.call_at(small_arrives_at, lambda j=job: second.submit(j))
        pool.run_until_done(max_time=500_000, expected_jobs=flood_jobs + small_jobs)

        def turnaround(jobs, submitted_at=0.0):
            return sum(
                j.attempts[-1].ended - max(j.submitted_at, submitted_at)
                for j in jobs
            ) / len(jobs)

        rows.append(FairShareRow(
            fair_share=fair_share,
            flood_user_mean_turnaround=turnaround(flood),
            small_user_mean_turnaround=turnaround(small),
            small_user_done_at=max(j.attempts[-1].ended for j in small),
        ))
    return FairShareResult(rows)


# ---------------------------------------------------------------------------
# EXP-PREEMPT -- rank preemption x checkpointing (substrate ablation)
# ---------------------------------------------------------------------------

@dataclass
class PreemptRow:
    configuration: str
    boss_turnaround: float
    peon_turnaround: float
    peon_steps_executed: int
    evictions: int


@dataclass
class PreemptResult(_KeyedRows):
    ROW_KEY = "configuration"

    rows: list[PreemptRow]

    def table(self) -> Table:
        table = Table(
            ["configuration", "boss turnaround (s)", "peon turnaround (s)",
             "peon steps executed", "evictions"],
            title="EXP-PREEMPT: rank preemption x checkpointing",
        )
        table.add_records(self.rows)
        return table


def run_preemption(
    seed: int = 0,
    peon_steps: int = 40,
    step_work: float = 10.0,
    boss_work: float = 30.0,
    boss_arrives_at: float = 120.0,
) -> PreemptResult:
    """One prized machine whose owner ranks the boss's jobs above all:
    does the boss wait, and what does preemption cost the peon?"""
    from repro.sim.machine import OwnerPolicy

    configurations = [
        ("no preemption", False, True),
        ("preemption + checkpointing", True, True),
        ("preemption, no checkpointing", True, False),
    ]
    rows: list[PreemptRow] = []
    for name, preemption, checkpointing in configurations:
        condor = CondorConfig(error_mode="scoped", preemption=preemption,
                              checkpointing=checkpointing)
        pool = Pool(PoolConfig(n_machines=0, seed=seed, condor=condor))
        pool.add_machine(
            "prized",
            policy=OwnerPolicy(rank_expr='ifThenElse(TARGET.owner == "boss", 10, 1)'),
            memory=1024 * MB,
        )
        peon = Job("1.0", owner="peon", universe=Universe.STANDARD,
                   image=ProgramImage("peon.bin", program=JavaProgram(
                       steps=[Step.compute(step_work) for _ in range(peon_steps)])))
        pool.submit(peon)
        boss = Job("2.0", owner="boss", universe=Universe.JAVA,
                   image=ProgramImage("boss.class", program=JavaProgram(
                       steps=[Step.compute(boss_work)])))
        pool.sim.call_at(boss_arrives_at, lambda: pool.submit(boss))
        pool.run_until_done(max_time=1_000_000, expected_jobs=2)
        rows.append(PreemptRow(
            configuration=name,
            boss_turnaround=boss.attempts[-1].ended - boss_arrives_at,
            peon_turnaround=peon.attempts[-1].ended,
            peon_steps_executed=peon.steps_executed,
            evictions=sum(1 for a in peon.attempts
                          if a.error_name.startswith("Evicted")),
        ))
    return PreemptResult(rows)


# ---------------------------------------------------------------------------
# EXP-E2E -- implicit errors and the layer above Condor (§5)
# ---------------------------------------------------------------------------

@dataclass
class EndToEndRow:
    configuration: str
    jobs: int
    corruptions_in_flight: int
    wrong_outputs_delivered: int
    implicit_errors_caught: int
    resubmits: int
    final_valid_outputs: int


@dataclass
class EndToEndResult(_KeyedRows):
    ROW_KEY = "configuration"

    rows: list[EndToEndRow]

    def table(self) -> Table:
        table = Table(
            ["configuration", "jobs", "corruptions in flight",
             "wrong outputs delivered", "implicit errors caught",
             "resubmits", "final valid outputs"],
            title="EXP-E2E: implicit errors vs the end-to-end layer (§5)",
        )
        table.add_records(self.rows)
        return table


def _e2e_workload(pool: Pool, n_jobs: int):
    """Transform jobs: read an input, write its reversal back home."""
    from repro.e2e import JobValidation, OutputExpectation
    from repro.jvm.program import transform_bytes

    jobs, validations = [], []
    for i in range(n_jobs):
        src = f"/home/user/e2e-in{i:03d}.dat"
        dst = f"/home/user/e2e-out{i:03d}.dat"
        payload = bytes((i + j) % 251 for j in range(256))
        pool.home_fs.write_file(src, payload)
        program = JavaProgram(steps=[Step.transform(src, dst)])
        job = Job(f"1.{i}", owner="thain", universe=Universe.JAVA,
                  image=ProgramImage(f"t{i}.class", program=program))
        job.expected_result = ResultFile.completed(0)
        jobs.append(job)
        validations.append(JobValidation(
            expectations=[OutputExpectation(dst, transform_bytes(payload))],
            expected_result=ResultFile.completed(0),
        ))
    return jobs, validations


def run_end_to_end(
    seed: int = 0,
    n_jobs: int = 12,
    n_machines: int = 4,
    corruption_probability: float = 0.25,
    max_resubmits: int = 4,
) -> EndToEndResult:
    """§5: implicit errors pass every layer below the application; only a
    process above Condor, checking outputs, can catch and retry them."""
    from repro.e2e import EndToEndManager
    from repro.faults.faults import SilentDataCorruption

    rows: list[EndToEndRow] = []
    for configuration in ("no end-to-end layer", "end-to-end layer"):
        pool = Pool(PoolConfig(n_machines=n_machines, seed=seed))
        injector = FaultInjector(pool)
        injector.schedule(SilentDataCorruption(corruption_probability))
        jobs, validations = _e2e_workload(pool, n_jobs)
        manager = EndToEndManager(pool, max_resubmits=max_resubmits)
        if configuration == "end-to-end layer":
            for job, validation in zip(jobs, validations):
                manager.submit(job, validation)
            manager.run()
        else:
            for job in jobs:
                pool.submit(job)
            pool.run_until_done(max_time=200_000)
        # Ground truth: check every lineage's final output ourselves.
        wrong = 0
        valid = 0
        for job, validation in zip(jobs, validations):
            problems = validation.validate(
                _final_submission(manager, job, configuration), pool.home_fs
            )
            if problems:
                wrong += 1
            else:
                valid += 1
        summary = manager.summary() if configuration == "end-to-end layer" else {
            "resubmits": 0, "implicit_errors_caught": 0,
        }
        rows.append(EndToEndRow(
            configuration=configuration,
            jobs=n_jobs,
            corruptions_in_flight=pool.net.corruptions,
            wrong_outputs_delivered=wrong,
            implicit_errors_caught=summary["implicit_errors_caught"],
            resubmits=summary["resubmits"],
            final_valid_outputs=valid,
        ))
    return EndToEndResult(rows)


def _final_submission(manager, job, configuration):
    if configuration != "end-to-end layer":
        return job
    for lineage in manager.lineages:
        if lineage.base is job:
            return lineage.accepted or lineage.submissions[-1]
    return job


# ---------------------------------------------------------------------------
# EXP-CHURN -- backoff avoidance vs a healing black hole, under churn (§5)
# ---------------------------------------------------------------------------

@dataclass
class ChurnRow:
    avoidance: str
    completed: int
    wasted_attempts: int
    makespan: float
    goodput_rate: float
    churn_leaves: int
    churn_joins: int
    attempts_on_healed_site: int

    @property
    def readmitted(self) -> bool:
        """Did the schedd use the site again after it was repaired?"""
        return self.attempts_on_healed_site > 0


@dataclass
class ChurnResult(_KeyedRows):
    ROW_KEY = "avoidance"

    rows: list[ChurnRow]
    heal_at: float

    def table(self) -> Table:
        table = Table(
            ["avoidance", "completed", "wasted executions", "makespan (s)",
             "goodput rate", "churn leaves/joins", "attempts on healed site",
             "re-admitted"],
            title=f"EXP-CHURN: avoidance modes vs a black hole healed at "
                  f"t={self.heal_at:g}, under machine churn",
        )
        for row in self.rows:
            table.add_row([
                row.avoidance, row.completed, row.wasted_attempts,
                round(row.makespan, 1), round(row.goodput_rate, 4),
                f"{row.churn_leaves}/{row.churn_joins}",
                row.attempts_on_healed_site, row.readmitted,
            ])
        return table


def run_churn(
    seed: int = 0,
    n_jobs: int = 24,
    n_machines: int = 4,
    heal_at: float = 200.0,
    mean_interval: float = 150.0,
    mean_downtime: float = 60.0,
) -> ChurnResult:
    """§5 under churn: exec000 is a black hole that gets *repaired* at
    ``heal_at``, while the other machines leave and rejoin the pool.

    The permanent blacklist (the original §5 defense) never forgives the
    repaired site, so it finishes the workload one machine short; backoff
    avoidance re-admits it on probation and recovers the capacity.  The
    `none` row shows the undefended cost: every probe of the (still
    broken) black hole is a wasted execution.
    """
    from repro.condor.grid import ChurnGenerator
    from repro.faults import BlackHole

    modes = (
        ("none", dict(schedd_avoidance=False)),
        ("permanent", dict(schedd_avoidance=True, avoidance_mode="permanent")),
        ("backoff", dict(schedd_avoidance=True, avoidance_mode="backoff")),
    )
    rows: list[ChurnRow] = []
    for name, knobs in modes:
        condor = CondorConfig(
            error_mode="scoped",
            avoidance_base=60.0,
            avoidance_cap=480.0,
            **knobs,
        )
        pool = Pool(PoolConfig(n_machines=n_machines, seed=seed, condor=condor))
        injector = FaultInjector(pool)
        injector.schedule(BlackHole("exec000"), at=0.0, until=heal_at)
        # Churn everything except the black hole: removing it would wipe
        # the avoidance record under test.
        churn = ChurnGenerator(
            pool,
            pool.rngs.stream("churn"),
            machines=tuple(
                m for m in sorted(pool.machines) if m != "exec000"
            ),
            mean_interval=mean_interval,
            mean_downtime=mean_downtime,
            graceful_fraction=0.5,
            min_alive=2,
        )
        rngs = RngRegistry(seed)
        jobs = make_workload(
            WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                         exit_code_fraction=0.0, mean_work=60.0),
            rngs.stream("churn-workload"),
        )
        arrivals = rngs.stream("churn-arrivals")
        when = 0.0
        for job in jobs:
            pool.submit_at(job, when)
            when += arrivals.expovariate(1.0 / 8.0)
        pool.run_until_done(max_time=500_000, expected_jobs=len(jobs))
        metrics = collect_metrics(pool, jobs, injector)
        healed_attempts = sum(
            1
            for job in jobs
            for attempt in job.attempts
            if attempt.site == "exec000" and attempt.started >= heal_at
        )
        rows.append(ChurnRow(
            avoidance=name,
            completed=metrics.completed,
            wasted_attempts=metrics.wasted_attempts,
            makespan=metrics.makespan,
            goodput_rate=(
                metrics.goodput_seconds / metrics.makespan
                if metrics.makespan else 0.0
            ),
            churn_leaves=churn.leaves,
            churn_joins=churn.joins,
            attempts_on_healed_site=healed_attempts,
        ))
    return ChurnResult(rows, heal_at=heal_at)


# ---------------------------------------------------------------------------
# EXP-FLOCK -- flocking across pools (the grid above the pool)
# ---------------------------------------------------------------------------

@dataclass
class FlockRow:
    configuration: str
    completed: int
    jobs_flocked: int
    remote_completions: int
    flock_links_down: int
    makespan: float
    mean_turnaround: float


@dataclass
class FlockResult(_KeyedRows):
    ROW_KEY = "configuration"

    rows: list[FlockRow]

    def table(self) -> Table:
        table = Table(
            ["configuration", "completed", "jobs flocked", "remote completions",
             "flock links down", "makespan (s)", "mean turnaround (s)"],
            title="EXP-FLOCK: overflow to a remote pool, and a flock link outage",
        )
        for row in self.rows:
            table.add_row([
                row.configuration, row.completed, row.jobs_flocked,
                row.remote_completions, row.flock_links_down,
                round(row.makespan, 1), round(row.mean_turnaround, 1),
            ])
        return table


def run_flocking(
    seed: int = 0,
    n_jobs: int = 16,
    home_machines: int = 2,
    remote_machines: int = 4,
    link_down_until: float = 200.0,
) -> FlockResult:
    """A saturated home pool next to an idle remote pool, three ways:
    no flocking (the home pool grinds alone), flocking (idle jobs
    overflow), and flocking through a link outage (the schedd's
    exponential backoff rides it out, then overflow resumes)."""
    from repro.condor.grid import Grid, GridConfig, GridPoolSpec
    from repro.faults import FlockLinkDown

    configurations = (
        ("no flocking", False, False),
        ("flocking", True, False),
        ("flocking + link outage", True, True),
    )
    rows: list[FlockRow] = []
    for name, flocking, outage in configurations:
        condor = CondorConfig(error_mode="scoped", flock_after=30.0)
        grid = Grid(GridConfig(
            pools=(
                GridPoolSpec("a", n_machines=home_machines),
                GridPoolSpec("b", n_machines=remote_machines),
            ),
            seed=seed,
            condor=condor,
            flocking=flocking,
        ))
        injector = FaultInjector(grid)
        if outage:
            injector.schedule(FlockLinkDown(), at=0.0, until=link_down_until)
        rngs = RngRegistry(seed)
        jobs = make_workload(
            WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                         exit_code_fraction=0.0, mean_work=60.0),
            rngs.stream("flock"),
        )
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=500_000, expected_jobs=len(jobs))
        metrics = collect_metrics(grid, jobs, injector)
        remote = sum(
            1 for job in jobs
            if job.state is JobState.COMPLETED
            and job.attempts
            and job.attempts[-1].site.startswith("b-")
        )
        links_down = sum(link.times_down for link in grid.schedd.flock_links)
        rows.append(FlockRow(
            configuration=name,
            completed=metrics.completed,
            jobs_flocked=grid.schedd.jobs_flocked,
            remote_completions=remote,
            flock_links_down=links_down,
            makespan=metrics.makespan,
            mean_turnaround=metrics.mean_turnaround,
        ))
    return FlockResult(rows)


# ---------------------------------------------------------------------------
# EXP-CKPT -- checkpointing ablation (§2.1's Standard Universe)
# ---------------------------------------------------------------------------

@dataclass
class CheckpointRow:
    checkpointing: bool
    completed: int
    total_steps_needed: int
    steps_executed: int
    reexecuted_steps: int
    makespan: float


@dataclass
class CheckpointResult(_KeyedRows):
    ROW_KEY = "checkpointing"

    rows: list[CheckpointRow]

    def table(self) -> Table:
        table = Table(
            ["checkpointing", "completed", "steps needed", "steps executed",
             "re-executed (waste)", "makespan (s)"],
            title="EXP-CKPT: Standard Universe checkpointing under evictions",
        )
        table.add_records(self.rows)
        return table


def run_checkpoint_ablation(
    seed: int = 0,
    n_jobs: int = 6,
    n_machines: int = 3,
    n_steps: int = 30,
    step_work: float = 5.0,
    eviction_times: tuple[float, ...] = (80.0, 300.0),
    eviction_duration: float = 60.0,
) -> CheckpointResult:
    """Ablate §2.1's transparent checkpointing: the same eviction storm
    with and without it, measuring re-executed work."""
    from repro.faults import OwnerActivity

    rows: list[CheckpointRow] = []
    for checkpointing in (True, False):
        condor = CondorConfig(error_mode="scoped", checkpointing=checkpointing)
        pool = Pool(PoolConfig(n_machines=n_machines, seed=seed, condor=condor))
        injector = FaultInjector(pool)
        for at in eviction_times:
            for m in range(n_machines):
                injector.schedule(
                    OwnerActivity(f"exec{m:03d}"), at=at, until=at + eviction_duration
                )
        jobs = []
        for i in range(n_jobs):
            program = JavaProgram(steps=[Step.compute(step_work) for _ in range(n_steps)])
            job = Job(f"1.{i}", owner="thain", universe=Universe.STANDARD,
                      image=ProgramImage(f"s{i}.bin", program=program))
            jobs.append(job)
            pool.submit(job)
        pool.run_until_done(max_time=500_000)
        executed = sum(j.steps_executed for j in jobs)
        needed = n_jobs * n_steps
        rows.append(CheckpointRow(
            checkpointing=checkpointing,
            completed=sum(1 for j in jobs if j.state is JobState.COMPLETED),
            total_steps_needed=needed,
            steps_executed=executed,
            reexecuted_steps=max(0, executed - needed),
            makespan=pool.sim.now,
        ))
    return CheckpointResult(rows)
