"""One named experiment per paper figure and evaluative claim.

See DESIGN.md §4 for the experiment index.  An experiment is a
*declaration*: ``@experiment(name, anchor)`` registers its runner under
the CLI name; its result is a dataclass whose ``col`` fields are the
table's columns (one ``table()`` for row results, one for key/value
results); its scenario is the shared assembly (:func:`_scoped_run`,
:func:`~repro.harness.workloads.submit_gauntlet`) plus its own knobs.
Every runner is deterministic given its seed.  The CLI and the service
both name a run with one :class:`ExperimentSpec` and run it through
:func:`run_experiment_record`.
"""

from __future__ import annotations

import time
import typing
from collections.abc import Callable
from dataclasses import dataclass, fields

from repro.boundary import INT, Spec, UnknownExperiment
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
from repro.harness.parallel import ParallelRunner
from repro.harness.report import Table, col, key_values
from repro.harness.workloads import (
    WorkloadSpec,
    expected_result_for,
    make_workload,
    submit_gauntlet,
    submit_staggered,
)
from repro.jvm.program import JavaProgram, Step
from repro.obs.canonical import to_jsonable
from repro.sim.rng import RngRegistry

MB = 2**20


# ---------------------------------------------------------------------------
# The registry: name -> runner, for the CLI and the service
# ---------------------------------------------------------------------------

#: name -> runner.  A runner carries ``anchor`` (its DESIGN §4 id and paper
#: section) and ``takes_seed`` (decided once, when it registers).
EXPERIMENTS: dict[str, Callable] = {}


def experiment(name: str, anchor: str):
    """Register the decorated runner as the experiment *name*."""

    def register(fn):
        fn.anchor = anchor
        fn.takes_seed = "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]
        EXPERIMENTS[name] = fn
        return fn

    return register


def lookup(name) -> Callable:
    """The runner registered as *name*, or :class:`UnknownExperiment`."""
    try:
        return EXPERIMENTS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name from a JSON body
        raise UnknownExperiment(name, EXPERIMENTS) from None


def harness_payload(seed: int, experiments: dict[str, dict]) -> dict:
    """The ``--json`` envelope, also the results-store payload and the
    service's stored ``result`` artifact: one builder, one object."""
    return {"seed": seed, "experiments": experiments}


def run_experiment_record(name: str, seed: int = 0) -> dict:
    """Run one named experiment; return its rendered table and JSON data.

    The record is ``{"name", "rendered", "data"}`` with *data* the
    result dataclass converted to JSON types, wall-clock fields stripped
    (they reach the user only through the table footer).
    """
    fn = lookup(name)
    started = time.perf_counter()
    result = fn(seed=seed) if fn.takes_seed else fn()
    table = result.table()
    table.add_footer(f"wall clock {time.perf_counter() - started:.3f}s")
    return {"name": name, "rendered": table.render(), "data": to_jsonable(result)}


def run_experiment(name: str, seed: int = 0) -> str:
    """Run one named experiment and return its rendered table."""
    return run_experiment_record(name, seed=seed)["rendered"]


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """One experiment run; constructing one checks the name against the
    registry (:class:`UnknownExperiment`, a ``ConfigError`` on ``experiment``)."""

    experiment: str
    seed: int = 0

    #: The registry, not a type check, judges the name.
    READERS: typing.ClassVar = {"experiment": lambda name: name, "seed": INT}

    def __post_init__(self):
        lookup(self.experiment)

    def record(self) -> dict:
        return run_experiment_record(self.experiment, seed=self.seed)


def run_experiments(names: list[str], seed: int = 0, jobs: int = 1) -> list[dict]:
    """Run *names* (serially or over *jobs* workers); records in input order.

    An unknown name raises before any worker starts; a crashed or hung
    worker raises :class:`~repro.harness.parallel.WorkerFailure`.
    """
    specs = [ExperimentSpec(name, seed) for name in names]
    runner = ParallelRunner(ExperimentSpec.record, workers=jobs)
    return [outcome.value for outcome in runner.map(specs)]


# ---------------------------------------------------------------------------
# One result shape: columns are row-field metadata (``report.col``)
# ---------------------------------------------------------------------------

class _RowsResult:
    """A tabular result: ``rows: list[Row]``, one column per ``col`` field
    of ``Row``; ``TITLE`` is formatted with the result's own fields and
    ``KEY`` names the row field ``row(key)`` looks rows up by."""

    TITLE: str
    KEY: str

    def table(self) -> Table:
        (row_type,) = typing.get_args(typing.get_type_hints(type(self))["rows"])
        return Table.of_records(row_type, self.rows, title=self.TITLE.format(**vars(self)))

    def row(self, key):
        for r in self.rows:
            if getattr(r, self.KEY) == key:
                return r
        raise KeyError(key)


class _KeyValueResult:
    """A key/value result: one labelled line per ``col`` field, under
    ``HEADERS``; a result comparing configurations overrides ``lines``."""

    TITLE: str
    HEADERS: tuple[str, ...]

    def lines(self) -> list[list]:
        return key_values(self)

    def table(self) -> Table:
        return Table(list(self.HEADERS), self.lines(), title=self.TITLE.format(**vars(self)))


def _violation_lines(label: str, naive: dict[int, int], scoped: dict[int, int]) -> list[list]:
    return [[label.format(p), naive.get(p, 0), scoped.get(p, 0)] for p in (1, 2, 3, 4)]


def _metrics_row(row_type, metrics: RunMetrics, **own):
    """A row whose fields not given in *own* are the :class:`RunMetrics`
    fields of the same name."""
    picked = {f.name: getattr(metrics, f.name) for f in fields(row_type) if f.name not in own}
    return row_type(**own, **picked)


# ---------------------------------------------------------------------------
# One scenario assembly: a scoped pool, faults, jobs, run, measure
# ---------------------------------------------------------------------------

def _scoped_pool(seed: int, n_machines: int, grid: dict | None = None, **knobs):
    """A pool (or, with *grid*'s ``GridConfig`` fields, a federation) under
    scope-aware error handling with the given ``CondorConfig`` *knobs*."""
    condor = CondorConfig(error_mode="scoped", **knobs)
    if grid is None:
        return Pool(PoolConfig(n_machines=n_machines, seed=seed, condor=condor))
    from repro.condor.grid import Grid, GridConfig

    return Grid(GridConfig(seed=seed, condor=condor, **grid))


def _plain_jobs(seed: int, n_jobs: int, stream: str, mean_work: float = 10.0) -> list[Job]:
    """Compute-only jobs (no I/O, exceptions or exit codes) drawn from the
    RNG stream *stream* of *seed*."""
    spec = WorkloadSpec(n_jobs=n_jobs, mean_work=mean_work, io_fraction=0.0,
                        exception_fraction=0.0, exit_code_fraction=0.0)
    return make_workload(spec, RngRegistry(seed).stream(stream))


def _scoped_run(
    seed: int,
    jobs: list[Job],
    n_machines: int = 0,
    faults=(),
    arm: Callable | None = None,
    arrivals: tuple[str, float] | None = None,
    max_time: float = 500_000,
    grid: dict | None = None,
    **knobs,
):
    """Run *jobs* on a scoped pool under *faults*; return ``(pool,
    metrics, armed)``.

    The order things are scheduled in decides heap tie-breaks and so
    trace bytes; it is fixed here: each of *faults* (``(fault,)`` or
    ``(fault, at, until)``) in turn, then ``armed = arm(pool)`` (churn, a
    re-probe), then the jobs -- all at t=0, or staggered by the
    ``(stream, mean gap)`` in *arrivals*.
    """
    pool = _scoped_pool(seed, n_machines, grid, **knobs)
    injector = FaultInjector(pool)
    for fault in faults:
        injector.schedule(*fault)
    armed = arm(pool) if arm else None
    if arrivals:
        stream, mean_gap = arrivals
        submit_staggered(pool, jobs, RngRegistry(seed).stream(stream), mean_gap)
    else:
        for job in jobs:
            pool.submit(job)
    pool.run_until_done(max_time=max_time, expected_jobs=len(jobs))
    return pool, collect_metrics(pool, jobs, injector), armed


# ---------------------------------------------------------------------------
# FIG1 -- the Condor kernel
# ---------------------------------------------------------------------------

@dataclass
class Fig1Result(_KeyValueResult):
    TITLE = "FIG1: Condor kernel, {jobs} jobs on {machines} machines"
    HEADERS = ("kernel stage", "count")

    jobs: int
    machines: int
    ads_sent: int = col("machine ads sent (startd -> matchmaker)")
    cycles: int = col("negotiation cycles")
    matches: int = col("matches notified (matchmaker -> schedd)")
    claims_granted: int = col("claims granted (schedd <-> startd)")
    shadows_spawned: int = col("shadows spawned (schedd fork)")
    completed: int = col("jobs completed")
    makespan: float = col("makespan (s)")


@experiment("fig1", anchor="FIG1")
def run_fig1_kernel(seed: int = 0, n_jobs: int = 8, n_machines: int = 4) -> Fig1Result:
    """A healthy pool: verifies Figure 1's protocol wiring end to end."""
    pool, metrics, _ = _scoped_run(
        seed, _plain_jobs(seed, n_jobs, "fig1"), n_machines, max_time=100_000
    )
    return Fig1Result(
        jobs=n_jobs,
        machines=n_machines,
        ads_sent=sum(s.ads_sent for s in pool.startds.values()),
        cycles=pool.matchmaker.cycles_run,
        matches=pool.matchmaker.matches_made,
        claims_granted=sum(s.claims_granted for s in pool.startds.values()),
        shadows_spawned=pool.schedd.shadows_spawned,
        completed=metrics.completed,
        makespan=metrics.makespan,
    )


# ---------------------------------------------------------------------------
# FIG2 -- the Java Universe I/O path
# ---------------------------------------------------------------------------

@dataclass
class Fig2Result(_KeyValueResult):
    TITLE = "FIG2: two-hop remote I/O through the starter proxy"
    HEADERS = ("Java Universe hop", "value")

    completed: bool = col("job completed")
    chirp_requests: int = col("Chirp requests (program -> proxy)")
    rpc_requests: int = col("RPC requests (proxy -> shadow)")
    bytes_exec_to_submit: int = col("bytes exec -> submit")
    bytes_submit_to_exec: int = col("bytes submit -> exec")
    output_written: bool = col("output landed on home fs")


@experiment("fig2", anchor="FIG2")
def run_fig2_java_universe(seed: int = 0, n_reads: int = 4) -> Fig2Result:
    """One Java job doing remote I/O through proxy and shadow (Figure 2)."""
    pool = _scoped_pool(seed, 1, interface_registry=[])
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
    fault: str = col("fault")
    expected_scope: ErrorScope = col("expected scope")
    observed_scope: ErrorScope | None = col("observed scope", blank="program-result")
    handler: str = col("handler")
    disposition: str = col("disposition")
    correct: bool = col("correct")


@dataclass
class Fig3Result(_RowsResult):
    TITLE = "FIG3: each canonical fault lands at its scope's manager"

    rows: list[Fig3Row]

    @property
    def all_correct(self) -> bool:
        return all(row.correct for row in self.rows)


def _one_job_pool(seed: int, steps=None, n_machines: int = 3) -> tuple[Pool, Job]:
    pool = _scoped_pool(seed, n_machines)
    pool.home_fs.write_file("/home/user/in.dat", b"data")
    program = JavaProgram(steps=steps or [Step.compute(2.0)])
    job = Job("1.0", owner="thain", universe=Universe.JAVA,
              image=ProgramImage("probe.class", program=program))
    job.expected_result = expected_result_for(program, {"/home/user/in.dat"})
    return pool, job


@experiment("fig3", anchor="FIG3")
def run_fig3_scopes(seed: int = 0) -> Fig3Result:
    """Inject each scope's canonical fault; verify delivery per Figure 3."""
    completed, held = JobState.COMPLETED, JobState.HELD
    # fault, scope, handler, disposition, program steps, heap request,
    # injection (fault, at, until), terminal state
    cases = (
        # PROGRAM scope: the program's own exception is a result for the user.
        ("NullPointerException (program bug)", ErrorScope.PROGRAM, "user",
         "delivered as program result", [Step.throw("NullPointerException")], None,
         None, completed),
        ("OutOfMemoryError (machine busy)", ErrorScope.VIRTUAL_MACHINE, "starter",
         "retried at a new site", [Step.allocate(64 * MB)], 128 * MB,
         (MemoryPressure("exec000", 250 * MB),), completed),
        ("Misconfigured JVM", ErrorScope.REMOTE_RESOURCE, "shadow",
         "retried at a new site", None, None,
         (MisconfiguredJvm("exec000"),), completed),
        # Transient: the home file system comes back at t=300.
        ("Home file system offline", ErrorScope.LOCAL_RESOURCE, "schedd",
         "retried until it healed", [Step.read("/home/user/in.dat"), Step.exit(0)], None,
         (HomeFilesystemOffline(), 0.0, 300.0), completed),
        ("Corrupt program image", ErrorScope.JOB, "schedd",
         "held as unexecutable (no retry)", None, None,
         (CorruptProgramImage("1.0"),), held),
    )
    rows: list[Fig3Row] = []
    for i, (fault, scope, handler, disposition, steps, heap, injection, ends) in enumerate(cases):
        pool, job = _one_job_pool(seed + i, steps)
        if heap:
            job.heap_request = heap
        # A fault naming a job by id finds it in the schedd's queue when it
        # arms, so that one is scheduled after the submit, the others before.
        by_job_id = injection is not None and injection[0].job_id is not None
        if by_job_id:
            pool.submit(job)
        if injection:
            FaultInjector(pool).schedule(*injection)
        if not by_job_id:
            pool.submit(job)
        pool.run_until_done(max_time=50_000)
        if injection is None:
            observed = None
            correct = job.state is ends and job.final_result.status is ResultStatus.EXCEPTION
        else:
            failed = [a for a in job.attempts if a.error_scope is not None]
            observed = failed[0].error_scope if failed else None
            correct = (observed is scope and job.state is ends
                       and (ends is completed or len(job.attempts) == 1))
        rows.append(Fig3Row(fault, scope, observed, handler, disposition, correct))
    return Fig3Result(rows)


# ---------------------------------------------------------------------------
# FIG4 -- JVM result codes
# ---------------------------------------------------------------------------

@dataclass
class Fig4Row:
    detail: str = col("Execution Detail")
    scope: str = col("Error Scope")
    bare_code: int = col("JVM Result Code")
    wrapper_report: str = col("Wrapper Result File")


@dataclass
class Fig4Result(_RowsResult):
    TITLE = "FIG4: JVM result codes (paper columns) + wrapper recovery"

    rows: list[Fig4Row]

    @property
    def bare_codes(self) -> list[int]:
        return [row.bare_code for row in self.rows]

    @property
    def distinct_wrapper_reports(self) -> int:
        return len({row.wrapper_report for row in self.rows})


@experiment("fig4", anchor="FIG4")
def run_fig4_result_codes() -> Fig4Result:
    """Reproduce Figure 4 exactly: seven execution details, bare exit codes,
    and the wrapper's recovered scopes."""
    from repro.sim.machine import JavaInstallation

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
        bare_code, _ = _jvm_run(program, opts, installation, wrapped=False)
        _, result_file = _jvm_run(program, opts, installation, wrapped=True)
        # No result file: the starter scopes this as remote-resource.
        wrapper_report = (str(ResultFile.parse(result_file[0])) if result_file
                          else "no result file -> environment(remote-resource)")
        rows.append(Fig4Row(detail, scope_name, bare_code, wrapper_report))
    return Fig4Result(rows)


def _jvm_run(program, opts, installation, wrapped: bool) -> tuple[int, list[bytes]]:
    """Run *program* on a one-machine JVM rig, bare or under the wrapper;
    return the JVM's exit code and the result file(s) the wrapper wrote."""
    from repro.chirp.client import LocalIoLibrary
    from repro.core.classify import DEFAULT_CLASSIFIER
    from repro.jvm.machine import Jvm
    from repro.sim.engine import Simulator
    from repro.sim.machine import Machine

    sim = Simulator()
    machine = Machine(sim, "exec", java=installation) if installation else Machine(sim, "exec")
    machine.scratch.mkdir("/scratch/job", parents=True)
    jvm = Jvm(sim, machine, installation=installation)
    io = LocalIoLibrary(machine.scratch, "/scratch/job")
    image = ProgramImage("Main.class", program=program, corrupt=opts.get("corrupt", False))
    heap = opts.get("heap", 32 * MB)
    sink: list[bytes] = []
    if wrapped:
        body = jvm.run_wrapped(image, program, io, heap, DEFAULT_CLASSIFIER, sink.append)
    else:
        body = jvm.run_bare(image, program, io, heap)
    proc = machine.processes.spawn("java", body)
    sim.run()
    return proc.status.code, sink


# ---------------------------------------------------------------------------
# EXP-NAIVE / EXP-SCOPED -- the headline comparison
# ---------------------------------------------------------------------------

@dataclass
class NaiveVsScopedResult(_KeyValueResult):
    TITLE = "EXP-NAIVE vs EXP-SCOPED: the same workload and faults"
    HEADERS = ("metric", "naive (§2.3)", "scoped (§4)")

    naive: RunMetrics
    scoped: RunMetrics
    naive_violations: dict[int, int]
    scoped_violations: dict[int, int]

    def lines(self) -> list[list]:
        metrics = [
            [name, naive_value, scoped_value]
            for (name, naive_value), (_, scoped_value) in zip(
                self.naive.as_rows(), self.scoped.as_rows()
            )
        ]
        return metrics + _violation_lines(
            "P{} violations", self.naive_violations, self.scoped_violations
        )


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
    jobs = submit_gauntlet(pool, seed, n_jobs, stream="workload", exception_fraction=0.15)
    injector = _fault_mix(pool, jobs)
    pool.run_until_done(max_time=200_000, expected_jobs=len(jobs))
    metrics = collect_metrics(
        pool, jobs, injector, wall_clock=time.perf_counter() - started
    )
    auditor = PrincipleAuditor.of_run(injector.audit_outcomes(jobs), registry, pool.trace)
    return metrics, auditor.summary()


@experiment("naive_vs_scoped", anchor="EXP-NAIVE §2.3 / EXP-SCOPED §4")
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
    defense: str = col("defense")
    completed: int = col("completed")
    wasted_attempts: int = col("wasted executions")
    network_bytes: int = col("network bytes")
    makespan: float = col("makespan (s)")
    mean_turnaround: float = col("mean turnaround (s)")


@dataclass
class BlackHoleResult(_RowsResult):
    TITLE = "EXP-BH: black-hole machines vs the two §5 defenses"
    KEY = "defense"

    rows: list[BlackHoleRow]


def _reprobe(pool: Pool) -> None:
    """Self-test needs the startds rebuilt with knowledge of the fault:
    arm first, then re-run the probe."""
    for startd in pool.startds.values():
        startd.java_advertised = startd._self_test()


@experiment("black_hole", anchor="EXP-BH §5")
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
        _, metrics, _ = _scoped_run(
            seed, _plain_jobs(seed, n_jobs, "bh", mean_work=5.0), n_machines,
            faults=[(MisconfiguredJvm(f"exec{i:03d}"),) for i in range(n_black_holes)],
            arm=_reprobe if defense == "self-test" else None,
            max_time=300_000,
            startd_self_test=(defense == "self-test"),
            schedd_avoidance=(defense == "avoidance"),
        )
        rows.append(_metrics_row(BlackHoleRow, metrics, defense=defense))
    return BlackHoleResult(rows)


# ---------------------------------------------------------------------------
# EXP-NFS -- hard vs soft mounts (§5)
# ---------------------------------------------------------------------------

@dataclass
class NfsRow:
    outage: float = col("outage (s)")
    mode: str = col("mount mode")
    outcome: str = col("outcome")
    elapsed: float = col("elapsed (s)")
    retries: int = col("retries")
    timeouts: int = col("timeouts")


@dataclass
class NfsResult(_RowsResult):
    TITLE = "EXP-NFS: the hard/soft mount dilemma (§5)"

    rows: list[NfsRow]


@experiment("nfs_mounts", anchor="EXP-NFS §5")
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
            sim.call_at(outage, server.set_online, True)

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
                # blocked_time accumulates exactly the job's wait; rpc latency is small.
                elapsed=round(mount.stats.blocked_time, 3) if outcome else sim.now,
                retries=mount.stats.retries,
                timeouts=mount.stats.timeouts,
            ))
    return NfsResult(rows)


# ---------------------------------------------------------------------------
# EXP-SCOPE-TIME -- time-dependent scope (§5)
# ---------------------------------------------------------------------------

@dataclass
class TimeScopeRow:
    outage: float = col("outage (s)")
    truth: str = col("true scope")
    assigned: str = col("assigned scope")
    correct: bool = col("correct")
    decided_after: float = col("decided after (s)")


@dataclass
class TimeScopeResult(_RowsResult):
    TITLE = "EXP-SCOPE-TIME: escalation threshold = {threshold}s"

    rows: list[TimeScopeRow]
    threshold: float

    @property
    def accuracy(self) -> float:
        return sum(1 for r in self.rows if r.correct) / len(self.rows)


@experiment("time_scope", anchor="EXP-SCOPE-TIME §5")
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
class PrinciplesResult(_KeyValueResult):
    TITLE = "EXP-P1..P4: violations over {n_jobs} jobs"
    HEADERS = ("principle", "naive violations", "scoped violations")

    naive: dict[int, int]
    scoped: dict[int, int]
    n_jobs: int

    def lines(self) -> list[list]:
        return _violation_lines("P{}", self.naive, self.scoped)


@experiment("principles", anchor="EXP-P1..P4 §3")
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
    max_retries: int = col("max retries")
    completed: int = col("completed")
    held: int = col("held")
    wasted_attempts: int = col("wasted attempts")
    mean_turnaround: float = col("mean turnaround (s)")


@dataclass
class RetrySweepResult(_RowsResult):
    TITLE = "EXP-RETRY: schedd retry budget vs outcome ({n_jobs} jobs)"
    KEY = "max_retries"

    rows: list[RetryRow]
    n_jobs: int


@experiment("retry_sweep", anchor="EXP-RETRY")
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
        _, metrics, _ = _scoped_run(
            seed, _plain_jobs(seed, n_jobs, "retry", mean_work=5.0), n_machines,
            faults=[(MisconfiguredJvm(f"exec{i:03d}"),) for i in range(n_broken)],
            max_time=300_000,
            max_retries=budget,
        )
        rows.append(_metrics_row(RetryRow, metrics, max_retries=budget))
    return RetrySweepResult(rows, n_jobs)


# ---------------------------------------------------------------------------
# EXP-FAIR -- matchmaker fair share (substrate ablation)
# ---------------------------------------------------------------------------

@dataclass
class FairShareRow:
    fair_share: bool = col("fair share")
    flood_user_mean_turnaround: float = col("flood user mean turnaround (s)")
    small_user_mean_turnaround: float = col("small user mean turnaround (s)")
    small_user_done_at: float = col("small user done at (s)")


@dataclass
class FairShareResult(_RowsResult):
    TITLE = "EXP-FAIR: matchmaker fair share, flood vs trickle"
    KEY = "fair_share"

    rows: list[FairShareRow]


def _compute_job(job_id: str, owner: str, image: str, work: float, steps: int = 1,
                 universe: Universe = Universe.JAVA) -> Job:
    program = JavaProgram(steps=[Step.compute(work) for _ in range(steps)])
    return Job(job_id, owner=owner, universe=universe,
               image=ProgramImage(image, program=program))


@experiment("fair_share", anchor="EXP-FAIR")
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
        pool = _scoped_pool(seed, 1, fair_share=fair_share)
        flood = [_compute_job(f"1.{i}", "flooder", f"f{i}.class", work)
                 for i in range(flood_jobs)]
        for job in flood:
            pool.submit(job)
        second = pool.add_schedd("submit2")
        small = [_compute_job(f"2.{i}", "trickler", f"s{i}.class", work)
                 for i in range(small_jobs)]
        for job in small:
            pool.sim.call_at(small_arrives_at, second.submit, job)
        pool.run_until_done(max_time=500_000, expected_jobs=flood_jobs + small_jobs)

        def turnaround(jobs):
            return sum(
                j.attempts[-1].ended - max(j.submitted_at, 0.0) for j in jobs
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
    configuration: str = col("configuration")
    boss_turnaround: float = col("boss turnaround (s)")
    peon_turnaround: float = col("peon turnaround (s)")
    peon_steps_executed: int = col("peon steps executed")
    evictions: int = col("evictions")


@dataclass
class PreemptResult(_RowsResult):
    TITLE = "EXP-PREEMPT: rank preemption x checkpointing"
    KEY = "configuration"

    rows: list[PreemptRow]


@experiment("preemption", anchor="EXP-PREEMPT")
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
        pool = _scoped_pool(seed, 0, preemption=preemption, checkpointing=checkpointing)
        pool.add_machine(
            "prized",
            policy=OwnerPolicy(rank_expr='ifThenElse(TARGET.owner == "boss", 10, 1)'),
            memory=1024 * MB,
        )
        peon = _compute_job("1.0", "peon", "peon.bin", step_work, peon_steps,
                            Universe.STANDARD)
        pool.submit(peon)
        boss = _compute_job("2.0", "boss", "boss.class", boss_work)
        pool.sim.call_at(boss_arrives_at, pool.submit, boss)
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
    configuration: str = col("configuration")
    jobs: int = col("jobs")
    corruptions_in_flight: int = col("corruptions in flight")
    wrong_outputs_delivered: int = col("wrong outputs delivered")
    implicit_errors_caught: int = col("implicit errors caught")
    resubmits: int = col("resubmits")
    final_valid_outputs: int = col("final valid outputs")


@dataclass
class EndToEndResult(_RowsResult):
    TITLE = "EXP-E2E: implicit errors vs the end-to-end layer (§5)"
    KEY = "configuration"

    rows: list[EndToEndRow]


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


@experiment("end_to_end", anchor="EXP-E2E §5")
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
        wrong = sum(
            1 for job, validation in zip(jobs, validations)
            if validation.validate(_final_submission(manager, job), pool.home_fs)
        )
        summary = manager.summary()  # all zeros when the layer was not used
        rows.append(EndToEndRow(
            configuration=configuration,
            jobs=n_jobs,
            corruptions_in_flight=pool.net.corruptions,
            wrong_outputs_delivered=wrong,
            implicit_errors_caught=summary["implicit_errors_caught"],
            resubmits=summary["resubmits"],
            final_valid_outputs=n_jobs - wrong,
        ))
    return EndToEndResult(rows)


def _final_submission(manager, job):
    """What the user ends up holding for *job*: the layer's accepted (or
    last) resubmission, or the job itself when no layer managed it."""
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
class ChurnResult(_RowsResult):
    TITLE = ("EXP-CHURN: avoidance modes vs a black hole healed at "
             "t={heal_at:g}, under machine churn")
    KEY = "avoidance"

    rows: list[ChurnRow]
    heal_at: float

    def table(self) -> Table:
        # Not one column per field: leaves/joins share a cell and the last
        # column is a derived property, so this table is spelled out.
        table = Table(
            ["avoidance", "completed", "wasted executions", "makespan (s)",
             "goodput rate", "churn leaves/joins", "attempts on healed site",
             "re-admitted"],
            title=self.TITLE.format(**vars(self)),
        )
        for row in self.rows:
            table.add_row([
                row.avoidance, row.completed, row.wasted_attempts,
                round(row.makespan, 1), round(row.goodput_rate, 4),
                f"{row.churn_leaves}/{row.churn_joins}",
                row.attempts_on_healed_site, row.readmitted,
            ])
        return table


@experiment("churn", anchor="EXP-CHURN §5")
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

    def churn_generator(pool):
        # Churn everything except the black hole: removing it would wipe
        # the avoidance record under test.
        return ChurnGenerator(
            pool,
            pool.rngs.stream("churn"),
            machines=tuple(m for m in sorted(pool.machines) if m != "exec000"),
            mean_interval=mean_interval,
            mean_downtime=mean_downtime,
            graceful_fraction=0.5,
            min_alive=2,
        )

    modes = (
        ("none", dict(schedd_avoidance=False)),
        ("permanent", dict(schedd_avoidance=True, avoidance_mode="permanent")),
        ("backoff", dict(schedd_avoidance=True, avoidance_mode="backoff")),
    )
    rows: list[ChurnRow] = []
    for name, knobs in modes:
        jobs = _plain_jobs(seed, n_jobs, "churn-workload", mean_work=60.0)
        _, metrics, churn = _scoped_run(
            seed, jobs, n_machines,
            faults=[(BlackHole("exec000"), 0.0, heal_at)],
            arm=churn_generator,
            arrivals=("churn-arrivals", 8.0),
            avoidance_base=60.0,
            avoidance_cap=480.0,
            **knobs,
        )
        rows.append(_metrics_row(
            ChurnRow, metrics,
            avoidance=name,
            goodput_rate=metrics.goodput_seconds / metrics.makespan if metrics.makespan else 0.0,
            churn_leaves=churn.leaves,
            churn_joins=churn.joins,
            attempts_on_healed_site=sum(
                1 for job in jobs for attempt in job.attempts
                if attempt.site == "exec000" and attempt.started >= heal_at
            ),
        ))
    return ChurnResult(rows, heal_at=heal_at)


# ---------------------------------------------------------------------------
# EXP-FLOCK -- flocking across pools (the grid above the pool)
# ---------------------------------------------------------------------------

@dataclass
class FlockRow:
    configuration: str = col("configuration")
    completed: int = col("completed")
    jobs_flocked: int = col("jobs flocked")
    remote_completions: int = col("remote completions")
    flock_links_down: int = col("flock links down")
    makespan: float = col("makespan (s)", digits=1)
    mean_turnaround: float = col("mean turnaround (s)", digits=1)


@dataclass
class FlockResult(_RowsResult):
    TITLE = "EXP-FLOCK: overflow to a remote pool, and a flock link outage"
    KEY = "configuration"

    rows: list[FlockRow]


@experiment("flocking", anchor="EXP-FLOCK §2.1")
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
    from repro.condor.grid import GridPoolSpec
    from repro.faults import FlockLinkDown

    configurations = (
        ("no flocking", False, False),
        ("flocking", True, False),
        ("flocking + link outage", True, True),
    )
    rows: list[FlockRow] = []
    for name, flocking, outage in configurations:
        jobs = _plain_jobs(seed, n_jobs, "flock", mean_work=60.0)
        grid, metrics, _ = _scoped_run(
            seed, jobs,
            faults=[(FlockLinkDown(), 0.0, link_down_until)] if outage else (),
            grid=dict(
                pools=(
                    GridPoolSpec("a", n_machines=home_machines),
                    GridPoolSpec("b", n_machines=remote_machines),
                ),
                flocking=flocking,
            ),
            flock_after=30.0,
        )
        rows.append(_metrics_row(
            FlockRow, metrics,
            configuration=name,
            jobs_flocked=grid.schedd.jobs_flocked,
            remote_completions=sum(
                1 for job in jobs
                if job.state is JobState.COMPLETED
                and job.attempts
                and job.attempts[-1].site.startswith("b-")
            ),
            flock_links_down=sum(link.times_down for link in grid.schedd.flock_links),
        ))
    return FlockResult(rows)


# ---------------------------------------------------------------------------
# EXP-CKPT -- checkpointing ablation (§2.1's Standard Universe)
# ---------------------------------------------------------------------------

@dataclass
class CheckpointRow:
    checkpointing: bool = col("checkpointing")
    completed: int = col("completed")
    total_steps_needed: int = col("steps needed")
    steps_executed: int = col("steps executed")
    reexecuted_steps: int = col("re-executed (waste)")
    makespan: float = col("makespan (s)")


@dataclass
class CheckpointResult(_RowsResult):
    TITLE = "EXP-CKPT: Standard Universe checkpointing under evictions"
    KEY = "checkpointing"

    rows: list[CheckpointRow]


@experiment("checkpointing", anchor="EXP-CKPT §2.1")
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
        jobs = [
            _compute_job(f"1.{i}", "thain", f"s{i}.bin", step_work, n_steps,
                         Universe.STANDARD)
            for i in range(n_jobs)
        ]
        _, metrics, _ = _scoped_run(
            seed, jobs, n_machines,
            faults=[
                (OwnerActivity(f"exec{m:03d}"), at, at + eviction_duration)
                for at in eviction_times for m in range(n_machines)
            ],
            checkpointing=checkpointing,
        )
        executed = sum(j.steps_executed for j in jobs)
        needed = n_jobs * n_steps
        rows.append(_metrics_row(
            CheckpointRow, metrics,
            checkpointing=checkpointing,
            total_steps_needed=needed,
            steps_executed=executed,
            reexecuted_steps=max(0, executed - needed),
        ))
    return CheckpointResult(rows)
