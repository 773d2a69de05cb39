"""Job-stream generators.

Every generated job carries its *expected clean-run result*, computed by
statically walking the program model.  That expectation is what makes the
Principle-1 audit precise: a delivered result that differs from the
expectation, while a fault overlapped the decisive attempt, is an
environmental error in program-result clothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condor.job import Job, ProgramImage, Universe
from repro.core.result import ResultFile
from repro.jvm.program import JavaProgram, Step, StepKind
from repro.jvm.throwables import JError, throwable_by_name
from repro.sim.rng import RngRegistry

__all__ = [
    "WorkloadSpec",
    "expected_result_for",
    "make_workload",
    "submit_gauntlet",
    "submit_staggered",
]

MB = 2**20


def expected_result_for(program: JavaProgram, home_files: set[str] | None = None) -> ResultFile:
    """The result a clean environment delivers for *program*.

    Walks the step list: the first uncaught throw or exit decides; I/O
    steps succeed when their path is in *home_files* (reads) or always
    (writes), else raise FileNotFoundException.
    """
    home_files = home_files if home_files is not None else set()
    for step in program.steps:
        if step.kind is StepKind.EXIT:
            return ResultFile.completed(step.arg)
        if step.kind is StepKind.THROW:
            exc = throwable_by_name(step.arg)
            if isinstance(exc, JError):
                # A thrown Error is uncatchable; in a clean environment the
                # wrapper would still classify e.g. OutOfMemoryError as
                # VM scope -- workloads avoid generating these.
                return ResultFile.exception(step.arg)
            if step.arg in program.handles:
                continue
            return ResultFile.exception(step.arg)
        if step.kind is StepKind.READ and step.arg not in home_files:
            if "FileNotFoundException" in program.handles:
                continue
            return ResultFile.exception("FileNotFoundException", step.arg)
    return ResultFile.completed(0)


@dataclass
class WorkloadSpec:
    """Shape of a generated job stream."""

    n_jobs: int = 20
    #: mean compute per job (normalized cpu-seconds)
    mean_work: float = 10.0
    #: fraction of jobs that read + write home files
    io_fraction: float = 0.3
    #: fraction of jobs that end in a program exception (wanted results)
    exception_fraction: float = 0.1
    #: fraction of jobs that call System.exit with a nonzero code
    exit_code_fraction: float = 0.1
    #: per-job heap request
    heap_request: int = 32 * MB
    owner: str = "thain"
    universe: Universe = Universe.JAVA


def make_workload(spec: WorkloadSpec, rng, home_fs=None) -> list[Job]:
    """Generate ``spec.n_jobs`` jobs; populate *home_fs* with their inputs.

    *rng* is a ``random.Random`` stream; determinism flows from it.
    """
    jobs: list[Job] = []
    home_files: set[str] = set()
    for i in range(spec.n_jobs):
        steps: list[Step] = []
        work = max(0.5, rng.expovariate(1.0 / spec.mean_work))
        steps.append(Step.compute(work))
        input_files: dict[str, str] = {}
        draw = rng.random()
        if draw < spec.io_fraction and home_fs is not None:
            path = f"/home/user/input{i:04d}.dat"
            home_fs.write_file(path, f"input for job {i}".encode())
            home_files.add(path)
            steps.append(Step.read(path))
            steps.append(Step.write(f"/home/user/output{i:04d}.dat", b"out"))
        draw = rng.random()
        if draw < spec.exception_fraction:
            steps.append(
                Step.throw(
                    rng.choice(
                        [
                            "ArrayIndexOutOfBoundsException",
                            "NullPointerException",
                            "ArithmeticException",
                        ]
                    )
                )
            )
        elif draw < spec.exception_fraction + spec.exit_code_fraction:
            steps.append(Step.exit(rng.randint(1, 9)))
        program = JavaProgram(name=f"Job{i}", steps=steps)
        job = Job(
            job_id=f"1.{i}",
            owner=spec.owner,
            universe=spec.universe,
            image=ProgramImage(f"job{i}.class", program=program),
            input_files=input_files,
            heap_request=spec.heap_request,
        )
        job.expected_result = expected_result_for(program, home_files)
        jobs.append(job)
    return jobs


def submit_staggered(pool, jobs: list[Job], rng, mean_gap: float) -> None:
    """Schedule *jobs* to arrive one after another, exponential gaps drawn
    from *rng*, so the stream overlaps bounded fault windows like a real
    pool's continuous load."""
    when = 0.0
    for job in jobs:
        pool.submit_at(job, when)
        when += rng.expovariate(1.0 / mean_gap)


def submit_gauntlet(
    pool, seed: int, n_jobs: int, stream: str, exception_fraction: float
) -> list[Job]:
    """Build and schedule the §2.3 gauntlet workload on *pool*.

    Half the jobs do home-file I/O, some end in program exceptions or
    exit codes, every third allocates (so memory-pressure faults bite),
    and arrivals are staggered 40 s apart on average.  The headline
    experiment, the principle audit and every campaign cell run this one
    stream; they differ in the RNG *stream* name and exception share.
    """
    rngs = RngRegistry(seed)
    spec = WorkloadSpec(n_jobs=n_jobs, io_fraction=0.5, exception_fraction=exception_fraction,
                        exit_code_fraction=0.1, mean_work=8.0)
    jobs = make_workload(spec, rngs.stream(stream), home_fs=pool.home_fs)
    for i, job in enumerate(jobs):
        if i % 3 == 0:
            job.image.program.steps.insert(0, Step.allocate(16 * MB))
    submit_staggered(pool, jobs, rngs.stream("arrivals"), 40.0)
    return jobs
