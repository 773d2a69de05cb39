"""Span assembly over real pool runs, and the FIG3 live cross-check."""

from collections import defaultdict

from repro.condor.job import JobState
from repro.condor.pool import Pool, PoolConfig
from repro.core.propagation import EventType
from repro.faults import FaultInjector, MisconfiguredJvm
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.obs.export import ObservationSession
from repro.sim.rng import RngRegistry


def _run_pool(seed: int = 0, n_jobs: int = 3, fault: bool = False):
    pool = Pool(PoolConfig(n_machines=2, seed=seed))
    if fault:
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
    jobs = make_workload(
        WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                     exit_code_fraction=0.0),
        RngRegistry(seed).stream("obs-test"),
    )
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=50_000)
    return pool, jobs


class TestJobSpans:
    def test_clean_run_assembles_one_root_per_job(self):
        with ObservationSession() as session:
            _, jobs = _run_pool(seed=0)
        roots = [s for s in session.spans.spans if s.kind == "job"]
        assert len(roots) == len(jobs)
        for root in roots:
            assert root.end is not None
            assert root.status == "completed"

    def test_phases_follow_the_lifecycle(self):
        with ObservationSession() as session:
            _run_pool(seed=0, n_jobs=1)
        root = [s for s in session.spans.spans if s.kind == "job"][0]
        phases = [s for s in session.spans.spans
                  if s.kind == "phase" and s.parent_id == root.span_id]
        names = [p.name for p in phases]
        assert names[0] == "queued"
        assert "claim" in names and "attempt:1" in names
        assert all(p.end is not None for p in phases)
        # Phases tile the root interval: contiguous, in order.
        for earlier, later in zip(phases, phases[1:]):
            assert earlier.end == later.start
        assert phases[0].start == root.start
        assert phases[-1].end == root.end

    def test_faulty_run_grows_retry_phases(self):
        with ObservationSession() as session:
            _, jobs = _run_pool(seed=0, n_jobs=2, fault=True)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        retried = [s for s in session.spans.spans if s.name == "attempt:2"]
        assert retried, "the misconfigured JVM should force a second attempt"


class TestErrorSpans:
    def test_error_journeys_have_hops_and_terminals(self):
        with ObservationSession() as session:
            _run_pool(seed=0, fault=True)
        errors = session.spans.journeys()
        assert errors
        hops_by_parent = defaultdict(list)
        for span in session.spans.spans:
            if span.kind == "hop":
                hops_by_parent[span.parent_id].append(span)
        for journey in errors:
            hops = hops_by_parent[journey.span_id]
            assert hops and hops[0].name == "hop:discovered"
            assert journey.end is not None
            assert f"hop:{journey.status}" == hops[-1].name

    def test_scope_to_handlers_matches_posthoc_analysis(self):
        """The live (span-stream) FIG3 map equals the one read post hoc off
        the run's propagation trace: each error's scope at discovery and
        the manager of its last masked/reported event."""
        with ObservationSession() as session:
            pool, _ = _run_pool(seed=0, fault=True)
        discovered = {}
        for event in pool.trace:
            discovered.setdefault(event.error.error_id, event.error)
        posthoc: dict[str, set[str]] = defaultdict(set)
        for error in discovered.values():
            terminal = pool.trace.terminal(error)
            if terminal is not None and terminal.event in (
                EventType.MASKED, EventType.REPORTED
            ):
                posthoc[error.scope.name].add(terminal.manager)
        live = session.spans.scope_to_handlers()
        assert live == dict(posthoc)
        # The misconfigured JVM is a remote-resource error; Figure 3 says
        # the shadow masks it (retry elsewhere).
        assert live["REMOTE_RESOURCE"] == {"shadow"}

    def test_detached_builder_accrues_nothing(self):
        with ObservationSession() as session:
            _run_pool(seed=0, n_jobs=1)
        session.spans.detach()
        before = len(session.spans.spans)
        session.bus.emit(99.0, "job", "submit", job="9.0")
        assert len(session.spans.spans) == before
