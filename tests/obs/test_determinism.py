"""Determinism and zero-cost guarantees of the observability subsystem.

Two properties hold together (DESIGN.md §6): with a session attached,
same-seed runs export byte-identical trace and metrics files; without a
subscriber, the bus dispatches nothing and the simulation is identical
event-for-event to an instrumented run.
"""

import filecmp

from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignConfig
from repro.condor.pool import Pool, PoolConfig
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.obs.export import ObservationSession, dump_json, render_metrics
from repro.sim.rng import RngRegistry


def _small_run(seed: int = 0):
    """A tiny clean workload: 3 jobs on 2 machines."""
    pool = Pool(PoolConfig(n_machines=2, seed=seed))
    jobs = make_workload(
        WorkloadSpec(n_jobs=3, io_fraction=0.0, exception_fraction=0.0,
                     exit_code_fraction=0.0),
        RngRegistry(seed).stream("obs-test"),
    )
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=50_000)
    return pool


def _observed_run(seed: int = 0):
    with ObservationSession() as session:
        pool = _small_run(seed)
    return pool, session


class TestByteIdentity:
    def test_same_seed_trace_is_byte_identical(self):
        _, a = _observed_run(seed=0)
        _, b = _observed_run(seed=0)
        trace_a = a.trace_text()
        trace_b = b.trace_text()
        assert trace_a and trace_a == trace_b

    def test_same_seed_metrics_are_byte_identical(self):
        _, a = _observed_run(seed=0)
        _, b = _observed_run(seed=0)
        text_a = render_metrics(a.registry)
        assert a.bus.dispatched > 0 and text_a == render_metrics(b.registry)

    def test_exported_files_are_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            trace = tmp_path / f"trace_{tag}.jsonl"
            metrics = tmp_path / f"metrics_{tag}.json"
            with ObservationSession(trace_path=str(trace),
                                    metrics_path=str(metrics)):
                _small_run(seed=0)
            paths.append((trace, metrics))
        (trace_a, metrics_a), (trace_b, metrics_b) = paths
        assert trace_a.stat().st_size > 0
        assert filecmp.cmp(trace_a, trace_b, shallow=False)
        assert filecmp.cmp(metrics_a, metrics_b, shallow=False)

    def test_trace_carries_no_wall_clock_fields(self):
        _, session = _observed_run(seed=0)
        trace = session.trace_text()
        for field in ("wall_clock_seconds", "seed_seconds", "wall_seconds"):
            assert field not in trace


class TestZeroCost:
    def test_unobserved_run_dispatches_nothing(self):
        pool = _small_run(seed=0)
        assert not pool.bus.active
        assert pool.bus.dispatched == 0
        assert pool.sim.telemetry is pool.bus

    def test_instrumentation_does_not_perturb_the_simulation(self):
        """The observed run schedules exactly the same events (same final
        sequence number, same clock, same user log) as the bare run --
        emission sites must not branch the simulation."""
        bare = _small_run(seed=0)
        observed, session = _observed_run(seed=0)
        assert session.bus.dispatched > 0
        assert observed.sim._seq == bare.sim._seq
        assert observed.sim.now == bare.sim.now
        assert observed.userlog.render() == bare.userlog.render()

    def test_ambient_bus_cleared_after_session(self):
        _observed_run(seed=0)
        pool = Pool(PoolConfig(n_machines=1, seed=0))
        assert not pool.bus.active


class TestCampaignDeterminism:
    """The campaign layer inherits the byte-identity contract: every cell
    is self-seeding and the ParallelRunner merge preserves matrix order,
    so fanning cells out over worker processes must not change a byte of
    the JSON report."""

    CONFIG = CampaignConfig(
        mode="classic",
        kinds=("MisconfiguredJvm", "CredentialExpiry", "CorruptProgramImage"),
        windows=((0.0, None),),
    )

    def test_parallel_report_is_byte_identical_to_serial(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        dump_json(str(serial), run_campaign(self.CONFIG, jobs=1))
        dump_json(str(parallel), run_campaign(self.CONFIG, jobs=4))
        assert serial.stat().st_size > 0
        assert filecmp.cmp(serial, parallel, shallow=False)

    def test_same_seed_reports_are_equal_in_process(self):
        assert run_campaign(self.CONFIG, jobs=1) == run_campaign(self.CONFIG, jobs=1)
