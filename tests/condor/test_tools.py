"""Rendering tests for the operator tools (condor_status and friends)."""

import pytest

from repro.condor.job import JobState
from repro.condor.pool import Pool, PoolConfig
from repro.condor.tools import (
    condor_q,
    condor_status,
    error_scope_report,
    timeline,
)
from repro.faults import FaultInjector, MisconfiguredJvm
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.sim.rng import RngRegistry


@pytest.fixture(scope="module")
def finished_pool():
    """A small completed run with one injected remote-resource fault."""
    pool = Pool(PoolConfig(n_machines=2, seed=0))
    FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
    jobs = make_workload(
        WorkloadSpec(n_jobs=2, io_fraction=0.0, exception_fraction=0.0,
                     exit_code_fraction=0.0),
        RngRegistry(0).stream("tools-test"),
    )
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=50_000)
    assert all(j.state is JobState.COMPLETED for j in jobs)
    return pool


def test_condor_status_lists_every_slot(finished_pool):
    text = condor_status(finished_pool)
    assert "condor_status @ t=" in text
    for name, startd in finished_pool.startds.items():
        for slot in range(finished_pool.machines[name].slots):
            assert startd.slot_name(slot) in text
    assert "unclaimed" in text


def test_slot_name_is_public_and_stable(finished_pool):
    startd = finished_pool.startds["exec000"]
    machine = finished_pool.machines["exec000"]
    name = startd.slot_name(0)
    assert "exec000" in name
    if machine.slots == 1:
        assert name == "exec000"
    assert not hasattr(startd, "_slot_name")


def test_condor_q_shows_terminal_outcomes(finished_pool):
    text = condor_q(finished_pool)
    assert "condor_q @ t=" in text
    for job_id in finished_pool.schedd.jobs:
        assert job_id in text
    assert "completed" in text


def test_timeline_marks_errors_and_results(finished_pool):
    text = timeline(finished_pool)
    assert text.startswith("timeline 0 ..")
    assert "#" in text  # completed execution
    assert "x" in text  # the faulted attempt
    for job_id in finished_pool.schedd.jobs:
        assert job_id in text


def test_timeline_empty_pool():
    pool = Pool(PoolConfig(n_machines=1, seed=0))
    assert timeline(pool) == "(no attempts recorded)"


def test_error_scope_report_counts_the_fault(finished_pool):
    text = error_scope_report(finished_pool)
    assert "error scopes observed" in text
    assert "JvmMisconfigured" in text
    assert "(none)" not in text


def test_error_scope_report_clean_pool():
    pool = Pool(PoolConfig(n_machines=1, seed=0))
    assert "(none)" in error_scope_report(pool)
