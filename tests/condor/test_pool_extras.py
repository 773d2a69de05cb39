"""Pool-level extras: operator tools."""

from repro.condor import Job, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.tools import condor_q, condor_status, error_scope_report
from repro.faults import FaultInjector, MisconfiguredJvm
from repro.jvm.program import JavaProgram, Step


def java_job(job_id="1.0", steps=None):
    program = JavaProgram(steps=steps or [Step.compute(5.0)])
    return Job(job_id, owner="thain", universe=Universe.JAVA,
               image=ProgramImage(f"j{job_id}.class", program=program))


class TestOperatorTools:
    def _run_pool(self):
        pool = Pool(PoolConfig(n_machines=2))
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
        jobs = [java_job(f"1.{i}") for i in range(3)]
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=100_000)
        return pool

    def test_condor_status_lists_machines(self):
        pool = self._run_pool()
        text = condor_status(pool)
        assert "exec000" in text and "exec001" in text
        assert "condor_status" in text

    def test_condor_q_lists_jobs_with_outcomes(self):
        pool = self._run_pool()
        text = condor_q(pool)
        assert "1.0" in text and "1.2" in text
        assert "completed" in text

    def test_error_scope_report_counts_failures(self):
        pool = self._run_pool()
        text = error_scope_report(pool)
        assert "remote-resource" in text

    def test_error_scope_report_empty_pool(self):
        pool = Pool(PoolConfig(n_machines=1))
        assert "(none)" in error_scope_report(pool)

    def test_timeline_renders_marks(self):
        from repro.condor.tools import timeline

        pool = self._run_pool()
        text = timeline(pool, width=40)
        assert "#" in text  # successful execution spans
        assert "x" in text  # the failed attempts on exec000
        assert "1.0" in text and "1.2" in text

    def test_timeline_empty_pool(self):
        from repro.condor.tools import timeline

        pool = Pool(PoolConfig(n_machines=1))
        assert timeline(pool) == "(no attempts recorded)"
