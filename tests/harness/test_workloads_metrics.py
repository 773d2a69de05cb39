"""Tests for workload generation, expectations, metrics, and reporting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import ResultFile, ResultStatus
from repro.harness.report import Table, fmt
from repro.harness.workloads import WorkloadSpec, expected_result_for, make_workload
from repro.jvm.program import JavaProgram, Step
from repro.sim.filesystem import LocalFileSystem


class TestExpectedResult:
    def test_plain_compute_completes_zero(self):
        program = JavaProgram(steps=[Step.compute(1.0)])
        assert expected_result_for(program).same_outcome(ResultFile.completed(0))

    def test_exit_code(self):
        program = JavaProgram(steps=[Step.compute(1.0), Step.exit(4)])
        assert expected_result_for(program).exit_code == 4

    def test_uncaught_throw(self):
        program = JavaProgram(steps=[Step.throw("NullPointerException")])
        expected = expected_result_for(program)
        assert expected.status is ResultStatus.EXCEPTION
        assert expected.exception_name == "NullPointerException"

    def test_handled_throw_continues(self):
        program = JavaProgram(
            steps=[Step.throw("ArithmeticException"), Step.exit(2)],
            handles={"ArithmeticException"},
        )
        assert expected_result_for(program).exit_code == 2

    def test_read_of_known_file_succeeds(self):
        program = JavaProgram(steps=[Step.read("/home/user/x")])
        expected = expected_result_for(program, {"/home/user/x"})
        assert expected.status is ResultStatus.COMPLETED

    def test_read_of_unknown_file_is_fnf(self):
        program = JavaProgram(steps=[Step.read("/home/user/none")])
        expected = expected_result_for(program, set())
        assert expected.exception_name == "FileNotFoundException"

    def test_steps_after_decision_ignored(self):
        program = JavaProgram(steps=[Step.exit(1), Step.throw("NullPointerException")])
        assert expected_result_for(program).exit_code == 1


class TestMakeWorkload:
    def test_deterministic(self):
        spec = WorkloadSpec(n_jobs=10)
        a = make_workload(spec, random.Random(7))
        b = make_workload(spec, random.Random(7))
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [len(j.image.program.steps) for j in a] == [
            len(j.image.program.steps) for j in b
        ]

    def test_every_job_has_expectation(self):
        jobs = make_workload(WorkloadSpec(n_jobs=8), random.Random(1))
        assert all(j.expected_result is not None for j in jobs)

    def test_io_jobs_populate_home_fs(self):
        fs = LocalFileSystem()
        fs.mkdir("/home/user", parents=True)
        jobs = make_workload(
            WorkloadSpec(n_jobs=20, io_fraction=1.0), random.Random(1), home_fs=fs
        )
        reads = [
            s for j in jobs for s in j.image.program.steps if s.kind.value == "read"
        ]
        assert reads
        for step in reads:
            assert fs.exists(step.arg)

    def test_fraction_zero_means_none(self):
        jobs = make_workload(
            WorkloadSpec(n_jobs=20, io_fraction=0.0, exception_fraction=0.0,
                         exit_code_fraction=0.0),
            random.Random(3),
        )
        for job in jobs:
            assert job.expected_result.same_outcome(ResultFile.completed(0))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_expectations_internally_consistent(self, seed):
        fs = LocalFileSystem()
        fs.mkdir("/home/user", parents=True)
        jobs = make_workload(
            WorkloadSpec(n_jobs=5, io_fraction=0.5, exception_fraction=0.3,
                         exit_code_fraction=0.3),
            random.Random(seed),
            home_fs=fs,
        )
        for job in jobs:
            expected = job.expected_result
            assert expected.is_program_result


class TestReport:
    def test_fmt(self):
        assert fmt(True) == "yes"
        assert fmt(3.14159) == "3.142"
        assert fmt(5.0) == "5"
        assert fmt("text") == "text"
        assert fmt(12) == "12"

    def test_fmt_non_finite_floats(self):
        """A diverged metric must render, not crash the table."""
        assert fmt(float("inf")) == "inf"
        assert fmt(float("-inf")) == "-inf"
        assert fmt(float("nan")) == "nan"

    def test_table_renders_non_finite_cells(self):
        table = Table(["metric", "value"], [["diverged", float("inf")],
                                            ["undefined", float("nan")]])
        text = table.render()
        assert "inf" in text and "nan" in text

    def test_table_footer_renders_after_rule(self):
        table = Table(["a"], [[1]], title="T")
        table.add_footer("wall clock 0.5s")
        lines = table.render().splitlines()
        assert lines[-1] == "wall clock 0.5s"
        assert set(lines[-2]) == {"-"}

    def test_table_renders_aligned(self):
        table = Table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_str_equals_render(self):
        table = Table(["x"], [[1]])
        assert str(table) == table.render()

    def test_html_carries_the_same_cells_escaped(self):
        table = Table(["name", "value"], [["<a&b>", 0.5]], title="T & U")
        table.add_footer("1 row")
        assert table.html().splitlines() == [
            "<table>",
            "<caption>T &amp; U</caption>",
            "<tr><th>name</th><th>value</th></tr>",
            "<tr><td>&lt;a&amp;b&gt;</td><td>0.500</td></tr>",
            '<tr><td colspan="2">1 row</td></tr>',
            "</table>",
        ]


class TestMetrics:
    def test_collect_on_clean_run(self):
        from repro.condor import Pool, PoolConfig
        from repro.harness.metrics import collect_metrics

        pool = Pool(PoolConfig(n_machines=2))
        jobs = make_workload(WorkloadSpec(n_jobs=4, io_fraction=0.0), random.Random(2))
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=50_000)
        metrics = collect_metrics(pool, jobs)
        assert metrics.jobs == 4
        assert metrics.completed == 4
        assert metrics.correct_results == 4
        assert metrics.user_visible_incidental == 0
        assert metrics.postmortems_required == 0
        assert metrics.wasted_attempts == 0
        assert metrics.network_bytes > 0
        assert metrics.mean_turnaround > 0

    def test_as_rows_shape(self):
        from repro.harness.metrics import RunMetrics

        rows = RunMetrics().as_rows()
        assert len(rows) == 14
        assert all(len(r) == 2 for r in rows)
        # Wall clock is deliberately absent: rendered tables must stay
        # bit-reproducible across runs; timing travels in footers.
        assert not any(r[0] == "wall clock (s)" for r in rows)

    def test_wall_clock_flows_through_collect(self):
        from repro.condor import Pool, PoolConfig
        from repro.harness.metrics import collect_metrics

        pool = Pool(PoolConfig(n_machines=1))
        metrics = collect_metrics(pool, [], wall_clock=1.25)
        assert metrics.wall_clock_seconds == 1.25
