"""Tests for the benchmark runner (repro.bench.runner)."""

import json

from repro.bench.compare import strip_wall
from repro.bench.runner import (
    BENCH_SCHEMA,
    BenchmarkProxy,
    bench_name,
    collect_cases,
    discover,
    run_bench_file,
    run_suite,
)

#: A miniature benchmark module exercising every runner feature: the
#: benchmark fixture, pedantic, parametrize, and a plain test function.
TINY_BENCH = '''
import pytest

from repro.condor.pool import Pool, PoolConfig
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.sim.rng import RngRegistry


def _run(seed):
    pool = Pool(PoolConfig(n_machines=2, seed=seed))
    jobs = make_workload(
        WorkloadSpec(n_jobs=2, io_fraction=0.0, exception_fraction=0.0,
                     exit_code_fraction=0.0),
        RngRegistry(seed).stream("tiny"),
    )
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=10_000)
    return pool


def test_fixture_call(benchmark):
    benchmark(_run, 0)


def test_pedantic(benchmark):
    benchmark.pedantic(_run, args=(0,), rounds=2, iterations=1)


@pytest.mark.parametrize("seed", [0, 1])
def test_parametrized(benchmark, seed):
    benchmark(_run, seed)


def test_plain():
    assert _run(0).sim.now > 0
'''


def _write_tiny(tmp_path, name="bench_tiny.py", body=TINY_BENCH):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestDiscovery:
    def test_discovers_the_committed_suite(self):
        paths = discover("benchmarks")
        names = [bench_name(p) for p in paths]
        assert len(names) == 21
        assert names == sorted(names)
        assert "sim_engine" in names and "fig3_scopes" in names
        assert "scale_pool" in names
        assert "service_load" in names
        assert "churn_federation" in names
        assert "fuzz_campaign" in names

    def test_collect_expands_parametrize(self, tmp_path):
        cases = collect_cases(_write_tiny(tmp_path))
        ids = [c.case_id for c in cases]
        assert "test_fixture_call" in ids
        assert "test_parametrized[0]" in ids and "test_parametrized[1]" in ids
        assert "test_plain" in ids

    def test_wants_proxy_detection(self, tmp_path):
        cases = {c.case_id: c for c in collect_cases(_write_tiny(tmp_path))}
        assert cases["test_fixture_call"].wants_proxy
        assert not cases["test_plain"].wants_proxy


class TestRunBenchFile:
    def test_record_shape(self, tmp_path):
        record = run_bench_file(_write_tiny(tmp_path), rounds_override=1)
        assert record["schema"] == BENCH_SCHEMA
        assert record["bench"] == "tiny"
        case = record["cases"]["test_fixture_call"]
        assert case["ok"] and case["error"] is None
        assert case["deterministic"] is True
        assert case["sim"]["events"] > 0
        assert case["critical_path"]["critical_job"] is not None
        assert case["folded"]
        assert case["wall_seconds"]["min"] > 0

    def test_plain_case_still_observed(self, tmp_path):
        record = run_bench_file(_write_tiny(tmp_path), rounds_override=1)
        case = record["cases"]["test_plain"]
        assert case["ok"] and case["sim"]["events"] > 0

    def test_same_seed_records_identical_after_wall_strip(self, tmp_path):
        path = _write_tiny(tmp_path)
        a = run_bench_file(path, rounds_override=1)
        b = run_bench_file(path, rounds_override=2)
        assert a["rounds_override"] != b["rounds_override"]
        # The round count is run protocol, stripped with the wall data;
        # every sim-side field is round-count independent.
        assert strip_wall(a) == strip_wall(b)

    def test_failing_case_is_data_not_crash(self, tmp_path):
        path = _write_tiny(
            tmp_path,
            name="bench_bad.py",
            body="def test_boom():\n    assert False, 'expected'\n",
        )
        record = run_bench_file(path)
        case = record["cases"]["test_boom"]
        assert not case["ok"]
        assert "AssertionError" in case["error"]


class TestRunSuite:
    def test_writes_canonical_json_per_module(self, tmp_path):
        _write_tiny(tmp_path)
        out = tmp_path / "out"
        written = run_suite(
            bench_dir=tmp_path, out_dir=out, rounds_override=1, echo=lambda s: None
        )
        assert [p.name for p in written] == ["BENCH_tiny.json"]
        (path, record), = written.items()
        assert record["schema"] == BENCH_SCHEMA
        assert json.loads(path.read_text()) == record  # the object is the file

    def test_only_filters_by_substring(self, tmp_path):
        _write_tiny(tmp_path)
        _write_tiny(tmp_path, name="bench_other.py",
                    body="def test_ok():\n    pass\n")
        out = tmp_path / "out"
        written = run_suite(bench_dir=tmp_path, out_dir=out, only=["tin"],
                            rounds_override=1, echo=lambda s: None)
        assert [p.name for p in written] == ["BENCH_tiny.json"]

    def test_suite_output_byte_identical_after_wall_strip(self, tmp_path):
        _write_tiny(tmp_path)
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}"
            run_suite(bench_dir=tmp_path, out_dir=out, rounds_override=1,
                      echo=lambda s: None)
            record = json.loads((out / "BENCH_tiny.json").read_text())
            texts.append(
                json.dumps(strip_wall(record), sort_keys=True)
            )
        assert texts[0] == texts[1]


class TestBenchmarkProxy:
    def test_default_rounds(self):
        proxy = BenchmarkProxy()
        calls = []
        proxy(lambda: calls.append(1))
        assert proxy.rounds_run == 3 and len(calls) == 3

    def test_rounds_override_wins_over_pedantic(self):
        proxy = BenchmarkProxy(rounds_override=1)
        calls = []
        proxy.pedantic(lambda: calls.append(1), rounds=5)
        assert proxy.rounds_run == 1 and len(calls) == 1

    def test_result_is_returned(self):
        proxy = BenchmarkProxy(rounds_override=1)
        assert proxy(lambda: 42) == 42
