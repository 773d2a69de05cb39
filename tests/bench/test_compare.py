"""Tests for bench comparison and the bench CLI (repro.bench.compare)."""

import copy
import json

import pytest

from repro.bench.__main__ import main
from repro.bench.compare import compare_paths, compare_records, strip_wall

RECORD = {
    "schema": "repro-bench/1",
    "bench": "demo",
    "rounds_override": None,
    "cases": {
        "test_a": {
            "ok": True,
            "error": None,
            "rounds": 1,
            "iterations": 1,
            "deterministic": True,
            "wall_seconds": {"min": 0.2, "max": 0.3, "mean": 0.25,
                             "per_round": [0.2, 0.3]},
            "wall": {"sim.process_step": {"calls": 10, "total_seconds": 0.1,
                                          "mean_seconds": 0.01,
                                          "min_seconds": 0.001,
                                          "max_seconds": 0.02}},
            "sim": {"events": 100, "sim_time": 42.0, "top": []},
            "critical_path": {"critical_job": "job:1", "makespan": 42.0},
            "folded": ["job:1 42000000"],
            "histograms": {},
        }
    },
}


def _record(**case_overrides):
    record = copy.deepcopy(RECORD)
    record["cases"]["test_a"].update(case_overrides)
    return record


class TestStripWall:
    def test_removes_wall_keys_at_any_depth(self):
        stripped = strip_wall(RECORD)
        case = stripped["cases"]["test_a"]
        assert "wall" not in case and "wall_seconds" not in case
        assert case["sim"]["events"] == 100

    def test_removes_run_protocol_keys(self):
        stripped = strip_wall(RECORD)
        assert "rounds_override" not in stripped
        assert "rounds" not in stripped["cases"]["test_a"]
        assert stripped["cases"]["test_a"]["iterations"] == 1

    def test_original_is_untouched(self):
        strip_wall(RECORD)
        assert "wall" in RECORD["cases"]["test_a"]


class TestCompareRecords:
    def test_identical_records_pass(self):
        assert compare_records(RECORD, copy.deepcopy(RECORD)) == []

    def test_wall_noise_alone_passes(self):
        noisy = _record(wall_seconds={"min": 0.25, "max": 0.4, "mean": 0.3,
                                      "per_round": [0.25, 0.4]})
        assert compare_records(RECORD, noisy) == []

    def test_round_count_is_protocol_not_payload(self):
        # The committed fuzz baseline was recorded at the default three
        # rounds; CI reruns it with --rounds 1.  Same simulation.
        baseline = _record(rounds=3)
        ci_run = _record(rounds=1)
        ci_run["rounds_override"] = 1
        assert compare_records(baseline, ci_run) == []

    def test_sim_change_is_a_hard_failure(self):
        changed = _record(sim={"events": 101, "sim_time": 42.0, "top": []})
        problems = compare_records(RECORD, changed)
        assert problems and "sim-side mismatch" in problems[0]
        assert "events" in problems[0]

    def test_sim_change_fails_even_with_sim_only(self):
        changed = _record(sim={"events": 100, "sim_time": 43.0, "top": []})
        assert compare_records(RECORD, changed, check_wall=False)

    def test_wall_regression_past_threshold_fails(self):
        slow = _record(wall_seconds={"min": 0.5, "max": 0.6, "mean": 0.55,
                                     "per_round": [0.5, 0.6]})
        problems = compare_records(RECORD, slow, wall_threshold=1.0)
        assert problems and "wall regression" in problems[0]

    def test_wall_regression_below_floor_is_ignored(self):
        fast_base = _record(wall_seconds={"min": 0.001, "max": 0.001,
                                          "mean": 0.001, "per_round": [0.001]})
        fast_slow = _record(wall_seconds={"min": 0.004, "max": 0.004,
                                          "mean": 0.004, "per_round": [0.004]})
        assert compare_records(fast_base, fast_slow, wall_threshold=1.0,
                               min_wall_seconds=0.05) == []

    def test_wall_check_disabled(self):
        slow = _record(wall_seconds={"min": 5.0, "max": 5.0, "mean": 5.0,
                                     "per_round": [5.0]})
        assert compare_records(RECORD, slow, check_wall=False) == []


class TestComparePaths:
    def _write(self, path, record):
        path.write_text(json.dumps(record))

    def test_directories_pairwise(self, tmp_path):
        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir(), new.mkdir()
        self._write(old / "BENCH_demo.json", RECORD)
        self._write(new / "BENCH_demo.json", RECORD)
        problems, compared = compare_paths(old, new)
        assert problems == [] and compared == 1

    def test_missing_benchmark_is_a_problem(self, tmp_path):
        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir(), new.mkdir()
        self._write(old / "BENCH_demo.json", RECORD)
        problems, compared = compare_paths(old, new)
        assert compared == 0
        assert problems == ["BENCH_demo.json: present in old run only"]

    def test_single_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, RECORD)
        self._write(b, _record(sim={"events": 1, "sim_time": 1.0, "top": []}))
        b.rename(tmp_path / "a2.json")  # names differ -> treated as files
        problems, _ = compare_paths(a, a)
        assert problems == []


class TestCli:
    def _write_dirs(self, tmp_path, new_record):
        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir(), new.mkdir()
        (old / "BENCH_demo.json").write_text(json.dumps(RECORD))
        (new / "BENCH_demo.json").write_text(json.dumps(new_record))
        return old, new

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        old, new = self._write_dirs(tmp_path, RECORD)
        assert main(["compare", str(old), str(new)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_injected_sim_regression_exits_nonzero(self, tmp_path, capsys):
        regressed = _record(sim={"events": 100, "sim_time": 99.0, "top": []})
        old, new = self._write_dirs(tmp_path, regressed)
        assert main(["compare", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "sim-side mismatch" in out

    def test_compare_wall_threshold_flag(self, tmp_path):
        slow = _record(wall_seconds={"min": 0.5, "max": 0.5, "mean": 0.5,
                                     "per_round": [0.5]})
        old, new = self._write_dirs(tmp_path, slow)
        assert main(["compare", str(old), str(new), "--wall-threshold", "0.5"]) == 1
        assert main(["compare", str(old), str(new), "--wall-threshold", "4.0"]) == 0
        assert main(["compare", str(old), str(new), "--sim-only"]) == 0

    def test_list_names_the_suite(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sim_engine" in out and "fig3_scopes" in out

    def test_run_unmatched_filter_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--bench-dir", str(tmp_path),
                     "--out", str(tmp_path / "out")]) == 1

    def test_rounds_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["--rounds", "0", "--list"])


class TestMissingBaseline:
    """A missing comparison side is NOT a regression: distinct exception,
    distinct message, distinct exit code (2, so CI can tell "no baseline
    yet" from "benchmarks regressed")."""

    def _candidate_dir(self, tmp_path):
        new = tmp_path / "new"
        new.mkdir()
        (new / "BENCH_demo.json").write_text(json.dumps(RECORD))
        return new

    def test_nonexistent_baseline_raises(self, tmp_path):
        from repro.bench.compare import MissingBaselineError

        with pytest.raises(MissingBaselineError, match="baseline"):
            compare_paths(tmp_path / "ghost", self._candidate_dir(tmp_path))

    def test_empty_existing_dir_still_compares(self, tmp_path):
        # An existing-but-empty dir is not "missing": its absent
        # benchmarks surface as ordinary problems, same as the seed.
        empty = tmp_path / "empty"
        empty.mkdir()
        problems, compared = compare_paths(empty, self._candidate_dir(tmp_path))
        assert compared == 0
        assert problems == ["BENCH_demo.json: present in new run only"]

    def test_missing_candidate_names_that_side(self, tmp_path):
        from repro.bench.compare import MissingBaselineError

        baseline = self._candidate_dir(tmp_path)
        with pytest.raises(MissingBaselineError, match="candidate"):
            compare_paths(baseline, tmp_path / "ghost")

    def test_cli_exit_code_distinct_from_regression(self, tmp_path, capsys):
        new = self._candidate_dir(tmp_path)
        code = main(["compare", str(tmp_path / "ghost"), str(new)])
        captured = capsys.readouterr()
        assert code == 2  # not 1: nothing regressed, there is nothing to diff
        assert "MISSING BASELINE" in captured.err
        assert "python -m repro.bench" in captured.err
        assert "REGRESSION" not in captured.out
