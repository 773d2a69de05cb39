"""Tests for the experiment CLI."""

import pytest

from repro.harness.__main__ import EXPERIMENTS, main, run_experiment
from repro.harness.experiments import UnknownExperiment


def test_every_registered_experiment_exists():
    for name, fn in EXPERIMENTS.items():
        assert callable(fn), name


def test_run_experiment_fig4():
    text = run_experiment("fig4")
    assert "JVM Result Code" in text


def test_run_experiment_with_seed():
    text = run_experiment("fig1", seed=5)
    assert "FIG1" in text


def test_unknown_experiment_exits():
    """The library raises the typed lookup error; only main() exits."""
    with pytest.raises(UnknownExperiment, match="unknown experiment 'nonsense'; try one of"):
        run_experiment("nonsense")


def test_main_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "naive_vs_scoped" in out


def test_main_no_args_lists(capsys):
    assert main([]) == 0
    assert "experiments:" in capsys.readouterr().out


def test_main_runs_one(capsys):
    assert main(["time_scope"]) == 0
    assert "EXP-SCOPE-TIME" in capsys.readouterr().out


def test_main_runs_several_in_input_order(capsys):
    assert main(["time_scope", "fig4"]) == 0
    out = capsys.readouterr().out
    assert out.index("EXP-SCOPE-TIME") < out.index("FIG4")


def test_tables_carry_wall_clock_footer():
    assert "wall clock" in run_experiment("time_scope")


def test_main_jobs_parallel_stable_order(capsys):
    """--jobs fans out over processes; output order stays stable."""
    assert main(["fig4", "time_scope", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.index("FIG4") < out.index("EXP-SCOPE-TIME")


class TestJobsValidation:
    """--jobs rejects 0/negative/non-integer at argument parsing with a
    clear message, instead of falling through to a confusing
    ProcessPoolExecutor failure (shared ``positive_worker_count`` type)."""

    def _error_text(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, pre-run
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_jobs_zero_rejected_with_clear_error(self, capsys):
        err = self._error_text(capsys, ["fig4", "--jobs", "0"])
        assert "--jobs" in err and "must be >= 1" in err

    def test_jobs_negative_rejected(self, capsys):
        err = self._error_text(capsys, ["fig4", "--jobs", "-3"])
        assert "must be >= 1" in err

    def test_jobs_non_integer_rejected(self, capsys):
        err = self._error_text(capsys, ["fig4", "--jobs", "two"])
        assert "'two'" in err and "integer" in err

    def test_campaign_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--jobs", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--jobs" in err and "must be >= 1" in err

    def test_positive_worker_count_type(self):
        import argparse

        from repro.harness.parallel import positive_worker_count

        assert positive_worker_count("4") == 4
        for bad in ("0", "-1", "x", "1.5"):
            with pytest.raises(argparse.ArgumentTypeError):
                positive_worker_count(bad)


def test_unknown_experiment_among_several_exits():
    with pytest.raises(SystemExit):
        main(["fig4", "nonsense"])


class TestNameUsageErrors:
    """A name the run cannot honour is exit 2 naming it, before anything
    runs: an unknown name used to be a bare ``SystemExit`` (exit 1),
    ``all fig1`` answered "unknown experiment 'all'", and ``fig4 fig4
    --json`` printed two tables and wrote one entry."""

    @pytest.mark.parametrize("argv, needles", [
        (["nosuch"], ["unknown experiment 'nosuch'", "try one of: black_hole"]),
        (["fig4", "nosuch"], ["unknown experiment 'nosuch'"]),
        (["all", "fig1"], ["'all'", "all fig1"]),
        (["fig1", "all"], ["'all'", "fig1 all"]),
        (["fig4", "fig1", "fig4"], ["'fig4'", "2 times"]),
    ])
    def test_exit_2_naming_the_argument_before_anything_runs(
        self, capsys, monkeypatch, tmp_path, argv, needles
    ):
        from repro.harness import __main__ as cli

        ran = []
        monkeypatch.setattr(cli, "run_experiments", lambda *a, **k: ran.append(a))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--json", str(out)])
        assert excinfo.value.code == 2 and ran == [] and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert "unknown experiment 'all'" not in error
        for needle in needles:
            assert needle in error

    def test_a_worker_failure_is_one_error_line_and_exit_1(self, capsys, monkeypatch):
        from repro.harness import __main__ as cli
        from repro.harness.parallel import WorkerFailure

        def crash(*args, **kwargs):
            raise WorkerFailure("worker died on 'fig4'", ["fig4"])

        monkeypatch.setattr(cli, "run_experiments", crash)
        assert main(["fig4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: experiment worker failed: worker died on 'fig4'"
        ]


def test_list_reads_anchors_from_the_registry_and_names_both_subcommands(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = {line.split()[0]: " ".join(line.split()[1:]) for line in lines if line[:2] == "  "}
    for name, fn in EXPERIMENTS.items():
        assert listed[name] == fn.anchor
    assert listed["fig3"] == "FIG3" and listed["black_hole"] == "EXP-BH §5"
    assert {"campaign", "serve"} <= set(listed)


class TestTelemetryJobsConflict:
    """--trace/--metrics/--profile vs --jobs > 1 must fail early with an
    error naming exactly the flags in conflict (the old message blamed
    --trace/--metrics wholesale, even for a --profile-only invocation)."""

    def _error_text(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, pre-run
        # The last stderr line is the error itself (the preceding usage
        # block mentions every flag, conflicting or not).
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_trace_conflict_names_both_flags(self, capsys, tmp_path):
        err = self._error_text(
            capsys, ["fig4", "--trace", str(tmp_path / "t.jsonl"), "--jobs", "3"]
        )
        assert "--trace" in err
        assert "--jobs 3" in err
        assert "--metrics" not in err and "--profile" not in err

    def test_profile_conflict_names_profile(self, capsys, tmp_path):
        err = self._error_text(
            capsys, ["fig4", "--profile", str(tmp_path / "p.json"), "--jobs", "2"]
        )
        assert "--profile" in err and "--jobs 2" in err
        assert "--trace" not in err

    def test_all_three_flags_listed_together(self, capsys, tmp_path):
        err = self._error_text(
            capsys,
            ["fig4", "--trace", str(tmp_path / "t"), "--metrics",
             str(tmp_path / "m"), "--profile", str(tmp_path / "p"),
             "--jobs", "2"],
        )
        assert "--trace/--metrics/--profile" in err

    def test_telemetry_with_jobs_one_is_fine(self, capsys, tmp_path):
        assert main(["time_scope", "--profile", str(tmp_path / "p.json"),
                     "--jobs", "1"]) == 0


class TestProfileFlag:
    def test_profile_writes_report_and_prints_panel(self, capsys, tmp_path):
        import json

        path = tmp_path / "profile.json"
        assert main(["fig3", "--profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "where time went" in out
        assert "critical path" in out
        report = json.loads(path.read_text())
        assert report["schema"] == "repro-profile/1"
        assert report["sim"]["events"] > 0

    def test_profile_file_deterministic_after_wall_strip(self, tmp_path):
        import json

        from repro.obs.canonical import strip_wall

        reports = []
        for tag in ("a", "b"):
            path = tmp_path / f"p_{tag}.json"
            assert main(["fig3", "--profile", str(path)]) == 0
            reports.append(strip_wall(json.loads(path.read_text())))
        assert reports[0] == reports[1]


class TestUnwritableOutputs:
    """An output path nothing can be written at is a usage error before
    the first experiment runs (P4) -- it used to be a ``FileNotFoundError``
    / ``IsADirectoryError`` / ``sqlite3.OperationalError`` traceback after
    the last one, the results lost."""

    @pytest.mark.parametrize("flag, target, reason", [
        ("--trace", "missing/t.jsonl", "no such directory"),
        ("--json", "missing/r.json", "no such directory"),
        ("--metrics", "", "is a directory"),
        ("--results-db", "missing/r.db", "no such directory"),
    ])
    def test_exit_2_naming_flag_and_path_before_anything_runs(
        self, capsys, tmp_path, monkeypatch, flag, target, reason
    ):
        from repro.harness import __main__ as cli

        ran = []
        monkeypatch.setattr(cli, "run_experiments", lambda *a, **k: ran.append(a))
        path = str(tmp_path / target)
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", flag, path])
        assert excinfo.value.code == 2 and ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"{flag} {path}" in errors[0] and reason in errors[0]
        assert list(tmp_path.iterdir()) == []  # asking created nothing

    def test_an_existing_file_may_be_overwritten(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("stale")
        assert main(["fig4", "--json", str(path)]) == 0
        assert '"fig4"' in path.read_text()


def test_pool_less_experiment_ingests_its_empty_trace(tmp_path, capsys):
    """fig4 builds no pool, so its trace has no events: still a typed,
    complete ingest (payload + trace + metrics), not a crash after row 1."""
    from repro.obs.store import ResultsStore

    trace, metrics, db = (str(tmp_path / name) for name in ("t.jsonl", "m.json", "r.db"))
    assert main(["fig4", "--trace", trace, "--metrics", metrics, "--results-db", db]) == 0
    with ResultsStore(db) as store:
        runs = store.runs()
        assert [(r["kind"], r["source"]) for r in runs] == [
            ("harness", "harness:fig4"), ("trace", "t.jsonl"), ("metrics", "m.json"),
        ]
        assert store.payload(runs[1]["run_id"])["events"] == 0


def test_federation_experiments_parallel_byte_identical():
    """The PR's determinism acceptance: the churn and flocking
    experiments export byte-identical JSON whether run serially or
    fanned out over worker processes (wall clock stays out of ``data``)."""
    import json

    from repro.harness.__main__ import run_experiments

    names = ["churn", "flocking"]
    serial = run_experiments(names, seed=0, jobs=1)
    fanned = run_experiments(names, seed=0, jobs=4)
    blob = lambda records: json.dumps(
        {r["name"]: r["data"] for r in records}, sort_keys=True
    )
    assert blob(serial) == blob(fanned)
