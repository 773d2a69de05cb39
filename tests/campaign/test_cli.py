"""The ``campaign`` subcommand of ``python -m repro.harness``."""

import json

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.spec import CATALOGUE, CampaignConfig, enumerate_cells
from repro.campaign.shrink import minimize_cell
from repro.harness.__main__ import main as harness_main

FAST = ["--kinds", "MisconfiguredJvm,CredentialExpiry"]


def test_harness_dispatches_campaign_subcommand(capsys):
    assert harness_main(["campaign", "--list-kinds"]) == 0
    out = capsys.readouterr().out
    assert "fault catalogue:" in out


def test_list_kinds_covers_the_catalogue(capsys):
    assert campaign_main(["--list-kinds"]) == 0
    out = capsys.readouterr().out
    for info in CATALOGUE:
        assert info.kind in out


def test_scoped_campaign_prints_clean_summary(capsys):
    assert campaign_main(FAST) == 0
    out = capsys.readouterr().out
    assert "MisconfiguredJvm" in out
    assert "wall clock" in out
    assert "0 violations" in out


def test_classic_campaign_reports_violations(capsys):
    assert campaign_main(FAST + ["--mode", "classic"]) == 0
    out = capsys.readouterr().out
    assert "violation" in out


def test_profile_flag_renders_per_cell_time_tables(capsys):
    assert campaign_main(FAST + ["--profile"]) == 0
    out = capsys.readouterr().out
    assert "where time went:" in out
    assert "total " in out and "events" in out


def test_unprofiled_campaign_prints_no_time_tables(capsys):
    assert campaign_main(FAST) == 0
    assert "where time went" not in capsys.readouterr().out


def test_json_report_is_written_and_canonical(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert campaign_main(FAST + ["--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["campaign"]["mode"] == "scoped"
    assert report["totals"]["violations"] == 0
    assert "wall" not in path.read_text()


def test_fail_fast_exits_nonzero_on_classic(capsys):
    code = campaign_main(
        ["--kinds", "MisconfiguredJvm", "--mode", "classic", "--fail-fast"]
    )
    assert code == 1
    assert "fail-fast" in capsys.readouterr().out


def test_replay_subcommand_round_trips(tmp_path, capsys):
    config = CampaignConfig(
        mode="classic", kinds=("MisconfiguredJvm",), windows=((0.0, None),)
    )
    (cell,) = enumerate_cells(config)
    spec = minimize_cell(cell, config)
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(spec))
    assert campaign_main(["--replay", str(path)]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_bad_jobs_rejected():
    with pytest.raises(SystemExit):
        campaign_main(["--jobs", "0"])


@pytest.mark.parametrize("argv, runner, flag", [
    (FAST, "run_campaign", "--json"),
    (FAST, "run_campaign", "--results-db"),
    (["fuzz", "--budget-cells", "8"], "run_fuzz", "--json"),
    (["fuzz", "--budget-cells", "8"], "run_fuzz", "--checkpoint"),
])
def test_unwritable_output_is_exit_2_before_the_first_cell(
    capsys, monkeypatch, tmp_path, argv, runner, flag
):
    """It used to run the whole sweep, then die with a FileNotFoundError
    traceback (exit 1), the report lost."""
    import repro.campaign.cli as cli
    import repro.campaign.fuzz as fuzz

    ran = []
    monkeypatch.setattr(
        cli if runner == "run_campaign" else fuzz, runner, lambda *a, **k: ran.append(a)
    )
    path = str(tmp_path / "missing" / "out")
    with pytest.raises(SystemExit) as excinfo:
        campaign_main([*argv, flag, path])
    assert excinfo.value.code == 2 and ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert f"{flag} {path}: no such directory" in error
    assert list(tmp_path.iterdir()) == []


def test_bad_order_rejected():
    with pytest.raises(SystemExit):
        campaign_main(["--order", "0"])


FUZZ_FAST = ["fuzz", "--mode", "classic", "--seed", "7",
             "--budget-cells", "16", "--batch-size", "8"]


def test_harness_dispatches_fuzz_subcommand(capsys):
    assert harness_main(["campaign", *FUZZ_FAST, "--no-shrink"]) == 0
    out = capsys.readouterr().out
    assert "fuzz campaign: mode=classic seed=7" in out
    assert "wall clock" in out


def test_fuzz_json_report_is_written_and_canonical(tmp_path, capsys):
    path = tmp_path / "fuzz.json"
    assert campaign_main(
        FUZZ_FAST + ["--no-shrink", "--json", str(path)]
    ) == 0
    report = json.loads(path.read_text())
    assert report["format"] == "repro-campaign-fuzz/1"
    assert report["totals"]["cells"] == 16
    assert "wall" not in path.read_text()


def test_fuzz_resume_from_cli_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert campaign_main(
        FUZZ_FAST + ["--no-shrink", "--checkpoint", str(ckpt)]
    ) == 0
    # a finished checkpoint resumes into an already-exhausted budget
    assert campaign_main(["fuzz", "--resume", str(ckpt), "--no-shrink"]) == 0
    assert "fuzz campaign: mode=classic seed=7" in capsys.readouterr().out


def test_fuzz_bad_budget_rejected():
    with pytest.raises(SystemExit):
        campaign_main(["fuzz", "--budget-cells", "0"])


def _usage_error(capsys, monkeypatch, argv) -> str:
    """Run *argv*; assert exit 2 before any cell, one ``error:`` line on
    stderr and no traceback; return that line."""
    import repro.campaign.cli as cli
    import repro.campaign.fuzz as fuzz

    ran = []
    monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **k: ran.append(a))
    with pytest.raises(SystemExit) as excinfo:
        campaign_main(argv)
    assert excinfo.value.code == 2 and ran == []
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (error,) = [line for line in captured.err.splitlines() if "error:" in line]
    return error


@pytest.mark.parametrize("content", [None, "{not json", '{"format": "x"}', "[1, 2]",
                                     '{"format": "repro-campaign-fuzz-checkpoint/1"}'])
def test_a_bad_resume_file_is_exit_2_before_the_first_cell(
    capsys, monkeypatch, tmp_path, content
):
    """It used to end in a FileNotFoundError / JSONDecodeError / ValueError
    traceback (exit 1)."""
    path = tmp_path / "ckpt.json"
    if content is not None:
        path.write_text(content)
    error = _usage_error(capsys, monkeypatch, ["fuzz", "--resume", str(path)])
    assert f"--resume {path}: not a fuzz checkpoint" in error


@pytest.mark.parametrize("argv, why", [
    (["--kinds", "Bogus"], "unknown fault kind(s) ['Bogus']"),
    (["fuzz", "--kinds", "Bogus"], "unknown fault kind(s) ['Bogus']"),
    (["--kinds", "FlockLinkDown"], "need --federation"),
    (["fuzz", "--kinds", "FlockLinkDown"], "need --federation"),
])
def test_kinds_the_catalogue_cannot_select_are_exit_2(capsys, monkeypatch, argv, why):
    """They used to die as a ValueError traceback (exit 1)."""
    error = _usage_error(capsys, monkeypatch, argv)
    assert "--kinds" in error and why in error


def test_kinds_that_need_federation_run_with_it(monkeypatch):
    import repro.campaign.cli as cli

    ran = []
    monkeypatch.setattr(cli, "run_campaign", lambda config, **k: ran.append(config) or {})
    monkeypatch.setattr(cli, "render_summary", lambda report: "")
    assert campaign_main(["--kinds", "FlockLinkDown", "--federation"]) == 0
    assert ran[0].kinds == ("FlockLinkDown",) and ran[0].federation
