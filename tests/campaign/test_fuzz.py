"""The coverage-guided fuzzer: smoke, report schema, error normalization."""

import json

import pytest

from repro.campaign.engine import run_cell_record
from repro.campaign.fuzz import (
    CHECKPOINT_FORMAT,
    FORMAT,
    FuzzConfig,
    load_checkpoint,
    run_fuzz,
)
from repro.campaign.report import render_fuzz_summary
from repro.campaign.spec import CampaignConfig, CellSpec, FaultSpec, MutationSpace
from repro.harness.parallel import WorkerFailure
from repro.obs.export import dump_json


def _config(mode="classic", seed=7, budget=24, batch=8, **kw):
    return FuzzConfig(
        campaign=CampaignConfig(mode=mode, seed=seed),
        budget_cells=budget,
        batch_size=batch,
        **kw,
    )


@pytest.fixture(scope="module")
def smoke_report():
    """One tiny classic-mode campaign shared by the smoke assertions."""
    return run_fuzz(_config(), shrink=False)


class TestSmoke:
    def test_classic_tiny_budget_finds_known_violations(self, smoke_report):
        # The CI smoke gate: even 24 cells in classic mode must trip the
        # P1 exit-code masking the exhaustive campaign pinned in PR 3.
        assert smoke_report["totals"]["violations"] > 0
        features = smoke_report["violations"]["signatures"]
        assert any(f.startswith("viol:P1:") for f in features)

    def test_report_format_and_sections(self, smoke_report):
        assert smoke_report["format"] == FORMAT
        assert smoke_report["campaign"]["mode"] == "classic"
        assert smoke_report["campaign"]["seed"] == 7
        fuzz = smoke_report["fuzz"]
        assert fuzz["budget_cells"] == 24
        assert fuzz["batch_size"] == 8
        assert set(fuzz["mutators"]) >= {"add", "crossover", "escalate", "drop"}
        for section in ("cells", "coverage", "corpus", "violations",
                        "reproducers", "totals"):
            assert section in smoke_report

    def test_budget_is_respected(self, smoke_report):
        assert smoke_report["totals"]["cells"] == 24
        assert len(smoke_report["cells"]) == 24

    def test_bootstrap_is_clean_cell_plus_singles(self, smoke_report):
        first = smoke_report["cells"][0]
        assert first["injections"] == []
        catalogue = {info.kind for info in CampaignConfig(mode="classic").catalogue()}
        for record in smoke_report["cells"][1:8]:
            assert len(record["injections"]) == 1
            assert record["injections"][0]["kind"] in catalogue
            assert record["injections"][0]["until"] is None

    def test_order_never_exceeds_order_max(self, smoke_report):
        for record in smoke_report["cells"]:
            assert len(record["injections"]) <= 3

    def test_every_record_carries_fuzz_fields(self, smoke_report):
        for record in smoke_report["cells"]:
            assert isinstance(record["signature"], list)
            assert isinstance(record["batch"], int)
            assert isinstance(record["novel"], list)
            assert "probe" in record

    def test_coverage_and_corpus_are_consistent(self, smoke_report):
        novel_cells = [r for r in smoke_report["cells"] if r["novel"]]
        assert smoke_report["totals"]["corpus"] == len(novel_cells)
        first_seen = smoke_report["coverage"]["first_seen"]
        assert smoke_report["totals"]["features"] == len(first_seen)
        # every novel feature's provenance names the cell that found it
        for record in novel_cells:
            for feature in record["novel"]:
                assert first_seen[feature]["cell"] == record["cell"]

    def test_report_is_json_serializable_canonically(self, smoke_report, tmp_path):
        path = tmp_path / "fuzz.json"
        dump_json(path, smoke_report)
        assert json.loads(path.read_text())["format"] == FORMAT

    def test_acceptance_budget_covers_every_principle_early_and_deep(self):
        """Classic mode, seed 7, 200 cells: all four principles in a tenth
        of the 103-cell exhaustive order-2 sweep, and ddmin confirms an
        order-3 1-minimal reproducer."""
        report = run_fuzz(_config(budget=200, batch=FuzzConfig().batch_size))
        assert report["totals"]["cells"] == 200
        assert report["violations"]["principles"] == [1, 2, 3, 4]
        assert report["violations"]["all_principles_at"] * 10 <= 103
        assert report["totals"]["max_minimal_order"] >= 3

    def test_summary_renders(self, smoke_report):
        text = render_fuzz_summary(smoke_report)
        assert "fuzz campaign: mode=classic seed=7" in text
        assert "first violation at cell" in text


class TestConfigValidation:
    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_cells"):
            FuzzConfig(budget_cells=0)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            FuzzConfig(batch_size=0)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="order_max"):
            FuzzConfig(order_max=0)

    def test_space_excludes_federation_kinds_on_solitary_pool(self):
        space = MutationSpace.from_config(_config().campaign, order_max=3)
        assert "FlockLinkDown" not in {info.kind for info in space.kinds}
        federated = MutationSpace.from_config(
            CampaignConfig(mode="classic", federation=True), order_max=3
        )
        assert "FlockLinkDown" in {info.kind for info in federated.kinds}


class TestCellErrorRecord:
    """A raising cell becomes a structured record, not a dead campaign."""

    def _broken_cell(self):
        # MemoryPressure resolves its machine during fault *setup*; a
        # nonexistent site makes build_fault raise before simulation.
        spec = FaultSpec(kind="MemoryPressure", site="exec999")
        return CellSpec("classic/s0/broken", "classic", 0, (spec,))

    def test_on_error_record_normalizes_setup_raise(self):
        record = run_cell_record(
            self._broken_cell(), CampaignConfig(mode="classic"),
            features=True, on_error="record",
        )
        assert record["error"]["stage"] == "setup"
        assert record["error"]["type"] == "KeyError"
        # the row still names the faults that broke it
        assert record["injections"][0]["kind"] == "MemoryPressure"
        assert record["violations"] == []
        assert record["signature"] == ["cell-error:setup:KeyError"]

    def test_default_on_error_still_raises_the_original(self):
        with pytest.raises(KeyError):
            run_cell_record(self._broken_cell(), CampaignConfig(mode="classic"))

    def test_fuzz_campaign_survives_error_cells(self):
        # Churn composed with same-site faults raises inside the sim;
        # the campaign must absorb those as cell-error coverage, and the
        # error count must reconcile with the per-cell records.
        report = run_fuzz(_config(budget=40), shrink=False)
        errored = [r for r in report["cells"] if r["error"] is not None]
        assert report["totals"]["errors"] == len(errored)
        for record in errored:
            assert record["signature"][0].startswith("cell-error:")


class TestCheckpointLoading:
    def test_load_checkpoint_round_trips_config(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_fuzz(_config(budget=16), shrink=False,
                 checkpoint=str(path), stop_after_batch=0)
        config, data = load_checkpoint(str(path))
        assert config == _config(budget=16)
        assert data["format"] == CHECKPOINT_FORMAT
        assert data["batch"] == 1

    @pytest.mark.parametrize("edit, field", [
        ({"windows": [[50, 10]]}, "windows"),
        ({"n_jobs": -3}, "n_jobs"),
    ])
    def test_a_bad_config_shape_is_not_a_checkpoint(self, tmp_path, edit, field):
        """Both used to load without complaint."""
        path = tmp_path / "ckpt.json"
        run_fuzz(_config(budget=8), shrink=False, checkpoint=str(path), stop_after_batch=0)
        data = json.loads(path.read_text())
        data["campaign"].update(edit)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"not a fuzz checkpoint: config: field '{field}'"):
            load_checkpoint(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(ValueError, match="not a fuzz checkpoint"):
            load_checkpoint(str(path))

    def test_resume_with_mismatched_config_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_fuzz(_config(budget=16), shrink=False,
                 checkpoint=str(path), stop_after_batch=0)
        other = _config(mode="scoped", budget=16)
        with pytest.raises(ValueError, match="does not match"):
            run_fuzz(other, resume=str(path))


def test_worker_failure_stays_explicit():
    """The fuzzer rides ParallelRunner's failure contract: fan-out holes
    surface as WorkerFailure, never as silently shorter reports."""
    assert issubclass(WorkerFailure, RuntimeError)
