"""Counted work of a campaign: every distinct cell is simulated once.

A cell record is a function of (:attr:`CellSpec.key`, config), so the
shrinker reads the records a campaign already holds instead of
simulating those cells again (DESIGN §3.6e).  The wall-clock side of
that claim lives in gridbench; this is its tier-1 gate, in the spirit of
``tests/condor/test_negotiation_work.py``: exact counts, no clock.

Every campaign here runs twice -- as shipped, and with the shrinker's
lookup forced to miss, which is the shrinker as it was before it read
anything (one fresh simulation per probe).  The forced-miss run is the
reference: the reports must be byte-identical, and only the number of
simulations may differ.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import engine, shrink
from repro.campaign.engine import run_campaign, run_cell_record
from repro.campaign.fuzz import FuzzConfig, run_fuzz
from repro.campaign.shrink import minimize_cell, replay
from repro.campaign.spec import CampaignConfig, CellSpec, FaultSpec, enumerate_cells
from repro.obs.canonical import canonical_json, strip_wall

FUZZ = FuzzConfig(campaign=CampaignConfig(mode="naive", seed=7), budget_cells=40)
MATRIX = CampaignConfig(
    mode="naive", max_order=2,
    kinds=("MisconfiguredJvm", "ScratchDiskFull", "HomeFilesystemOffline",
           "CredentialExpiry", "CorruptProgramImage"),
)


def _fuzz(tmp_path):
    return run_fuzz(FUZZ)


def _fuzz_resumed(tmp_path):
    checkpoint = str(tmp_path / "checkpoint.json")
    run_fuzz(FUZZ, shrink=False, checkpoint=checkpoint, stop_after_batch=0)
    return run_fuzz(FUZZ, resume=checkpoint)


def _matrix(tmp_path):
    return run_campaign(MATRIX)


def _always_simulate(probe, config, records):
    return run_cell_record(probe, config)


def _counted(campaign, tmp_path, forget: bool = False):
    """Run *campaign*; return (report, key of every cell simulated)."""
    simulated = []
    real = engine._run_cell

    def counting(cell, *args):
        simulated.append(cell.key)
        return real(cell, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_run_cell", counting)
        if forget:
            patch.setattr(shrink, "_record_of", _always_simulate)
        report = campaign(tmp_path)
    return report, simulated


@pytest.fixture(scope="module", params=[_fuzz, _fuzz_resumed, _matrix],
                ids=["fuzz", "fuzz-resumed", "matrix"])
def both(request, tmp_path_factory):
    """One campaign as shipped and with the lookup forced to miss."""
    kept = _counted(request.param, tmp_path_factory.mktemp("kept"))
    reference = _counted(request.param, tmp_path_factory.mktemp("reference"), forget=True)
    return kept, reference


def _reproducers(report) -> list[dict]:
    if "reproducers" in report:  # a fuzz report
        return [entry["spec"] for entry in report["reproducers"]]
    return [c["reproducer"] for c in report["cells"] if c["reproducer"] is not None]


class TestEveryCellIsSimulatedOnce:
    def test_executions_equal_distinct_keys(self, both):
        (report, simulated), (_, reference) = both
        assert len(simulated) == len(set(simulated))
        # The campaign's own cells are all there; the rest are the
        # shrink probes no campaign cell answered.
        assert len(simulated) >= len(report["cells"])
        # Not vacuous: the reference repeats itself, over the same cells.
        assert len(reference) > len(set(reference))
        assert set(reference) == set(simulated)

    def test_report_is_byte_identical_to_the_forced_miss_run(self, both):
        (report, _), (reference, _) = both
        assert canonical_json(strip_wall(report)) == canonical_json(strip_wall(reference))

    def test_every_reproducer_replays_in_a_fresh_simulation(self, both):
        (report, _), _ = both
        specs = _reproducers(report)
        assert specs
        for spec in specs:
            assert replay(spec)["reproduced"], spec["cell"]

    def test_a_spec_never_aliases_a_report_row(self, both):
        (report, _), _ = both
        rows = {id(cell["violations"]) for cell in report["cells"]}
        assert all(id(spec["expect"]) not in rows for spec in _reproducers(report))


def test_resumed_campaign_reports_what_the_uninterrupted_one_does(tmp_path):
    assert _fuzz_resumed(tmp_path) == _fuzz(tmp_path)


class TestWhatIsNeverServed:
    CONFIG = CampaignConfig(mode="naive", kinds=("MisconfiguredJvm",), windows=((0.0, None),))

    def test_a_record_with_an_error_is_simulated_again(self):
        (cell,) = enumerate_cells(self.CONFIG)
        crashed = {**run_cell_record(cell, self.CONFIG), "violations": [],
                   "error": {"stage": "simulate", "type": "KeyError", "message": "x"}}
        records = {cell.key: crashed}
        spec = minimize_cell(cell, self.CONFIG, records=records)
        assert spec["expect"] and replay(spec)["reproduced"]
        assert records[cell.key] is not crashed and records[cell.key]["error"] is None

    def test_a_probe_of_a_crashing_cell_still_raises(self):
        cell = CellSpec("bad", "naive", 0, (FaultSpec("MachineCrash", site="nowhere"),))
        recorded = run_cell_record(cell, self.CONFIG, on_error="record")
        assert recorded["error"]["type"] == "KeyError"
        with pytest.raises(KeyError):
            minimize_cell(cell, self.CONFIG, records={cell.key: recorded})

    def test_standalone_shrink_simulates_no_cell_twice(self, tmp_path):
        config = CampaignConfig(mode="naive")
        cell = CellSpec("triple", "naive", 0, (
            FaultSpec("HomeDiskFull"),
            FaultSpec("MisconfiguredJvm", site="exec000"),
            FaultSpec("CredentialExpiry"),
        ))
        spec, simulated = _counted(lambda _: minimize_cell(cell, config), tmp_path)
        assert len(simulated) == len(set(simulated)) >= 2
        assert cell.key in simulated  # the precondition run, and only it
        assert replay(spec)["reproduced"]

    @pytest.mark.parametrize("change", [{"seed": 1}, {"n_jobs": 2}], ids=["seed", "n_jobs"])
    def test_two_campaigns_in_one_process_share_nothing(self, change, tmp_path):
        """The key does not cover the config, so no record may outlive
        the call that made it: the service runs many configs per process."""
        first = CampaignConfig(mode="naive", kinds=("MisconfiguredJvm", "CredentialExpiry"),
                               max_order=2)
        second = replace(first, **change)
        alone, alone_cells = _counted(lambda _: run_campaign(second), tmp_path)
        (_, after), cells = _counted(
            lambda _: (run_campaign(first), run_campaign(second)), tmp_path
        )
        assert after == alone
        assert cells[-len(alone_cells):] == alone_cells  # every cell, simulated again


def test_cell_key_is_the_simulation_inputs_and_not_the_label():
    injections = (FaultSpec("HomeDiskFull"), FaultSpec("CredentialExpiry", at=30.0))
    cell = CellSpec("a-label", "naive", 3, injections)
    assert cell.key == CellSpec("another", "naive", 3, injections).key
    assert cell.key == cell.with_injections(injections).key
    assert cell.key != CellSpec("a-label", "scoped", 3, injections).key
    assert cell.key != CellSpec("a-label", "naive", 4, injections).key
    assert cell.key != cell.with_injections(injections[::-1]).key  # order is event order
    assert cell.key != cell.with_injections(injections[:1]).key
    assert CellSpec.from_dict(cell.as_dict()).key == cell.key  # the checkpoint round trip


def test_keys_never_reach_a_checkpoint(tmp_path):
    """``executed``, ``pending`` and ``probe_meta`` are keyed by
    :attr:`CellSpec.key`, and none of them is written: a checkpoint holds
    cells and records, so its bytes do not depend on the key's form."""
    path = tmp_path / "checkpoint.json"
    run_fuzz(FUZZ, shrink=False, checkpoint=str(path), stop_after_batch=0)
    data = json.loads(path.read_text())
    assert sorted(data) == [
        "all_principles_at", "batch", "campaign", "corpus", "coverage",
        "first_violation_at", "format", "fuzz", "hits", "probes", "records",
        "violation_signatures",
    ]
    assert data["probes"]
    for entry in data["probes"]:
        assert sorted(entry) == ["cell", "features", "stage"]
        assert sorted(entry["cell"]) == ["cell_id", "injections", "mode", "seed"]
