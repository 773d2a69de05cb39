"""Delta debugging and reproducer replay."""

import json

import pytest

from repro.campaign.shrink import ddmin, minimize_cell, replay
from repro.campaign.spec import CampaignConfig, CellSpec, FaultSpec, enumerate_cells


class TestDdmin:
    def test_single_culprit_is_isolated(self):
        items = tuple(range(8))
        assert ddmin(items, lambda s: 5 in s) == (5,)

    def test_pair_of_culprits_is_isolated(self):
        items = tuple(range(8))
        result = ddmin(items, lambda s: 2 in s and 6 in s)
        assert sorted(result) == [2, 6]

    def test_result_is_one_minimal(self):
        items = tuple(range(10))
        culprits = {1, 4, 7}
        result = ddmin(items, lambda s: culprits <= set(s))
        assert set(result) == culprits
        for drop in result:
            remaining = tuple(x for x in result if x != drop)
            assert not culprits <= set(remaining)

    def test_everything_essential_returns_everything(self):
        items = (1, 2, 3)
        assert ddmin(items, lambda s: len(s) == 3) == items

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="precondition"):
            ddmin((1, 2), lambda s: False)

    def test_call_count_stays_polynomial(self):
        calls = 0

        def fails(subset):
            nonlocal calls
            calls += 1
            return 13 in subset

        ddmin(tuple(range(32)), fails)
        assert calls < 200  # ddmin is O(n^2) worst case; way under here


class TestMinimizeCell:
    def test_multi_fault_cell_shrinks_to_the_culprit(self):
        """MisconfiguredJvm drives the classic P1; HomeDiskFull is an
        innocent bystander (FILE scope, within contract) that must be
        shrunk away."""
        config = CampaignConfig(mode="classic", windows=((0.0, None),))
        cell = CellSpec(
            "classic/s0/pair", "classic", 0,
            (FaultSpec("MisconfiguredJvm", site="exec000"),
             FaultSpec("HomeDiskFull")),
        )
        spec = minimize_cell(cell, config)
        assert [inj["kind"] for inj in spec["injections"]] == ["MisconfiguredJvm"]
        assert spec["expect"]
        assert replay(spec)["reproduced"]

    def test_reproducer_spec_round_trips_through_json(self, tmp_path):
        config = CampaignConfig(
            mode="classic", kinds=("MisconfiguredJvm",), windows=((0.0, None),)
        )
        (cell,) = enumerate_cells(config)
        spec = minimize_cell(cell, config)
        path = tmp_path / "reproducer.json"
        path.write_text(json.dumps(spec))
        outcome = replay(str(path))
        assert outcome["reproduced"]
        assert outcome["violations"] == spec["expect"]

    def test_replay_detects_divergence(self):
        """A tampered expectation must not be reported as reproduced."""
        config = CampaignConfig(
            mode="classic", kinds=("MisconfiguredJvm",), windows=((0.0, None),)
        )
        (cell,) = enumerate_cells(config)
        spec = minimize_cell(cell, config)
        spec["expect"][0]["subject"] = "9.9"
        assert not replay(spec)["reproduced"]

    def test_replay_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not a campaign reproducer"):
            replay({"format": "something-else"})


class TestMalformedSpecIsOutsideInput:
    """P4 at the ``--replay`` boundary: whatever is wrong with a spec is
    the one ``ValueError`` (and one stderr line, exit 2, from the CLI) --
    never a bare ``KeyError`` or a decoder's traceback."""

    @pytest.fixture(scope="class")
    def good(self):
        config = CampaignConfig(
            mode="classic", kinds=("MisconfiguredJvm",), windows=((0.0, None),)
        )
        (cell,) = enumerate_cells(config)
        return minimize_cell(cell, config)

    def _rejected(self, spec, reason, tmp_path, capsys):
        """Both doors: the library raises, the CLI prints one line and exits 2."""
        from repro.campaign.cli import main

        with pytest.raises(ValueError, match="not a campaign reproducer spec: " + reason):
            replay(spec)
        if not isinstance(spec, str):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        assert main(["--replay", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("not a campaign reproducer spec: ")

    def test_missing_field(self, good, tmp_path, capsys):
        spec = {k: v for k, v in good.items() if k != "mode"}
        self._rejected(spec, "missing field 'mode'", tmp_path, capsys)

    def test_ill_typed_field(self, good, tmp_path, capsys):
        self._rejected({**good, "seed": "x"}, "field 'seed': invalid literal", tmp_path, capsys)

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        self._rejected(str(path), "not JSON: ", tmp_path, capsys)

    def test_unreadable_file(self, tmp_path, capsys):
        self._rejected(str(tmp_path / "absent.json"), "unreadable file: ", tmp_path, capsys)

    @pytest.mark.parametrize("edit, reason", [
        ({"injections": [{"kind": "NoSuchFault"}]}, "field 'injections': unknown fault kind"),
        ({"injections": [{"kind": "FlockLinkDown"}]}, "field 'injections': .*need --federation"),
        ({"injections": "MisconfiguredJvm"}, "field 'injections': "),
        ({"injections": [{"site": "exec000"}]}, "missing field 'kind'"),
        ({"mode": "chaotic"}, "field 'mode': error_mode must be"),
        ({"max_time": None}, "field 'max_time': "),
        ({"expect": [{"principle": 1}]}, "missing field 'subject'"),
        ({"expect": [7]}, "field 'expect': "),
        # Checked against the spec's own config: each used to escape as a
        # bare KeyError, or a silent run of a different cell.
        ({"n_machines": 0}, "field 'n_machines': must be >= 1"),
        ({"n_jobs": 0}, "field 'n_jobs': must be >= 1"),
        ({"injections": [{"kind": "MisconfiguredJvm", "site": "exec007"}]},
         "field 'injections': MisconfiguredJvm: bad site target 'exec007'"),
        ({"injections": [{"kind": "CorruptProgramImage", "job_index": 9}]},
         "field 'injections': CorruptProgramImage: bad job target 9"),
    ])
    def test_other_ways_to_be_wrong(self, good, edit, reason, tmp_path, capsys):
        self._rejected({**good, **edit}, reason, tmp_path, capsys)

    def test_a_json_document_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self._rejected(str(path), "format: a JSON list", tmp_path, capsys)

    def test_the_good_spec_still_replays(self, good):
        assert replay(good)["reproduced"]
        assert replay({k: v for k, v in good.items() if k != "cell"})["cell"] == "replay"
