"""One codec per campaign shape: ``CampaignConfig`` / ``FuzzConfig``.

Each validates itself on construction (one ``ConfigError`` naming the
field), writes its dict form with ``as_dict`` and reads any subset of it
back with ``from_dict``.  The report header, the checkpoint, the
reproducer spec, the service spec and both CLIs all go through them.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.fuzz import CHECKPOINT_FORMAT, FuzzConfig, load_checkpoint
from repro.campaign.spec import CATALOGUE, CampaignConfig, ConfigError
from repro.obs.canonical import canonical_json

SRC = Path(__file__).resolve().parents[2] / "src"


@st.composite
def campaign_configs(draw):
    federation = draw(st.booleans())
    selectable = [info.kind for info in CATALOGUE if federation or not info.needs_federation]
    window = st.tuples(
        st.floats(0, 1e4), st.none() | st.floats(1e-3, 1e4)
    ).map(lambda w: (w[0], None if w[1] is None else w[0] + w[1]))
    return CampaignConfig(
        mode=draw(st.sampled_from(("scoped", "naive", "classic"))),
        seed=draw(st.integers(-(2**31), 2**31)),
        n_jobs=draw(st.integers(1, 64)),
        n_machines=draw(st.integers(1, 64)),
        max_order=draw(st.integers(1, 4)),
        windows=tuple(draw(st.lists(window, max_size=4))),
        kinds=draw(st.none() | st.lists(st.sampled_from(selectable), min_size=1,
                                        unique=True).map(tuple)),
        sites=tuple(draw(st.lists(st.sampled_from(("exec000", "exec001", "exec002")),
                                  min_size=1, unique=True))),
        job_indices=tuple(draw(st.lists(st.integers(0, 16), min_size=1, unique=True))),
        max_retries=draw(st.integers(0, 12)),
        max_time=draw(st.floats(1e-3, 1e9)),
        federation=federation,
        defenses=draw(st.booleans()),
    )


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(config=campaign_configs())
    def test_campaign_config_reads_back_its_own_json(self, config):
        assert CampaignConfig.from_dict(config.as_dict()) == config
        stored = json.loads(canonical_json(config.as_dict()))
        assert CampaignConfig.from_dict(stored) == config

    @settings(max_examples=40, deadline=None)
    @given(config=campaign_configs(), budget=st.integers(1, 999),
           batch=st.integers(1, 64), order=st.integers(1, 5))
    def test_fuzz_config_reads_back_its_own_json(self, config, budget, batch, order):
        fuzz = FuzzConfig(campaign=config, budget_cells=budget, batch_size=batch,
                          order_max=order)
        assert FuzzConfig.from_dict(json.loads(canonical_json(fuzz.as_dict()))) == fuzz

    def test_a_subset_takes_the_defaults(self):
        assert CampaignConfig.from_dict({}) == CampaignConfig()
        assert CampaignConfig.from_dict({"seed": 3}) == CampaignConfig(seed=3)
        assert FuzzConfig.from_dict({"fuzz": {"budget_cells": 8}}) == FuzzConfig(budget_cells=8)

    def test_the_header_keeps_its_keys(self):
        """The report header every campaign and fuzz artifact carries."""
        assert list(CampaignConfig().as_dict()) == [
            "mode", "seed", "n_jobs", "n_machines", "max_order", "max_retries",
            "max_time", "windows", "kinds", "sites", "job_indices", "federation",
            "defenses",
        ]


@pytest.mark.parametrize("data, field", [
    ({"mode": "chaotic"}, "mode"),
    ({"mode": None}, "mode"),
    ({"seed": "x"}, "seed"),
    ({"n_jobs": 0}, "n_jobs"),
    ({"n_jobs": -3}, "n_jobs"),
    ({"n_machines": 0}, "n_machines"),
    ({"max_order": 0}, "max_order"),
    ({"max_retries": -1}, "max_retries"),
    ({"max_time": 0}, "max_time"),
    ({"max_time": None}, "max_time"),
    ({"windows": [[50, 10]]}, "windows"),
    ({"windows": [[30, 30]]}, "windows"),
    ({"windows": [[-1, None]]}, "windows"),
    ({"windows": [[5]]}, "windows"),
    ({"kinds": ["Bogus"]}, "kinds"),
    ({"kinds": ["FlockLinkDown"]}, "kinds"),
    ({"job_indices": ["a"]}, "job_indices"),
    ({"fail_fast": True}, "fail_fast"),  # not part of the dict form
    ({"colour": "red"}, "colour"),
    ({"kinds": []}, "kinds"),
])
def test_each_bad_field_is_one_config_error_naming_it(data, field):
    with pytest.raises(ConfigError) as excinfo:
        CampaignConfig.from_dict(data)
    assert excinfo.value.field == field
    assert str(excinfo.value).startswith(f"field {field!r}: ")


@pytest.mark.parametrize("fuzz, field", [
    ({"budget_cells": 0}, "budget_cells"),
    ({"batch_size": -1}, "batch_size"),
    ({"order_max": "three"}, "order_max"),
])
def test_each_bad_fuzz_field_is_one_config_error_naming_it(fuzz, field):
    with pytest.raises(ConfigError) as excinfo:
        FuzzConfig.from_dict({"fuzz": fuzz})
    assert excinfo.value.field == field


def test_construction_validates_too():
    with pytest.raises(ConfigError, match="field 'n_machines': must be >= 1"):
        CampaignConfig(n_machines=0)


class TestCheckpointShape:
    def _checkpoint(self, tmp_path, **campaign) -> str:
        data = {"format": CHECKPOINT_FORMAT, **FuzzConfig().as_dict()}
        data["campaign"].update(campaign)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_a_section_missing_a_key_is_not_a_checkpoint(self, tmp_path):
        path = self._checkpoint(tmp_path)
        data = json.loads(Path(path).read_text())
        del data["campaign"]["max_time"]
        Path(path).write_text(json.dumps(data))
        with pytest.raises(ValueError, match="not a fuzz checkpoint: config: .*does not match"):
            load_checkpoint(path)

    def test_a_good_shape_loads(self, tmp_path):
        config, _ = load_checkpoint(self._checkpoint(tmp_path, seed=7, mode="naive"))
        assert config == FuzzConfig(campaign=CampaignConfig(seed=7, mode="naive"))


def test_one_codec_per_campaign_shape():
    """Under ``src/`` a campaign config is built from a dict only in the
    classes' own ``from_dict``: no other call of either constructor, and
    the readers the codec replaced are gone."""
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for name in ("campaign_section", "_SPEC_FIELDS", "_KIND_NAMES"):
            assert name not in text, f"{path}: {name}"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("CampaignConfig", "FuzzConfig"), (
                    f"{path.relative_to(SRC)}:{node.lineno} builds a campaign config "
                    "outside from_dict"
                )
