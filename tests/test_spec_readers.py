"""One spec reader: every stored or submitted spec is read by ``read_fields``.

Each codec's ``from_dict`` takes exact JSON types only -- an integer field
takes no ``true`` and no ``0.5``, a number no ``"1"``, a bool no ``1`` or
``"false"``, a string no ``1`` -- and a wrong one is a ``ConfigError`` whose
``field`` names the field, never a coerced value.  A float field widens an
integer to a float and nothing else.  Structurally: every ``from_dict``
under ``src/repro`` is ``repro.boundary.Spec.from_dict`` over the codec's
``READERS`` (or reads through ``read_fields`` itself, or hands each item to
a codec), and the service writes no type check itself.
"""

import ast
import dataclasses
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boundary import BadRequest, BoundaryError, ConfigError, Spec
from repro.campaign.corpus import CorpusEntry
from repro.campaign.coverage import FirstSeen
from repro.campaign.fuzz import FuzzConfig
from repro.campaign.spec import CampaignConfig, CellSpec, FaultSpec
from repro.harness.experiments import EXPERIMENTS, ExperimentSpec
from repro.obs.canonical import canonical_json
from repro.service import RunStore, ServiceApi, ServiceConfig, mint_token
from repro.service.specs import JobSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Wrong JSON values per field type; an optional field (``?``) takes null.
WRONG = {
    "int": (True, False, 0.5, 1.0, "1", [1], {"a": 1}),
    "float": (True, "1.5", "x", [1.0], {"a": 1.0}),
    "bool": (1, 0, "false", "x", [True], {"a": True}),
    "str": (1, 0.5, True, ["x"], {"a": "x"}),
    "list": ("x", 1, True, {"a": 1}),
    "object": ("x", 1, True, [1]),
    "name": (1, True, ["fig4"], {"a": 1}, "nosuch"),  # a registered experiment name
}

CELL = {"cell_id": "c", "mode": "scoped", "seed": 0, "injections": []}

#: (codec, from_dict, a valid base, {field: type}) for every codec in src/.
CODECS = [
    ("CampaignConfig", CampaignConfig.from_dict, {}, {
        "mode": "str", "seed": "int", "n_jobs": "int", "n_machines": "int",
        "max_order": "int", "max_retries": "int", "max_time": "float", "windows": "list",
        "kinds": "list?", "sites": "list", "job_indices": "list", "federation": "bool",
        "defenses": "bool",
    }),
    ("FuzzConfig", lambda fuzz: FuzzConfig.from_dict({"fuzz": fuzz}), {},
     dict.fromkeys(("budget_cells", "batch_size", "order_max"), "int")),
    ("FaultSpec", FaultSpec.from_dict, {"kind": "MachineCrash"}, {
        "kind": "str", "site": "str?", "job_index": "int?", "at": "float", "until": "float?",
    }),
    ("CellSpec", CellSpec.from_dict, CELL,
     {"cell_id": "str", "mode": "str", "seed": "int", "injections": "list"}),
    ("FirstSeen", FirstSeen.from_dict, {"batch": 0, "index": 0, "cell": "c"},
     {"batch": "int", "index": "int", "cell": "str"}),
    ("CorpusEntry", CorpusEntry.from_dict,
     {"cell": CELL, "signature": [], "novel": [], "batch": 0, "violations": 0},
     {"cell": "object", "signature": "list", "novel": "list", "batch": "int",
      "violations": "int"}),
    ("ExperimentSpec", ExperimentSpec.from_dict, {"experiment": "fig4"},
     {"experiment": "name", "seed": "int"}),
    ("JobSpec", JobSpec.from_dict, {"work": 1.0},
     {"work": "float", "exception": "str?", "exit_code": "int"}),
]

ROWS = [
    pytest.param(read, {**base, field: value}, field,
                 id=f"{codec}.{field}={json.dumps(value)}")
    for codec, read, base, fields in CODECS
    for field, kind in fields.items()
    for value in WRONG[kind.rstrip("?")] + (() if kind.endswith("?") else (None,))
]

#: Wrong items inside a list field, and wrong fields inside a nested codec.
ITEMS = [
    (CampaignConfig.from_dict, {"windows": [["0", None]]}, "windows"),
    (CampaignConfig.from_dict, {"windows": [[0.0, True]]}, "windows"),
    (CampaignConfig.from_dict, {"windows": [[0.0]]}, "windows"),
    (CampaignConfig.from_dict, {"windows": ["0"]}, "windows"),
    (CampaignConfig.from_dict, {"kinds": [1]}, "kinds"),
    (CampaignConfig.from_dict, {"sites": [True]}, "sites"),
    (CampaignConfig.from_dict, {"job_indices": [True]}, "job_indices"),
    (CampaignConfig.from_dict, {"job_indices": [0.5]}, "job_indices"),
    (CellSpec.from_dict, {**CELL, "injections": ["MachineCrash"]}, "injections"),
    (CellSpec.from_dict, {**CELL, "injections": [{"kind": "MachineCrash", "at": "0"}]}, "at"),
    (CellSpec.from_dict, {**CELL, "injections": [{"kind": "CorruptProgramImage",
                                                   "job_index": True}]}, "job_index"),
    (CorpusEntry.from_dict, {"cell": {**CELL, "seed": 0.9}, "signature": [], "novel": [],
                             "batch": 0, "violations": 0}, "seed"),
    (CorpusEntry.from_dict, {"cell": CELL, "signature": [1], "novel": [], "batch": 0,
                             "violations": 0}, "signature"),
]


@pytest.mark.parametrize("read, data, field", ROWS)
def test_a_wrong_json_type_is_a_config_error_naming_the_field(read, data, field):
    with pytest.raises(ConfigError) as excinfo:
        read(data)
    assert excinfo.value.field == field
    assert repr(field) in str(excinfo.value) or field == "experiment"


@pytest.mark.parametrize("read, data, field", ITEMS)
def test_a_wrong_item_or_nested_field_is_named_too(read, data, field):
    with pytest.raises(ConfigError) as excinfo:
        read(data)
    assert excinfo.value.field == field


@pytest.mark.parametrize("read, base, field", [
    (read, base, field)
    for codec, read, base, _ in CODECS
    for field in base
    if codec not in ("CampaignConfig", "FuzzConfig")
])
def test_a_required_field_left_out_is_named(read, base, field):
    with pytest.raises(ConfigError) as excinfo:
        read({key: value for key, value in base.items() if key != field})
    assert excinfo.value.field == field
    assert str(excinfo.value) == f"missing field {field!r}"


@pytest.mark.parametrize("read", [read for _, read, _, _ in CODECS])
def test_data_that_is_no_object_is_a_bad_request(read):
    for data in ([], "x", 1, None):
        with pytest.raises(BadRequest, match="expected an object"):
            read(data)


def test_a_number_field_widens_an_integer_and_nothing_is_cast():
    config = CampaignConfig.from_dict({"max_time": 5, "windows": [[0, 10], [3, None]]})
    assert config.max_time == 5.0 and type(config.max_time) is float
    assert config.windows == ((0.0, 10.0), (3.0, None))
    assert all(type(at) is float for at, _ in config.windows)
    fault = FaultSpec.from_dict({"kind": "MachineCrash", "at": 0, "until": 30})
    assert (type(fault.at), type(fault.until)) == (float, float)
    assert type(JobSpec.from_dict({"work": 3}).work) is float
    assert FaultSpec.from_dict({"kind": "X", "job_index": 2}).job_index == 2


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(EXPERIMENTS)), seed=st.integers(-(2**40), 2**40))
    def test_experiment_spec(self, name, seed):
        spec = ExperimentSpec(name, seed)
        assert ExperimentSpec.from_dict(spec.as_dict()) == spec
        assert ExperimentSpec.from_dict(json.loads(canonical_json(spec.as_dict()))) == spec

    @settings(max_examples=80, deadline=None)
    @given(work=st.floats(1e-6, 1e7), exception=st.none() | st.text(max_size=12),
           exit_code=st.integers(0, 255))
    def test_job_spec(self, work, exception, exit_code):
        spec = JobSpec(work, exception, 0 if exception is not None else exit_code)
        assert JobSpec.from_dict(spec.as_dict()) == spec
        assert JobSpec.from_dict(json.loads(canonical_json(spec.as_dict()))) == spec

    def test_the_stored_job_spec_keeps_its_shape(self):
        assert JobSpec.from_dict({"work": 2}).as_dict() == {
            "work": 2.0, "exception": None, "exit_code": 0}

    def test_an_unknown_experiment_is_a_config_error_with_its_sentence(self):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentSpec("nosuch")
        assert excinfo.value.field == "experiment"
        assert str(excinfo.value).startswith("unknown experiment 'nosuch'; try one of: ")


@pytest.mark.parametrize("route, body, field", [
    ("jobs", {"work": "1"}, "work"),
    ("jobs", {"work": True}, "work"),
    ("jobs", {"work": 1.0, "exit_code": 0.5}, "exit_code"),
    ("jobs", {"work": 1.0, "exit_code": True}, "exit_code"),
    ("jobs", {"work": 1.0, "exception": 1}, "exception"),
    ("jobs", {"work": 1.0, "owner": "root"}, "owner"),
    ("jobs", {"work": 1e9}, "work"),  # a cap, not a type
    ("experiments", {"experiment": "fig4", "seed": True}, "seed"),
    ("experiments", {"experiment": "fig4", "seed": 0.5}, "seed"),
    ("experiments", {"experiment": "fig4", "seed": -1}, "seed"),
    ("experiments", {"experiment": 7}, "experiment"),
    ("campaigns", {"seed": True}, "seed"),
    ("campaigns", {"federation": "false"}, "federation"),
    ("campaigns", {"max_order": "2"}, "max_order"),
    ("campaigns", {"kinds": "MachineCrash"}, "kinds"),
    ("campaigns", {"kinds": []}, "kinds"),
    ("campaigns", {"n_jobs": 99}, "n_jobs"),
])
def test_each_post_route_answers_400_naming_the_field(tmp_path, route, body, field):
    with RunStore(str(tmp_path / "runs.db")) as store:
        api = ServiceApi(store, ServiceConfig(secret="s", results_db=None))
        headers = {"authorization": "Bearer " + mint_token("s", "alice", int(time.time()) + 60)}
        with pytest.raises(BoundaryError) as excinfo:
            api.handle("POST", f"/v1/{route}", headers, json.dumps(body).encode())
        assert store.run_row(1) is None
    error = excinfo.value
    assert (error.http_status, error.code, error.field) == (400, "BAD_REQUEST", field)
    assert field in error.to_json()["error"]["message"]


def _names(node) -> set[str]:
    return {getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)}


def _calls(node) -> set[str]:
    return {_names(call.func).pop() for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def test_every_from_dict_reads_through_read_fields():
    readers, delegates = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "from_dict"):
                    continue
                names = _names(fn)
                where = f"{path.relative_to(SRC)}:{cls.name}.from_dict"
                assert not _calls(fn) & {"int", "float", "str", "bool"}, f"{where} casts by hand"
                assert names & {"read_fields", "from_dict"}, f"{where} reads past read_fields"
                (readers if "read_fields" in names else delegates).add(cls.name)
        defines = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
        if "read_fields" in defines:
            assert path.relative_to(SRC).as_posix() == "boundary.py"
    assert readers == {"Spec", "FuzzConfig"}  # FuzzConfig reads its two sections
    assert delegates == {"Corpus", "CoverageMap"}  # containers of CorpusEntry / FirstSeen
    for codec in (CampaignConfig, FaultSpec, CellSpec, FirstSeen, CorpusEntry, ExperimentSpec,
                  JobSpec):
        assert issubclass(codec, Spec) and "from_dict" not in vars(codec), codec
        assert set(codec.READERS) >= {field.name for field in dataclasses.fields(codec)} - {
            "fail_fast", "remote_machines"}, codec  # not in a campaign's dict form


def test_the_service_writes_no_type_check_of_its_own():
    tree = ast.parse((SRC / "service" / "specs.py").read_text(encoding="utf-8"))
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance":
            assert "bool" not in ast.unparse(call), ast.unparse(call)
    defined = sorted(n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    assert defined == ["JobSpec", "_capped", "build_batch_spec", "normalize_campaign_spec",
                       "normalize_experiment_spec", "normalize_job_spec"]
