import json
import re

from benchmarks.gridbench.cli import ROOT, load_manifest
from benchmarks.gridbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed_and_unique():
    manifest = load_manifest()
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for entry in manifest[section]:
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")


def test_manifest_shape():
    manifest = load_manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/gridbench"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for entry in manifest["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].WHY
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert "setup_s" in bounds and all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in manifest["per_layer"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_reference_baseline_has_the_json_schema_and_both_seeds():
    manifest = load_manifest()
    with open(ROOT / "benchmarks/gridbench/baseline/reference.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == "repro-gridbench/1"
    assert [run["seed"] for run in doc["runs"]] == [7, 11]
    for run in doc["runs"]:
        assert set(run["host"]) == {"nproc", "python", "commit", "calib_ref_s"}
        # The first run sets the scale every later invocation is expressed at.
        assert run["host"]["calib_ref_s"] == doc["runs"][0]["host"]["calib_ref_s"]
        assert list(run["workloads"]) == [w["name"] for w in manifest["workloads"]]
        reported = set()
        for result in run["workloads"].values():
            assert all(result["checks"].values()) and result["failed"] == 0
            assert set(result["end_to_end"]) == {m["name"] for m in manifest["end_to_end"]}
            reported.update(result["per_layer"])
        assert reported == {m["name"] for m in manifest["per_layer"]}
