import json
import os
import subprocess
import sys
import time

from benchmarks.gridbench.cli import ROOT, load_manifest


def run_cli(*args, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"}
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.gridbench", *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )


def test_smoke_exits_0_quickly_and_emits_exactly_the_declared_names(tmp_path):
    manifest = load_manifest()
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    proc = run_cli("--smoke", "--json", str(out))
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert time.perf_counter() - started < 20
    run = json.loads(out.read_text())["runs"][0]
    assert run["smoke"] is True and run["seed"] == 7
    assert list(run["workloads"]) == [w["name"] for w in manifest["workloads"]]
    text = proc.stdout.decode()
    reported = set()
    for name, result in run["workloads"].items():
        assert list(result["end_to_end"]) == [m["name"] for m in manifest["end_to_end"]]
        reported.update(result["per_layer"])
        assert all(result["checks"].values()), (name, result["checks"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert result["self_time_s"]
        assert f"== {name} " in text
    # Each workload prints the layers it crosses; together they cover the manifest.
    assert reported == {m["name"] for m in manifest["per_layer"]}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert f" {metric['name']} " in text
    # A second run appends to the same document instead of replacing it.
    assert run_cli("--smoke", "--seed", "11", "--json", str(out)).returncode == 0
    assert [r["seed"] for r in json.loads(out.read_text())["runs"]] == [7, 11]


def test_driver_entry_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark, there is nothing to measure."""
    bench = tmp_path / "benchmarks" / "gridbench"
    bench.parent.mkdir()
    import shutil

    shutil.copytree(ROOT / "benchmarks" / "gridbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/gridbench/run.py", "--workload", "pool_backlog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
