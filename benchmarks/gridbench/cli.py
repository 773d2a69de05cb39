"""gridbench's command line: run rounds as child processes, aggregate, report.

Two ways in, one measurement path:

- the full report, ``PYTHONPATH=src python -m benchmarks.gridbench
  [--seed N] [--json PATH] [--selfcheck] [--smoke]``: every workload,
  five untraced rounds and one traced round each plus the probes attached
  to it, every metric of the layers it crosses printed by name with unit
  and sample count, nonzero exit on any failed check;
- one workload for a driver, ``python3 benchmarks/gridbench/run.py
  --workload W --seed N --seconds S --trace 0|1``: the last stdout line
  is one JSON object with ``correct``, ``attempted``, ``failed`` and
  ``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``);
  nonzero exit, after that line, on any failed check.

Rounds run strictly one after another, each in a fresh child process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.gridbench.probes import NAMES as PROBE_NAMES
from benchmarks.gridbench.spans import self_time_by_layer
from benchmarks.gridbench.stats import percentile, summary, tail_percentile
from benchmarks.gridbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "bench-out" / "gridbench"
BASELINE = Path(__file__).resolve().parent / "baseline" / "reference.json"
SCHEMA = "repro-gridbench/1"
DEFAULT_SEED = 7
#: The protocol: this many untraced rounds and one traced round per workload.
UNTRACED_ROUNDS = 5
#: With a time budget (``--seconds``) rounds may be cut, never below this.
MIN_ROUNDS = 3
#: A child that has not answered by now is reported as failed, not waited for.
CHILD_TIMEOUT_S = 170


class BenchmarkFailed(RuntimeError):
    """A child process died or printed no result."""


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(target: str, seed: int, tmp_root: str, round_id: int = 0, traced: bool = False,
          smoke: bool = False) -> dict:
    """Run one worker child to completion; return the JSON object it printed."""
    paths = [str(ROOT), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    cmd = [
        sys.executable, "-m", "benchmarks.gridbench.worker", target,
        "--seed", str(seed), "--round", str(round_id), "--tmp-root", tmp_root,
        "--spawned-at", repr(time.time()),
    ]
    cmd += ["--traced"] * traced + ["--smoke"] * smoke
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkFailed(f"{target} round {round_id}: no result in {CHILD_TIMEOUT_S}s") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkFailed(f"{target} round {round_id}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def untraced_rounds(workload: str, seed: int, tmp_root: str, rounds: int,
                    seconds: float | None = None, smoke: bool = False) -> list[dict]:
    """*rounds* rounds; given *seconds*, go on until the timed sections add up to it."""
    out: list[dict] = []
    while len(out) < rounds or (seconds and sum(r["run_wall_s"] for r in out) < seconds):
        out.append(spawn(workload, seed, tmp_root, round_id=len(out), smoke=smoke))
    return out


def probe(workload: str, seed: int, tmp_root: str, smoke: bool = False) -> dict:
    """The probes attached to *workload*, each group in a child of its own."""
    out: dict = {}
    for group in WORKLOADS[workload].PROBES:
        out.update(spawn(f"probes.{group}", seed, tmp_root, smoke=smoke)["probes"])
    return out


# -- aggregation ---------------------------------------------------------
def reference_slice(rounds: list[dict]) -> float:
    """The calibration slice that ``setup_s`` and ``run_s`` are expressed at.

    It is ``host.calib_ref_s`` of the first run in the committed baseline,
    so the scale belongs to that file and not to the source: regenerate
    the baseline (new box, new interpreter) and the scale follows.  Where
    there is no baseline (it is being regenerated), it is the median
    slice of *rounds*: wall seconds with only this invocation's own drift
    taken out, and the run that is written then sets the scale.
    """
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh)["runs"][0]["host"]["calib_ref_s"]
    except (OSError, ValueError, LookupError):
        return statistics.median(r["calib_s"] for r in rounds)


def _calibrated(r: dict, ref: float) -> dict:
    """*r* with ``setup_s`` / ``run_s``: its wall times at the reference host speed."""
    scale = ref / r["calib_s"]
    return {**r, "setup_s": r["setup_wall_s"] * scale, "run_s": r["run_wall_s"] * scale}


def _pooled(rounds: list[dict], name: str) -> list[float]:
    return [v for r in rounds for v in r["samples"].get(name, ())]


def aggregate(manifest: dict, workload: str, ref: float, untraced: list[dict],
              traced: dict | None = None, probes: dict | None = None) -> dict:
    """One workload's result: end-to-end summaries, per-layer values, checks.

    *ref* is the :func:`reference_slice` the two times are expressed at.
    """
    untraced = [_calibrated(r, ref) for r in untraced]
    traced = traced and _calibrated(traced, ref)
    every = untraced + ([traced] if traced else [])
    checks: dict[str, bool] = {}
    for r in every:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    fingerprints = sorted({r["fingerprint"] for r in every})
    checks["rounds_agree_on_fingerprint"] = len(fingerprints) == 1
    end_to_end = {
        m["name"]: {**summary([r[m["name"]] for r in untraced]), "unit": m["unit"]}
        for m in manifest["end_to_end"]
    }
    result = {
        "rounds": len(untraced),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "checks": checks,
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "end_to_end": end_to_end,
    }
    if traced is None:
        return result
    run_s = end_to_end["run_s"]["value"]
    layer = dict(traced["layer"])
    events = layer.get("sim.events", 0)
    if events:
        layer["sim.events_per_host_s"] = events / run_s
        layer["sim.host_us_per_event"] = run_s / events * 1e6
        if layer.get("pool.jobs"):
            layer["pool.events_per_job"] = events / layer["pool.jobs"]
    layer["obs.trace_overhead_frac"] = (traced["run_s"] - run_s) / run_s
    layer["host.setup_wall_s"] = summary([r["setup_wall_s"] for r in untraced])["value"]
    layer["host.run_wall_s"] = summary([r["run_wall_s"] for r in untraced])["value"]
    layer["host.calib_s"] = summary([r["calib_s"] for r in every])["value"]
    layer["host.nproc"] = os.cpu_count() or 1
    layer["host.python"] = float(f"{sys.version_info.major}.{sys.version_info.minor:02d}")
    # Client-observed service latencies: pooled over the untraced rounds.
    notes: dict[str, dict] = {}
    for metric, samples, p in (
        ("submit_ms_p50", "submit_ms", 50), ("read_ms_p50", "read_ms", 50),
        ("result_ready_s", "wave_s", 50),
        ("service.submit_ms_p99", "submit_ms", 99), ("service.read_ms_p99", "read_ms", 99),
    ):
        pooled = _pooled(untraced, samples)
        if pooled:
            layer[metric] = percentile(pooled, p)
            notes[metric] = {"n": len(pooled)}
            if p == 99:
                # A tail is only as good as the samples beyond it: say
                # which percentile this n really supports.
                tail = tail_percentile(pooled)
                notes[metric]["supported_p"] = tail["p"] if tail else None
    for name, probed in (probes or {}).items():
        layer[name] = probed["value"]
        notes[name] = {"n": probed["n"]}
    undeclared = sorted(set(layer) - {m["name"] for m in manifest["per_layer"]})
    if undeclared:
        raise BenchmarkFailed(f"{workload}: undeclared per-layer metrics {undeclared}")
    # A metric of a layer this workload crosses has to be there, and has
    # to have seen something: a hook that was renamed away must not read
    # like a layer that was bypassed.
    module = WORKLOADS[workload]
    probed_names = [name for group in module.PROBES for name in PROBE_NAMES[group]]
    for name in (*module.CROSSES, *module.ZERO_OK, *probed_names):
        if name not in layer or (not layer[name] and name not in module.ZERO_OK):
            checks[f"crossed_layer_reports:{name}"] = False
    result["per_layer"] = {
        m["name"]: {"value": layer[m["name"]], "unit": m["unit"], **notes.get(m["name"], {})}
        for m in manifest["per_layer"] if m["name"] in layer
    }
    run_span = next(s["id"] for s in traced["spans"] if s["name"] == "gridbench.run")
    result["self_time_s"] = self_time_by_layer(traced["spans"], under=run_span)
    return result


def write_trace(workload: str, traced: dict) -> Path:
    """The traced round's spans, written once, after the round has ended."""
    path = OUT / f"trace-{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": traced["seed"], "spans": traced["spans"]}, fh)
    return path


def failed_checks(result: dict) -> list[str]:
    bad = [name for name, ok in result["checks"].items() if not ok]
    if result["failed"]:
        bad.append(f"failed_operations={result['failed']}/{result['attempted']}")
    return bad


# -- the full report -----------------------------------------------------
def run_set(manifest: dict, seed: int, tmp_root: str, smoke: bool, label: str = "") -> dict:
    """Every workload: untraced rounds, one traced round, the probes attached to it."""
    rounds = 1 if smoke else UNTRACED_ROUNDS
    measured = {}
    for entry in manifest["workloads"]:
        name = entry["name"]
        started = time.perf_counter()
        untraced = untraced_rounds(name, seed, tmp_root, rounds, smoke=smoke)
        traced = spawn(name, seed, tmp_root, round_id=len(untraced), traced=True, smoke=smoke)
        write_trace(name, traced)
        measured[name] = (untraced, traced, probe(name, seed, tmp_root, smoke))
        print(f"{label}{name}: {len(untraced)}+1 rounds in "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    ref = reference_slice([r for untraced, traced, _ in measured.values()
                           for r in (*untraced, traced)])
    workloads = {name: aggregate(manifest, name, ref, *m) for name, m in measured.items()}
    return {
        "seed": seed,
        "smoke": smoke,
        "host": {
            "nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "commit": _commit(),
            "calib_ref_s": ref,
        },
        "workloads": workloads,
    }


def _commit() -> str:
    from repro.obs.store import default_commit

    return default_commit(cwd=ROOT)


def _spread(s: dict) -> str:
    return f"{_fmt(s['value'])} [{_fmt(s['q1'])}..{_fmt(s['q3'])}]"


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.4g}"


def render(run: dict) -> str:
    lines = [
        f"gridbench seed={run['seed']}{' (smoke)' if run['smoke'] else ''}  "
        f"python {run['host']['python']}  nproc {run['host']['nproc']}  "
        f"commit {run['host']['commit']}  calib_ref_s {run['host']['calib_ref_s']:.5f}"
    ]
    for name, result in run["workloads"].items():
        lines.append("")
        lines.append(f"== {name}  ({result['rounds']} untraced rounds + 1 traced; "
                     f"{result['failed']} failed of {result['attempted']} operations)")
        lines.append(f"  fingerprint {result['fingerprint']}")
        lines.append("  end to end (median [q1 .. q3] n):")
        for metric, s in result["end_to_end"].items():
            lines.append(
                f"    {metric:<40} {_fmt(s['value']):>12} {s['unit']:<7} "
                f"[{_fmt(s['q1'])} .. {_fmt(s['q3'])}] n={s['n']}"
            )
        lines.append("  per layer (traced round, probes, pooled client samples):")
        for metric, s in result["per_layer"].items():
            n = f" n={s['n']}" if "n" in s else ""
            if "supported_p" in s:
                n += f" (n supports a tail up to p{s['supported_p']})"
            lines.append(f"    {metric:<40} {_fmt(s['value']):>12} {s['unit']}{n}")
        lines.append("  self time inside the timed section, by layer (s): " + ", ".join(
            f"{layer} {seconds:.3f}" for layer, seconds in result["self_time_s"].items()
        ))
        for check, ok in result["checks"].items():
            lines.append(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    return "\n".join(lines)


def write_json(path: str, run: dict) -> None:
    """Write (or append to) a ``repro-gridbench/1`` document at *path*."""
    doc = {"schema": SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if existing.get("schema") == SCHEMA:
            doc = existing
    doc["runs"].append(run)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def report_failures(run: dict) -> int:
    """Print every failed check by name; return how many workloads have one."""
    bad = 0
    for name, result in run["workloads"].items():
        checks = failed_checks(result)
        bad += bool(checks)
        for check in checks:
            print(f"FAILED {name}: {check}")
    return bad


def selfcheck(manifest: dict, seed: int, tmp_root: str, smoke: bool) -> int:
    """Run the whole set twice on the same code; the two must agree."""
    a = run_set(manifest, seed, tmp_root, smoke, label="A ")
    b = run_set(manifest, seed, tmp_root, smoke, label="B ")
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    exact = {m["name"] for m in manifest["per_layer"] if m["unit"] == "count"}
    problems = report_failures(a) + report_failures(b)
    print(f"{'workload':<18} {'metric':<14} {'A median [q1..q3]':<30} "
          f"{'B median [q1..q3]':<30} {'gap':>7} {'bound':>6}")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, bound in bounds.items():
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            gap = (sb["value"] - sa["value"]) / sa["value"]
            verdict = "" if abs(gap) <= bound else "  EXCEEDS BOUND"
            problems += bool(verdict)
            print(f"{name:<18} {metric:<14} {_spread(sa):<30} {_spread(sb):<30} "
                  f"{gap:>+7.1%} {bound:>6.0%}{verdict}")
        for metric in ("submit_ms_p50", "read_ms_p50", "result_ready_s"):
            if metric in wa["per_layer"]:
                va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
                print(f"{name:<18} {metric:<14} {_fmt(va):<30} {_fmt(vb):<30} "
                      f"{(vb - va) / va:>+7.1%}   (no bound: reported only)")
        if wa["fingerprint"] != wb["fingerprint"]:
            problems += 1
            print(f"FAILED {name}: sim-side fingerprint differs between A and B")
        for metric in sorted(exact & set(wa["per_layer"])):
            va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            if va != vb:
                problems += 1
                print(f"FAILED {name}: count {metric} differs between A and B ({va} vs {vb})")
    print("selfcheck:", "ok" if not problems else f"{problems} problem(s)")
    return 1 if problems else 0


# -- one workload for a driver --------------------------------------------
def run_one(manifest: dict, workload: str, seed: int, tmp_root: str, seconds: float,
            trace: bool) -> int:
    if trace:
        untraced = untraced_rounds(workload, seed, tmp_root, rounds=1)
        traced = spawn(workload, seed, tmp_root, round_id=1, traced=True)
        print(f"spans: {write_trace(workload, traced)}", file=sys.stderr)
        result = aggregate(manifest, workload, reference_slice([*untraced, traced]),
                           untraced, traced, probe(workload, seed, tmp_root))
        # The driver wants every declared name on every workload: a layer
        # this workload declares it does not cross reads 0 here (a crossed
        # one that went missing has failed a check above, by name).
        metrics = {
            m["name"]: result["per_layer"].get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in manifest["per_layer"]
        }
    else:
        untraced = untraced_rounds(workload, seed, tmp_root, MIN_ROUNDS, seconds=seconds)
        result = aggregate(manifest, workload, reference_slice(untraced), untraced)
        metrics = result["end_to_end"]
    raw = {key: statistics.median(r[key] for r in untraced)
           for key in ("setup_wall_s", "run_wall_s", "calib_s")}
    print(f"raw medians of {len(untraced)} untraced rounds: {json.dumps(raw)}", file=sys.stderr)
    bad = failed_checks(result)
    for check in bad:
        print(f"FAILED {workload}: {check}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.gridbench",
        description="End-to-end and per-layer benchmark of the paths users walk.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload generator seed (default %(default)s)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable result (appends a run to an "
                             "existing repro-gridbench/1 document)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round: checks the plumbing, measures nothing")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and require the two to agree within the bounds")
    parser.add_argument("--workload", default=None,
                        help="run one workload and print one JSON result line (driver protocol)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: keep adding rounds until their timed sections "
                             "add up to this (at least three rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    args = parser.parse_args(argv)
    manifest = load_manifest()
    OUT.mkdir(parents=True, exist_ok=True)
    # Scratch space of this invocation only, inside the checkout.
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.workload is not None:
            if args.workload not in {w["name"] for w in manifest["workloads"]}:
                parser.error(f"unknown workload {args.workload!r}")
            seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
            return run_one(manifest, args.workload, args.seed, tmp_root, seconds, bool(args.trace))
        if args.selfcheck:
            return selfcheck(manifest, args.seed, tmp_root, args.smoke)
        run = run_set(manifest, args.seed, tmp_root, args.smoke)
        print(render(run))
        if args.json:
            write_json(args.json, run)
        return 1 if report_failures(run) else 0
    except BenchmarkFailed as exc:
        print(f"gridbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
