"""One round of one workload (or the probes) in a fresh process.

    python -m benchmarks.gridbench.worker <workload|probes.GROUP> --seed N [--traced] [--smoke]

Prints one JSON line on stdout.  A fresh process per round keeps rounds
independent (in-process repeats drift upward as cyclic garbage
accumulates) and gives each a clean ``ru_maxrss``.

In a traced round the worker installs the hooks the program already
has -- wall counters (:func:`repro.obs.profile.install_wall`) and an
ambient telemetry bus with a :class:`SimTimeProfiler` -- and the
workload's spans are recorded; end-to-end numbers are only ever taken
from untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from time import perf_counter

from benchmarks.gridbench.layers import wall_layers
from benchmarks.gridbench.spans import SpanRecorder

CALIB_SLICES = 7
CALIB_ITERATIONS = 200_000


def calibrate() -> list[float]:
    """How fast is this host right now?  Seven timings of a fixed pure-Python loop.

    Short slices rather than one long loop: the median of slices taken
    before and after a round ignores a burst that hits one of them, and
    still follows a slow spell that lasts the whole round.  The worker
    only reports the slice (``calib_s``) beside its raw wall times; what
    is made of it is the parent's business.
    """
    slices = []
    for _ in range(CALIB_SLICES):
        t0 = perf_counter()
        acc = 0
        for i in range(CALIB_ITERATIONS):
            acc += i * i % 7
        slices.append(perf_counter() - t0)
    return slices


def fingerprint(payload) -> str:
    """sha256 of the sim-side payload (bytes as-is, anything else as canonical JSON)."""
    if not isinstance(payload, bytes):
        from repro.obs.store import canonical_json

        payload = canonical_json(payload).encode()
    return hashlib.sha256(payload).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _hook_layers(wall, profiler, bus, samples: dict) -> dict:
    """Per-layer numbers read off the program's own hooks after a traced round."""
    layer = wall_layers(wall.snapshot())
    layer["sim.events"] = profiler.snapshot()["events"]
    layer["obs.bus_events"] = bus.dispatched
    client_s = (sum(samples.get("submit_ms", ())) + sum(samples.get("read_ms", ()))) / 1e3
    served = [layer.get(f"service.request_busy_s.{method}") for method in ("POST", "GET")]
    if client_s and None not in served:
        layer["service.client_wait_frac"] = 1.0 - sum(served) / client_s
    return layer


def run_round(args) -> dict:
    from benchmarks.gridbench.workloads import WORKLOADS

    module = WORKLOADS[args.workload]
    t0 = perf_counter()
    calib = calibrate()
    calibrating_s = perf_counter() - t0  # not part of set-up
    rec = SpanRecorder(args.workload, args.round, enabled=args.traced)
    wall = profiler = bus = None
    if args.traced:
        from repro.obs.bus import TelemetryBus, install_ambient
        from repro.obs.profile import SimTimeProfiler, WallCounters, install_wall

        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        install_ambient(bus)
        wall = WallCounters()
        install_wall(wall)
    with tempfile.TemporaryDirectory(dir=args.tmp_root, prefix=f"{args.workload}-") as tmp, \
            rec.span("gridbench.round"):
        with rec.span("gridbench.setup"):
            state = module.setup(args.seed, args.smoke, rec, tmp)
        setup_s = time.time() - args.spawned_at - calibrating_s
        t0 = perf_counter()
        with rec.span("gridbench.run"):
            module.run(state, rec)
        state["run_s"] = run_s = perf_counter() - t0
        rss = peak_rss_mb()
        calib_s = statistics.median(calib + calibrate())
        with rec.span("gridbench.finish"):
            outcome = module.finish(state, rec, args.traced)
    layer = outcome["layer"]
    if args.traced:
        layer = {**_hook_layers(wall, profiler, bus, outcome["samples"]), **layer}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "traced": args.traced,
        "calib_s": calib_s,
        "setup_wall_s": setup_s,
        "run_wall_s": run_s,
        "peak_rss_mb": rss,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "checks": outcome["checks"],
        "fingerprint": fingerprint(outcome["fingerprint"]),
        "layer": layer,
        "samples": outcome["samples"],
        "spans": rec.spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.gridbench.worker")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.time() at spawn, so set-up includes interpreter start")
    parser.add_argument("--tmp-root", default=None)
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    if args.tmp_root is not None:
        os.makedirs(args.tmp_root, exist_ok=True)
    # Anything the program under test prints belongs on stderr; stdout
    # carries exactly one JSON line.
    with contextlib.redirect_stdout(sys.stderr):
        if args.workload.startswith("probes."):
            from benchmarks.gridbench.probes import run_probes

            group = args.workload.partition(".")[2]
            result = {"probes": run_probes(group, args.smoke, args.tmp_root)}
        else:
            result = run_round(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
