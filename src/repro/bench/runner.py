"""Discovery and execution of the ``benchmarks/bench_*.py`` suite.

Each benchmark module is an ordinary pytest-benchmark file: ``test_*``
functions that may take a ``benchmark`` fixture and may be
``pytest.mark.parametrize``-d.  This runner executes them *without*
pytest: it loads each module straight from its file, expands parametrize
marks, and hands every case a :class:`BenchmarkProxy` -- a drop-in for
the pytest-benchmark fixture (``benchmark(fn, *args)`` and
``benchmark.pedantic(...)``) that also wires up the grid profiler.

Every *round* of a case runs under a fresh ambient
:class:`~repro.obs.bus.TelemetryBus` with a
:class:`~repro.obs.profile.SimTimeProfiler`, a
:class:`~repro.obs.span.SpanBuilder`, a
:class:`~repro.obs.metrics.BusMetricsRecorder`, and freshly installed
:class:`~repro.obs.profile.WallCounters`.  The sim-side results
(attribution triples, critical path, histogram percentiles) come from
the final round and are asserted identical across rounds (the
``deterministic`` bit in the record); the wall-side results aggregate
over rounds and live only under strippable ``wall``/``wall_seconds``
keys.  The emitted ``BENCH_<name>.json`` is canonical JSON
(schema ``repro-bench/1``), byte-identical across same-seed runs once
those keys are stripped -- the property
:mod:`repro.bench.compare` and the CI gate rely on.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

from repro.obs.bus import TelemetryBus, clear_ambient, install_ambient
from repro.obs.export import dump_json
from repro.obs.metrics import BusMetricsRecorder
from repro.obs.profile import (
    SimTimeProfiler,
    WallCounters,
    clear_wall,
    critical_path,
    folded_stacks,
    install_wall,
)
from repro.obs.span import SpanBuilder

__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "BenchmarkProxy",
    "discover",
    "run_bench_file",
    "run_suite",
]

BENCH_SCHEMA = "repro-bench/1"

#: Default rounds when a case calls ``benchmark(fn)`` without pedantic.
DEFAULT_ROUNDS = 3


@dataclass
class BenchCase:
    """One runnable case: a test function plus one parametrize binding."""

    case_id: str
    fn: Callable
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def wants_proxy(self) -> bool:
        return "benchmark" in inspect.signature(self.fn).parameters


def _expand_parametrize(fn: Callable) -> list[tuple[str, dict[str, Any]]]:
    """Expand ``pytest.mark.parametrize`` marks into (id-suffix, params)."""
    bindings: list[tuple[str, dict[str, Any]]] = [("", {})]
    for mark in getattr(fn, "pytestmark", ()):
        if getattr(mark, "name", "") != "parametrize":
            continue
        argnames, argvalues = mark.args[0], mark.args[1]
        names = [n.strip() for n in argnames.split(",")]
        expanded = []
        for suffix, base in bindings:
            for value in argvalues:
                values = tuple(value) if isinstance(value, (tuple, list)) else (value,)
                params = dict(base)
                params.update(zip(names, values))
                part = "-".join(str(v) for v in values)
                expanded.append((f"{suffix}-{part}" if suffix else part, params))
        bindings = expanded
    return bindings


class BenchmarkProxy:
    """Stand-in for the pytest-benchmark fixture, profiler included.

    ``benchmark(fn, *args, **kwargs)`` runs *fn* for the configured
    number of rounds; ``benchmark.pedantic(...)`` honours the in-file
    rounds/iterations unless the runner overrides them.  Either way the
    *last* call's per-round observations are what the case record reads.
    """

    def __init__(self, rounds_override: int | None = None):
        self.rounds_override = rounds_override
        self.rounds_run = 0
        self.iterations = 1
        self.round_wall_ns: list[int] = []
        self.deterministic: bool | None = None
        self.last_profile: dict | None = None
        self.last_spans: list = []
        self.last_histograms: dict = {}
        self.last_wall: dict = {}
        self.last_result: Any = None

    # -- the pytest-benchmark surface -----------------------------------
    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return self._run(fn, args, kwargs, rounds=DEFAULT_ROUNDS, iterations=1)

    def pedantic(
        self,
        target: Callable,
        args: tuple = (),
        kwargs: dict | None = None,
        rounds: int = 1,
        iterations: int = 1,
        warmup_rounds: int = 0,
    ) -> Any:
        return self._run(target, tuple(args), kwargs or {}, rounds=rounds, iterations=iterations)

    # -- execution ------------------------------------------------------
    def _run(
        self, fn: Callable, args: tuple, kwargs: dict, rounds: int, iterations: int
    ) -> Any:
        if self.rounds_override is not None:
            rounds = self.rounds_override
        rounds = max(1, rounds)
        iterations = max(1, iterations)
        snapshots: list[dict] = []
        result: Any = None
        self.round_wall_ns = []
        for _ in range(rounds):
            bus = TelemetryBus()
            profiler = SimTimeProfiler(bus)
            spans = SpanBuilder(bus)
            recorder = BusMetricsRecorder(bus)
            wall = WallCounters()
            install_ambient(bus)
            install_wall(wall)
            try:
                t0 = perf_counter_ns()
                for _ in range(iterations):
                    result = fn(*args, **kwargs)
                self.round_wall_ns.append(perf_counter_ns() - t0)
            finally:
                clear_ambient()
                clear_wall()
                profiler.detach()
                spans.detach()
                recorder.detach()
            snapshots.append(profiler.snapshot())
            self.last_profile = profiler.section()
            self.last_spans = spans.spans
            self.last_histograms = recorder.registry.snapshot()["histograms"]
            self.last_wall = wall.snapshot()
        self.rounds_run = rounds
        self.iterations = iterations
        self.deterministic = all(snap == snapshots[0] for snap in snapshots)
        self.last_result = result
        return result


def _case_record(proxy: BenchmarkProxy, ok: bool, error: str | None) -> dict:
    """One case's JSON record; wall data only under strippable keys."""
    wall_seconds = [ns / 1e9 for ns in proxy.round_wall_ns]
    record: dict[str, Any] = {
        "ok": ok,
        "error": error,
        "rounds": proxy.rounds_run,
        "iterations": proxy.iterations,
        "deterministic": proxy.deterministic,
        "wall_seconds": (
            None
            if not wall_seconds
            else {
                "min": min(wall_seconds),
                "max": max(wall_seconds),
                "mean": sum(wall_seconds) / len(wall_seconds),
                "per_round": wall_seconds,
            }
        ),
        "wall": proxy.last_wall or None,
    }
    # A case that never ran a round observed nothing: no profile, no spans.
    observed = proxy.last_profile is not None
    record["sim"] = proxy.last_profile
    record["critical_path"] = critical_path(proxy.last_spans) if observed else None
    record["folded"] = folded_stacks(proxy.last_spans)
    record["histograms"] = proxy.last_histograms
    return record


# -- discovery ----------------------------------------------------------
def discover(bench_dir: str | Path = "benchmarks") -> list[Path]:
    """The ``bench_*.py`` files under *bench_dir*, sorted by name."""
    return sorted(Path(bench_dir).glob("bench_*.py"))


def bench_name(path: Path) -> str:
    """``benchmarks/bench_sim_engine.py`` -> ``sim_engine``."""
    return path.stem.removeprefix("bench_")


def _load_module(path: Path):
    name = f"repro_bench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load benchmark module {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def collect_cases(path: Path) -> list[BenchCase]:
    """Load one benchmark file and expand its test functions into cases."""
    module = _load_module(path)
    cases: list[BenchCase] = []
    for attr, fn in vars(module).items():
        if not attr.startswith("test_") or not callable(fn):
            continue
        for suffix, params in _expand_parametrize(fn):
            case_id = f"{attr}[{suffix}]" if suffix else attr
            cases.append(BenchCase(case_id=case_id, fn=fn, params=params))
    return cases


# -- running ------------------------------------------------------------
def run_bench_file(
    path: Path,
    rounds_override: int | None = None,
    capture: bool = True,
) -> dict:
    """Run every case in one benchmark file; return the BENCH record."""
    cases: dict[str, dict] = {}
    for case in collect_cases(path):
        proxy = BenchmarkProxy(rounds_override=rounds_override)
        kwargs = dict(case.params)
        if case.wants_proxy:
            kwargs["benchmark"] = proxy
        sink = io.StringIO()
        error: str | None = None
        try:
            with contextlib.redirect_stdout(sink) if capture else contextlib.nullcontext():
                if case.wants_proxy:
                    case.fn(**kwargs)
                else:
                    # A plain test function: one observed, timed round.
                    proxy._run(case.fn, (), kwargs, rounds=1, iterations=1)
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failed case is data
            ok = False
            error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, AssertionError):
                error += "\n" + traceback.format_exc(limit=4)
        cases[case.case_id] = _case_record(proxy, ok, error)
    return {
        "schema": BENCH_SCHEMA,
        "bench": bench_name(path),
        "rounds_override": rounds_override,
        "cases": cases,
    }


def run_suite(
    bench_dir: str | Path = "benchmarks",
    out_dir: str | Path = "bench-out",
    only: list[str] | None = None,
    rounds_override: int | None = None,
    echo=print,
) -> dict[Path, dict]:
    """Run the (possibly filtered) suite; write one BENCH file per module.

    *only* filters by benchmark name substring (``sim_engine`` matches
    ``bench_sim_engine.py``).  Returns each written path with the record
    written there, in run order.
    """
    paths = discover(bench_dir)
    if only:
        paths = [p for p in paths if any(sel in bench_name(p) for sel in only)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[Path, dict] = {}
    for path in paths:
        record = run_bench_file(path, rounds_override=rounds_override)
        target = out / f"BENCH_{record['bench']}.json"
        dump_json(str(target), record)
        written[target] = record
        n_ok = sum(1 for c in record["cases"].values() if c["ok"])
        total = len(record["cases"])
        status = "ok" if n_ok == total else f"{total - n_ok} FAILED"
        echo(f"bench {record['bench']}: {n_ok}/{total} cases {status} -> {target}")
    return written
