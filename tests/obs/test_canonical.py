"""The one serialisation rule: golden bytes, the strip rule, and structure.

The golden files under ``tests/obs/golden/`` were written by the four
writers the canonical module replaced (``export.dump_json``,
``export.render_trace``, ``export.render_metrics``,
``executor.canonical_dump_bytes``) on the fixtures built below, at the
commit before the replacement.  The one writer must reproduce every one
of them byte for byte.
"""

import enum
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scope import ErrorScope
from repro.obs.bus import TelemetryEvent, Topic
from repro.obs.canonical import WALL_KEYS, canonical_json, pretty_json, strip_wall, to_jsonable
from repro.obs.export import dump_json, render_metrics, render_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[2] / "src"


class Colour(enum.Enum):
    RED = "red"


@dataclass
class FakeRow:
    defense: str
    makespan: float
    scope: ErrorScope
    colour: Colour
    wall_clock_seconds: float = 1.25


@dataclass
class FakeResult:
    rows: list
    tags: frozenset = frozenset({"b", "a"})
    blob: bytes = b"\x00\xff"
    seed_seconds: list = field(default_factory=lambda: [0.1, 0.2])
    wall_seconds: float = 3.5


def harness_payload() -> dict:
    result = FakeResult(rows=[
        FakeRow("none", 1214.7, ErrorScope.REMOTE_RESOURCE, Colour.RED),
        FakeRow("é-backoff", 1e-07, ErrorScope.JOB, Colour.RED, wall_clock_seconds=9.0),
    ])
    return {"seed": 7, "experiments": {"fake": to_jsonable(result), "n": {"z": 1, "a": [1, 2.5]}}}


def trace_fixture() -> tuple[list, list]:
    events = [
        TelemetryEvent(0.0, Topic.JOB, "submit", (("job", "1.0"), ("owner", "alice"))),
        TelemetryEvent(12.5, Topic.ERROR, "raise", (
            ("detail", 'quote " and \\ and é'), ("scope", ErrorScope.LOCAL_RESOURCE),
        )),
    ]
    spans = [
        Span(2, 1, "attempt", "phase", 3.0, 9.75, "ok", {"site": "exec001", "n": 3}),
        Span(1, None, "job 1.0", "job", 0.0, None, "", {}),
    ]
    return events, spans


def metrics_fixture() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("events_total", topic="job")
    registry.counter("events_total", 2.0, topic="error")
    registry.gauge("sim_time_seconds", 360.0)
    for value in (0.5, 20.0, 7.0):
        registry.histogram("job_makespan_seconds", value)
    return registry


def service_result() -> dict:
    return {
        "run_id": 3, "owner": "alice", "job_state": "COMPLETED", "attempts": 2,
        "finished_at": 91.25, "matches_expected": True,
        "result": {"status": "EXITED", "exit_code": 0, "scope": None},
        "expected_result": {"status": "EXITED", "exit_code": 0, "scope": None},
    }


def _dumped(tmp_path, obj) -> str:
    path = tmp_path / "out.json"
    dump_json(str(path), obj)
    return path.read_bytes().decode()


WRITERS = {
    "harness_payload.golden": lambda tmp: _dumped(tmp, harness_payload()),
    "trace_lines.golden": lambda tmp: render_trace(*trace_fixture()),
    "metrics_snapshot.golden": lambda tmp: render_metrics(metrics_fixture()),
    "service_result.golden": lambda tmp: pretty_json(service_result()),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_one_writer_reproduces_the_parent_writers(self, name, tmp_path):
        assert WRITERS[name](tmp_path).encode() == (GOLDEN / name).read_bytes()

    def test_trace_lines_are_the_compact_form(self):
        events, spans = trace_fixture()
        for line in render_trace(events, spans).splitlines():
            assert line == canonical_json(json.loads(line))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(sorted(WALL_KEYS)), children,
                      max_size=5),
    max_leaves=20,
)


def _shuffled(obj, draw):
    if isinstance(obj, dict):
        keys = draw(st.permutations(list(obj)))
        return {k: _shuffled(obj[k], draw) for k in keys}
    if isinstance(obj, list):
        return [_shuffled(v, draw) for v in obj]
    return obj


class TestStripRule:
    def test_the_key_set_is_the_union_of_the_old_three(self):
        compare_wall_keys = {"wall", "wall_seconds"}
        compare_protocol_keys = {"rounds", "rounds_override"}
        export_wall_clock_fields = {"wall_clock_seconds", "seed_seconds", "wall_seconds"}
        assert WALL_KEYS == compare_wall_keys | compare_protocol_keys | export_wall_clock_fields

    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_strip_wall_is_idempotent(self, obj):
        once = strip_wall(obj)
        assert strip_wall(once) == once
        assert not (WALL_KEYS & _all_keys(once))

    @given(json_values, st.data())
    @settings(max_examples=150, deadline=None)
    def test_canonical_text_ignores_insertion_order(self, obj, data):
        reordered = _shuffled(obj, data.draw)
        assert canonical_json(strip_wall(reordered)) == canonical_json(strip_wall(obj))
        assert pretty_json(strip_wall(reordered)) == pretty_json(strip_wall(obj))

    #: shaped like one workload of a gridbench report
    RECORD = {
        "rounds_override": None,
        "workloads": {"w": {
            "rounds": 5, "attempted": 4,
            "wall_seconds": {"min": 0.2, "per_round": [0.2, 0.3]},
            "wall": {"sim.process_step": {"calls": 10, "total_seconds": 0.1}},
            "sim": {"events": 100, "sim_time": 42.0},
        }},
    }

    def test_removes_wall_keys_at_any_depth(self):
        workload = strip_wall(self.RECORD)["workloads"]["w"]
        assert "wall" not in workload and "wall_seconds" not in workload
        assert workload["sim"]["events"] == 100

    def test_removes_run_protocol_keys(self):
        stripped = strip_wall(self.RECORD)
        assert "rounds_override" not in stripped
        assert "rounds" not in stripped["workloads"]["w"]
        assert stripped["workloads"]["w"]["attempted"] == 4

    def test_original_is_untouched(self):
        strip_wall(self.RECORD)
        assert "wall" in self.RECORD["workloads"]["w"]

    def test_to_jsonable_drops_wall_fields_of_dataclasses_only(self):
        row = FakeRow("x", 1.0, ErrorScope.JOB, Colour.RED)
        assert "wall_clock_seconds" not in to_jsonable(row)
        assert to_jsonable({"wall": 1}) == {"wall": 1}  # dict keys are strip_wall's job


def _all_keys(obj) -> set:
    if isinstance(obj, dict):
        return set(obj) | {k for v in obj.values() for k in _all_keys(v)}
    if isinstance(obj, list):
        return {k for v in obj for k in _all_keys(v)}
    return set()


def _files_matching(pattern: str) -> list[str]:
    regex = re.compile(pattern)
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if regex.search(path.read_text(encoding="utf-8"))
    )


class TestOneImplementation:
    """Structural gate: the duplicates this module replaced cannot return."""

    def test_sort_keys_is_spelled_in_one_file(self):
        assert _files_matching(r"sort_keys\s*=") == ["repro/obs/canonical.py"]

    @pytest.mark.parametrize("pattern", [
        r"sqlite3\.connect", r"PRAGMA journal_mode", r"FROM meta WHERE key='schema'",
        r"\.commit\(\)", r"\.rollback\(\)",
        r"class StoreSchemaError", r"class StoreDurabilityError", r"class StoreOpenError",
    ])
    def test_the_sqlite_layer_is_spelled_in_one_file(self, pattern):
        home = "repro/boundary.py" if pattern.startswith("class") else "repro/obs/sqlite_store.py"
        assert _files_matching(pattern) == [home]

    def test_one_strip_rule(self):
        assert _files_matching(r"def strip_wall") == ["repro/obs/canonical.py"]
        assert _files_matching(r"def canonical_json") == ["repro/obs/canonical.py"]
        assert _files_matching(r"canonical_dump_bytes|WALL_CLOCK_FIELDS|PROTOCOL_KEYS") == []

    def test_one_benchmark_system(self):
        """gridbench measures and the results store compares; the first
        system's schema, file prefix and routes are gone from ``src/``."""
        assert _files_matching(r"repro-bench/1|BENCH_") == []
        # Not a knob: one ignored field gridbench (frozen) still passes.
        assert _files_matching(r"bench_dir") == ["repro/service/api.py"]
        assert _files_matching(r"def add_threshold_options") == ["repro/obs/store/query.py"]
        assert _files_matching(r"\(1\.0 \+ wall_threshold\)") == ["repro/obs/store/query.py"]
        shim = "".join(p.read_text(encoding="utf-8") for p in (SRC / "repro/bench").glob("*.py"))
        assert not re.search(r"(?m)^\s*(def|class) ", shim)
