"""Tests for the deterministic grid profiler (repro.obs.profile)."""

import filecmp

from repro.condor.pool import Pool, PoolConfig
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.obs.bus import TelemetryBus, Topic
from repro.obs.export import ObservationSession
from repro.obs.profile import (
    PROFILE_SCHEMA,
    SimTimeProfiler,
    WallCounters,
    clear_wall,
    critical_path,
    folded_stacks,
    install_wall,
    installed_wall,
    profile_report,
    render_profile,
)
from repro.obs.span import Span
from repro.sim.rng import RngRegistry


def _pool_run(seed: int = 0, n_jobs: int = 3):
    pool = Pool(PoolConfig(n_machines=2, seed=seed))
    jobs = make_workload(
        WorkloadSpec(n_jobs=n_jobs, io_fraction=0.0, exception_fraction=0.0,
                     exit_code_fraction=0.0),
        RngRegistry(seed).stream("profile-test"),
    )
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=50_000)
    return pool


class TestSimTimeAttribution:
    def test_interval_charged_to_earlier_event(self):
        """Time between events belongs to whatever ran *before* it."""
        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        bus.emit(0.0, Topic.DAEMON, "negotiation_cycle")
        bus.emit(4.0, Topic.DAEMON, "match_made", job="j1")
        bus.emit(10.0, Topic.FAULT, "armed")
        profiler.detach()
        assert profiler.sim_time[("matchmaker", "-", "-")] == 10.0
        assert ("injector", "-", "-") not in profiler.sim_time

    def test_job_phase_state_machine(self):
        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        bus.emit(0.0, Topic.JOB, "submit", job="j1")
        bus.emit(5.0, Topic.JOB, "match", job="j1")
        bus.emit(6.0, Topic.JOB, "execute", job="j1")
        bus.emit(9.0, Topic.JOB, "result", job="j1")
        profiler.detach()
        snap = profiler.snapshot()
        by_triple = {
            (r["daemon"], r["phase"], r["scope"]): r["sim_time"]
            for r in snap["triples"]
        }
        assert by_triple[("schedd", "queued", "-")] == 5.0
        assert by_triple[("schedd", "claim", "-")] == 1.0
        assert by_triple[("schedd", "attempt", "-")] == 3.0
        # The terminal event pops the job's phase state.
        assert profiler._job_phase == {}

    def test_requeue_after_site_failure_returns_to_queued(self):
        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        bus.emit(0.0, Topic.JOB, "submit", job="j1")
        bus.emit(1.0, Topic.JOB, "match", job="j1")
        bus.emit(2.0, Topic.JOB, "site_failed", job="j1")
        bus.emit(8.0, Topic.JOB, "match", job="j1")
        profiler.detach()
        # queued carries 0->1 (post-submit) and 2->8 (post-requeue).
        queued = profiler.sim_time[("schedd", "queued", "-")]
        assert queued == 7.0

    def test_daemon_resolution_by_topic(self):
        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        bus.emit(0.0, Topic.PROCESS, "start", process="chirp:exec0")
        bus.emit(0.0, Topic.PROCESS, "start", process="ioserver-1")
        bus.emit(0.0, Topic.IO, "op", channel="rpc")
        bus.emit(0.0, Topic.ERROR, "hop", manager="shadow", scope="PROCESS")
        bus.emit(0.0, Topic.FAULT, "armed")
        profiler.detach()
        daemons = {r["daemon"] for r in profiler.snapshot()["triples"]}
        assert {"chirp", "remoteio", "rpc", "shadow", "injector"} <= daemons
        scopes = {r["scope"] for r in profiler.snapshot()["triples"]}
        assert "PROCESS" in scopes

    def test_snapshot_sorted_heaviest_first(self):
        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        bus.emit(0.0, Topic.FAULT, "armed")
        bus.emit(1.0, Topic.DAEMON, "negotiation_cycle")
        bus.emit(100.0, Topic.FAULT, "disarmed")
        profiler.detach()
        triples = profiler.snapshot()["triples"]
        assert triples[0]["daemon"] == "matchmaker"  # carries the 99s gap
        assert triples[0]["sim_time"] == 99.0

    def test_profiler_sees_a_real_pool_run(self):
        bus_events_before = 0
        with ObservationSession() as session:
            _pool_run(seed=0)
        snap = session.profiler.snapshot()
        assert snap["events"] > bus_events_before
        assert snap["sim_time"] > 0
        assert any(r["daemon"] == "matchmaker" for r in snap["triples"])


class TestCriticalPath:
    def _spans(self):
        return [
            Span(1, None, "job:1", "job", 0.0, 20.0, status="completed"),
            Span(2, 1, "queued", "phase", 0.0, 12.0),
            Span(3, 1, "attempt:1", "phase", 12.0, 20.0),
            Span(4, None, "job:2", "job", 0.0, 8.0, status="completed"),
            Span(5, 4, "queued", "phase", 0.0, 2.0),
            Span(6, 4, "attempt:1", "phase", 2.0, 8.0),
            Span(7, None, "error:1", "error", 3.0, 7.0, status="reported",
                 attrs={"scope": "JOB"}),
        ]

    def test_critical_job_is_latest_ending(self):
        cp = critical_path(self._spans())
        assert cp["critical_job"] == "job:1"
        assert cp["makespan"] == 20.0
        assert [hop["phase"] for hop in cp["path"]] == ["queued", "attempt:1"]

    def test_dominant_phase_per_job(self):
        cp = critical_path(self._spans())
        by_job = {row["job"]: row for row in cp["jobs"]}
        assert by_job["job:1"]["dominant_phase"] == "queued"
        assert by_job["job:1"]["dominant_share"] == 12.0 / 20.0
        assert by_job["job:2"]["dominant_phase"] == "attempt:1"

    def test_error_journeys_summarised(self):
        cp = critical_path(self._spans())
        assert cp["error_journeys"] == 1
        assert cp["slowest_error_journey"]["scope"] == "JOB"
        assert cp["slowest_error_journey"]["duration"] == 4.0

    def test_empty_span_set(self):
        cp = critical_path([])
        assert cp["critical_job"] is None
        assert cp["makespan"] == 0.0
        assert cp["path"] == []

    def test_open_spans_are_excluded(self):
        spans = [Span(1, None, "job:1", "job", 0.0, None)]
        assert critical_path(spans)["critical_job"] is None


class TestFoldedStacks:
    def test_folded_lines_are_micros_and_sorted(self):
        spans = [
            Span(1, None, "job:1", "job", 0.0, 10.0),
            Span(2, 1, "queued", "phase", 0.0, 4.0),
            Span(3, 1, "attempt:1", "phase", 4.0, 10.0),
        ]
        lines = folded_stacks(spans)
        assert lines == sorted(lines)
        assert "job:1;attempt:1 6000000" in lines
        assert "job:1;queued 4000000" in lines

    def test_residual_root_time_stays_on_root(self):
        spans = [
            Span(1, None, "job:1", "job", 0.0, 10.0),
            Span(2, 1, "queued", "phase", 0.0, 4.0),
        ]
        assert "job:1 6000000" in folded_stacks(spans)


class TestWallCounters:
    def test_add_tracks_calls_total_min_max(self):
        wall = WallCounters()
        wall.add("x", 10)
        wall.add("x", 30)
        snap = wall.snapshot()
        assert snap["x"]["calls"] == 2
        assert snap["x"]["total_seconds"] == 40 / 1e9
        assert snap["x"]["min_seconds"] == 10 / 1e9
        assert snap["x"]["max_seconds"] == 30 / 1e9

    def test_install_and_clear(self):
        import repro.chirp.proxy as proxy
        import repro.condor.classads.ad as ad
        import repro.condor.classads.parser as parser_mod
        import repro.remoteio.server as rio
        import repro.sim.engine as engine

        wall = WallCounters()
        install_wall(wall)
        try:
            for mod in (engine, ad, parser_mod, proxy, rio):
                assert mod.WALL_PROFILE is wall
            assert installed_wall() is wall
        finally:
            clear_wall()
        for mod in (engine, ad, parser_mod, proxy, rio):
            assert mod.WALL_PROFILE is None
        assert installed_wall() is None

    def test_uninstalled_run_pays_nothing_and_counts_when_installed(self):
        import repro.sim.engine as engine

        assert engine.WALL_PROFILE is None
        _pool_run(seed=0)  # no counters installed: hook stays None
        assert engine.WALL_PROFILE is None
        wall = WallCounters()
        install_wall(wall)
        try:
            _pool_run(seed=0)
        finally:
            clear_wall()
        assert wall.counters["sim.process_step"][0] > 0
        assert "classads.match" in wall.counters
        assert "classads.parse" in wall.counters

    def test_the_collector_is_a_wall_line_and_only_a_wall_line(self, tmp_path, capsys):
        import gc
        import hashlib
        import json

        from repro.harness.__main__ import main
        from repro.obs import profile as profile_mod
        from repro.obs.canonical import canonical_json, strip_wall

        path = tmp_path / "profile.json"
        assert main(["fig3", "--seed", "7", "--profile", str(path)]) == 0
        report = json.loads(path.read_text())
        gen0 = report["wall"]["gc.gen0"]
        assert gen0["calls"] > 0
        assert set(gen0) == set(report["wall"]["sim.process_step"])  # the existing shape
        assert {"gc.gen0", "gc.gen1", "gc.gen2"} >= {k for k in report["wall"] if k[:3] == "gc."}
        assert "gc.gen0" in capsys.readouterr().out  # printed with the other wall lines
        # The session cleared the hook with the counters.
        assert profile_mod._on_gc not in gc.callbacks
        # Everything outside ``wall`` is what it was before the collector
        # had a line (sha256 of the stripped report at the parent commit).
        stripped = canonical_json(strip_wall(report)).encode()
        assert hashlib.sha256(stripped).hexdigest() == (
            "a941de551c62ef4a58abe3800b69f2a846a4150136a6a6f64148d48d54e11476"
        )

    def test_gc_hook_is_installed_once_and_removed_by_clear_wall(self):
        import gc

        from repro.obs import profile as profile_mod

        wall = WallCounters()
        install_wall(wall)
        install_wall(wall)
        try:
            assert gc.callbacks.count(profile_mod._on_gc) == 1
            gc.collect()
            assert wall.counters["gc.gen2"][0] == 1
        finally:
            clear_wall()
        assert profile_mod._on_gc not in gc.callbacks
        gc.collect()
        assert wall.counters["gc.gen2"][0] == 1

    def test_wall_does_not_perturb_the_simulation(self):
        bare = _pool_run(seed=0)
        wall = WallCounters()
        install_wall(wall)
        try:
            timed = _pool_run(seed=0)
        finally:
            clear_wall()
        assert timed.sim.now == bare.sim.now
        assert timed.sim._seq == bare.sim._seq


class TestProfileReport:
    def test_schema_and_sections(self):
        with ObservationSession() as session:
            _pool_run(seed=0)
        report = session.profile_report()
        assert report["schema"] == PROFILE_SCHEMA
        assert set(report) == {"schema", "sim", "critical_path", "folded", "wall"}
        assert report["critical_path"]["critical_job"] is not None
        assert report["folded"]

    def test_same_seed_report_identical_after_wall_strip(self):
        from repro.obs.canonical import strip_wall

        reports = []
        for _ in range(2):
            with ObservationSession(profile=True) as session:
                _pool_run(seed=0)
            reports.append(session.profile_report())
        assert strip_wall(reports[0]) == strip_wall(reports[1])
        # Wall counters were live (profile=True), so the raw reports
        # carry measurement that the strip removed.
        assert reports[0]["wall"] is not None

    def test_profile_file_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"profile_{tag}.json"
            with ObservationSession(profile_path=str(path)):
                _pool_run(seed=0)
            paths.append(path)
        text = paths[0].read_text()
        assert '"schema"' in text
        # Wall counters live under the one "wall" key; scrub both files
        # the same way compare does and require byte identity.
        import json

        from repro.obs.canonical import strip_wall

        a = strip_wall(json.loads(paths[0].read_text()))
        b = strip_wall(json.loads(paths[1].read_text()))
        assert a == b

    def test_render_profile_smoke(self):
        with ObservationSession(profile=True) as session:
            _pool_run(seed=0)
        text = render_profile(session.profile_report())
        assert "where time went" in text
        assert "critical path" in text
        assert "wall-time counters" in text

    def test_render_profile_empty_report(self):
        bus = TelemetryBus()
        profiler = SimTimeProfiler(bus)
        profiler.detach()
        text = render_profile(profile_report(profiler, []))
        assert "(no events)" in text


class TestSessionFlushDeterminism:
    def test_trace_and_profile_files_byte_identical(self, tmp_path):
        """The profiler rides the same session plumbing as --trace."""
        pairs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"t_{tag}.jsonl"
            with ObservationSession(trace_path=str(trace)):
                _pool_run(seed=0)
            pairs.append(trace)
        assert filecmp.cmp(pairs[0], pairs[1], shallow=False)
