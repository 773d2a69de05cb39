"""Edge cases for the grid console, and histogram percentiles."""

from repro.condor.pool import Pool, PoolConfig
from repro.faults import FaultInjector
from repro.faults.faults import MachineCrash
from repro.obs.bus import TelemetryBus
from repro.obs.console import GridConsole
from repro.obs.metrics import MetricsRegistry


class TestPercentiles:
    def test_nearest_rank_on_1_to_100(self):
        registry = MetricsRegistry()
        for v in range(1, 101):
            registry.histogram("latency", float(v))
        assert registry.histogram_percentiles("latency")["p50"] == 50.0
        assert registry.histogram_percentiles("latency")["p95"] == 95.0
        assert registry.histogram_percentiles("latency")["p99"] == 99.0

    def test_percentile_is_an_observed_value(self):
        registry = MetricsRegistry()
        for v in (1.0, 100.0):
            registry.histogram("latency", v)
        # Nearest rank never interpolates: rank ceil(0.5*2)=1 -> 1.0.
        assert registry.histogram_percentiles("latency")["p50"] == 1.0
        assert registry.histogram_percentiles("latency")["p99"] == 100.0

    def test_single_observation(self):
        registry = MetricsRegistry()
        registry.histogram("latency", 7.0)
        for q in (50, 95, 99):
            assert registry.histogram_percentiles("latency")[f"p{q}"] == 7.0

    def test_absent_series_is_none(self):
        assert MetricsRegistry().histogram_percentiles("nope") is None

    def test_snapshot_carries_percentile_fields(self):
        registry = MetricsRegistry()
        for v in range(1, 21):
            registry.histogram("latency", float(v))
        snap = registry.snapshot()["histograms"]["latency"]
        assert snap["p50"] == 10.0
        assert snap["p95"] == 19.0
        assert snap["p99"] == 20.0

    def test_empty_histogram_percentiles_are_none(self):
        registry = MetricsRegistry()
        registry.histogram("latency", 1.0)
        registry._histograms.clear()
        registry.histogram("empty_check", 1.0)
        key = next(iter(registry._histograms.values()))
        key.values.clear()
        key.count = 0
        assert key.snapshot()["p50"] is None


class TestConsoleEdgeCases:
    def _run_empty_pool(self, seed=0):
        """A run with zero jobs: daemons heartbeat, nothing else happens."""
        pool = Pool(PoolConfig(n_machines=2, seed=seed))
        console = GridConsole(pool.bus)
        pool.sim.run(until=50.0)
        console.detach()
        return console

    def test_empty_run_renders_without_crashing(self):
        console = self._run_empty_pool()
        text = console.render()
        assert "grid console" in text
        assert "jobs" in text
        # No jobs ever ran: the makespan footer must not appear.
        assert "makespan" not in text

    def test_empty_run_output_is_stable(self):
        a = self._run_empty_pool(seed=0).render()
        b = self._run_empty_pool(seed=0).render()
        assert a == b

    def _run_fault_only_pool(self, seed=0):
        """Faults armed and fired with no workload submitted."""
        pool = Pool(PoolConfig(n_machines=2, seed=seed))
        console = GridConsole(pool.bus)
        injector = FaultInjector(pool)
        site = sorted(pool.machines)[0]
        injector.schedule(MachineCrash(site), at=5.0, until=20.0)
        pool.sim.run(until=60.0)
        console.detach()
        return console

    def test_fault_only_run_renders_without_crashing(self):
        console = self._run_fault_only_pool()
        text = console.render()
        assert "grid console" in text
        assert console.summary.counts  # the injector's events were folded in

    def test_fault_only_run_output_is_stable(self):
        a = self._run_fault_only_pool(seed=0).render()
        b = self._run_fault_only_pool(seed=0).render()
        assert a == b

    def test_where_time_went_panel_appears_with_events(self):
        bus = TelemetryBus()
        console = GridConsole(bus)
        bus.emit(0.0, "job", "submit", job="1.0")
        bus.emit(5.0, "job", "result", job="1.0")
        console.detach()
        text = console.render()
        assert "where time went" in text
        assert "makespan p50=5.0s p95=5.0s p99=5.0s" in text

    def test_truly_empty_console_renders(self):
        console = GridConsole(TelemetryBus())
        assert "(no events)" in console.render()
