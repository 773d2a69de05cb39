"""A per-layer metric that goes missing fails a named check; it never reads 0."""

from benchmarks.gridbench.cli import aggregate, failed_checks, load_manifest
from benchmarks.gridbench.layers import wall_layers
from benchmarks.gridbench.probes import NAMES
from benchmarks.gridbench.workloads import WORKLOADS


def declared():
    return [m["name"] for m in load_manifest()["per_layer"]]


def round_of(layer, run_s=2.0):
    return {
        "checks": {"ok": True}, "fingerprint": "f", "attempted": 1, "failed": 0,
        "setup_wall_s": 0.3, "run_wall_s": run_s, "peak_rss_mb": 50.0, "calib_s": 0.014,
        "layer": layer, "samples": {},
        "spans": [{"id": 0, "name": "gridbench.run", "start_ns": 0, "end_ns": 10,
                   "parent": None, "workload": "pool_backlog", "round": 1}],
    }


def pool_backlog_layer():
    """What a healthy traced pool_backlog round hands up (the parent derives the rest)."""
    derived = {"sim.events_per_host_s", "sim.host_us_per_event", "pool.events_per_job",
               "obs.trace_overhead_frac"}
    return {name: 3 for name in WORKLOADS["pool_backlog"].CROSSES
            if name not in derived and not name.startswith("host.")}


def aggregate_pool_backlog(layer):
    return aggregate(load_manifest(), "pool_backlog", 0.014, [round_of({})],
                     round_of(layer, 2.2), {})


def test_every_declared_metric_is_owed_by_some_workload_or_its_probes():
    owed = set()
    for module in WORKLOADS.values():
        owed.update(module.CROSSES, module.ZERO_OK)
        for group in module.PROBES:
            owed.update(NAMES[group])
        assert not set(module.CROSSES) & set(module.ZERO_OK)
    assert owed == set(declared())
    attached = [group for module in WORKLOADS.values() for group in module.PROBES]
    assert sorted(attached) == sorted(NAMES)  # each probe group runs once per set


def test_a_healthy_round_reports_what_it_crosses_and_nothing_else():
    result = aggregate_pool_backlog(pool_backlog_layer())
    assert not failed_checks(result)
    assert set(result["per_layer"]) == set(WORKLOADS["pool_backlog"].CROSSES)
    assert "campaign.cells" not in result["per_layer"]  # bypassed: left out, not 0
    assert list(result["per_layer"]) == [n for n in declared() if n in result["per_layer"]]


def test_a_crossed_metric_that_vanished_or_saw_nothing_fails_by_name():
    layer = pool_backlog_layer()
    del layer["classads.parse_calls"]  # the hook was renamed away
    layer["chirp.ops"] = 0  # the hook is there and never fired
    assert failed_checks(aggregate_pool_backlog(layer)) == [
        "crossed_layer_reports:classads.parse_calls", "crossed_layer_reports:chirp.ops",
    ]


def test_times_are_wall_seconds_at_the_reference_slice():
    slow = {**round_of({}, run_s=3.0), "calib_s": 0.021}  # the host ran at 2/3 speed
    result = aggregate(load_manifest(), "pool_backlog", 0.014, [slow])
    assert abs(result["end_to_end"]["run_s"]["value"] - 2.0) < 1e-9
    assert abs(result["end_to_end"]["setup_s"]["value"] - 0.2) < 1e-9
    assert result["end_to_end"]["peak_rss_mb"]["value"] == 50.0


def test_zero_is_a_reading_only_where_the_workload_says_so():
    module = WORKLOADS["service_roundtrip"]
    assert "service.rejected" in module.ZERO_OK and "service.requests" in module.CROSSES


def test_a_wall_counter_that_never_fired_yields_no_metric():
    counters = {"classads.parse": {"calls": 4, "total_seconds": 0.5},
                "chirp.prepare": {"calls": 2, "total_seconds": 0.1}}
    assert wall_layers(counters) == {
        "classads.parse_calls": 4, "classads.parse_busy_s": 0.5, "chirp.ops": 2,
    }  # no chirp.busy_s: chirp.translate is missing, and nothing for the absent layers
