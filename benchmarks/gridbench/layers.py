"""Per-layer metric names that several workloads report, grouped by source.

A workload module lists the per-layer metrics it must report in
``CROSSES`` (present and nonzero, or the run fails a named check) and in
``ZERO_OK`` (present; 0 is a reading, not an absence).  Every other
declared metric belongs to a layer the workload does not cross: the full
report leaves it out, and the one-line driver result, which has to carry
every name, carries 0 for it.
"""

#: Event kernel and telemetry bus: every workload that simulates.
SIM = (
    "sim.events", "sim.process_steps", "sim.process_step_busy_s",
    "sim.events_per_host_s", "sim.host_us_per_event", "obs.bus_events",
)
#: Wall counters ``classads.parse`` / ``classads.match``.
CLASSADS = (
    "classads.parse_calls", "classads.parse_busy_s",
    "classads.match_calls", "classads.match_busy_s",
)
#: Wall counters ``chirp.prepare`` + ``chirp.translate`` and ``remoteio.fs_op``.
REMOTE_IO = ("chirp.ops", "chirp.busy_s", "remoteio.fs_ops", "remoteio.busy_s")
#: What the two passes and the host say about any workload.
EVERY = (
    "obs.trace_overhead_frac",
    "host.setup_wall_s", "host.run_wall_s", "host.calib_s", "host.nproc", "host.python",
)

#: Per-layer metric -> the wall counters it reads (``calls`` of the first
#: for a count, ``total_seconds`` of all of them for a busy time).
WALL_COUNTS = {
    "sim.process_steps": "sim.process_step",
    "classads.parse_calls": "classads.parse",
    "classads.match_calls": "classads.match",
    "chirp.ops": "chirp.prepare",
    "remoteio.fs_ops": "remoteio.fs_op",
}
WALL_BUSY = {
    "sim.process_step_busy_s": ("sim.process_step",),
    "classads.parse_busy_s": ("classads.parse",),
    "classads.match_busy_s": ("classads.match",),
    "chirp.busy_s": ("chirp.prepare", "chirp.translate"),
    "remoteio.busy_s": ("remoteio.fs_op",),
    "service.request_busy_s.POST": ("service.request.POST",),
    "service.request_busy_s.GET": ("service.request.GET",),
}


def wall_layers(counters: dict) -> dict:
    """Per-layer numbers out of a wall-counter snapshot.

    A counter that never fired is not in the snapshot, and its metrics
    are then not in the result: the parent tells a layer the workload
    declares it crosses (a failed check) from one it bypasses.
    """
    layer = {
        metric: counters[name]["calls"]
        for metric, name in WALL_COUNTS.items() if name in counters
    }
    for metric, names in WALL_BUSY.items():
        if all(name in counters for name in names):
            layer[metric] = sum(counters[name]["total_seconds"] for name in names)
    return layer
