"""negotiate_scale: the matchmaker driven directly at pool scale.

1 500 machine ads and 10 000 job ads go straight into
:meth:`Matchmaker.receive_ad`; a driver process renegotiates eight
times, the machines re-advertising between cycles, and every match
notification crosses the simulated network to a sink that swallows it.
The adversarial ads the paper's taxonomy warns about are mixed in at
fixed shares (claimed slots, black-hole requirements, mangled ports,
index-opaque requirements, unreachable submitters); the seed decides
*which* ads are adversarial and every ad's attribute values.

The event kernel, ClassAd match/compile, the requirement index and the
network do nearly all the work; schedd, startd, shadow, starter, JVM,
chirp and the service do none.
"""

from __future__ import annotations

import random
from time import perf_counter

from benchmarks.gridbench.layers import CLASSADS, EVERY, SIM

WHY = (
    "1.5k machines x 10k jobs x 8 cycles with adversarial ads: sim kernel, classads "
    "match, match index, network; bypasses schedd/startd/shadow/starter and the service"
)

SINK_HOST = "sink"
SINK_PORT = 9600
JOB_REQUIREMENTS = (
    'TARGET.arch == "intel" && TARGET.opsys == "linux" '
    "&& TARGET.memory >= MY.imagesize && TARGET.hasjava == TRUE"
)
JOB_RANK = "TARGET.memory + 10 * TARGET.cpuspeed"
OPAQUE_REQUIREMENTS = "TARGET.memory * 4 >= TARGET.disk"  # index-opaque
MACHINE_REQUIREMENTS = "TARGET.imagesize <= MY.memory"
BLACK_HOLE_REQUIREMENTS = "TARGET.absent > 1"  # UNDEFINED: rejects everyone

FULL = {"machines": 1500, "jobs": 10_000, "cycles": 8}
SMOKE = {"machines": 60, "jobs": 100, "cycles": 3}

CROSSES = (
    *SIM, *CLASSADS, *EVERY,
    "matchmaker.cycles", "matchmaker.matches", "matchmaker.match_ratio",
    "matchmaker.cycle_busy_s", "matchmaker.receive_ad_us",
)
ZERO_OK = ()
PROBES = ("sim", "classads")


def _subset(rng: random.Random, n: int, one_in: int) -> set[int]:
    """Exactly ``n // one_in`` indices, chosen by the seed."""
    return set(rng.sample(range(n), n // one_in))


def build_machines(n: int, rng: random.Random) -> list:
    from repro.condor.classads import ClassAd

    template = ClassAd({"arch": "intel", "opsys": "linux", "startdport": 9700,
                        "state": "unclaimed"})
    template.set_expr("requirements", MACHINE_REQUIREMENTS)
    no_java, claimed = _subset(rng, n, 7), _subset(rng, n, 13)
    black_hole, mangled = _subset(rng, n, 23), _subset(rng, n, 31)
    machines = []
    for i in range(n):
        name = f"exec{i:05d}"
        ad = template.copy()
        ad["name"] = name
        ad["machine"] = name
        ad["memory"] = 64 + rng.randrange(16) * 32
        ad["disk"] = 512 + rng.randrange(9) * 128
        ad["cpuspeed"] = 1 + rng.randrange(8)
        ad["hasjava"] = i not in no_java
        if i in claimed:
            ad["state"] = "claimed"  # owner is using it; never free
        if i in black_hole:
            ad.set_expr("requirements", BLACK_HOLE_REQUIREMENTS)
        if i in mangled:
            ad["startdport"] = "mangled-in-transit"  # must not kill a cycle
        machines.append((name, ad))
    return machines


def build_jobs(n: int, rng: random.Random) -> list:
    from repro.condor.classads import ClassAd

    template = ClassAd({"universe": "java", "scheddhost": SINK_HOST,
                        "scheddport": SINK_PORT})
    template.set_expr("requirements", JOB_REQUIREMENTS)
    template.set_expr("rank", JOB_RANK)
    opaque, bad_port, ghost = _subset(rng, n, 101), _subset(rng, n, 97), _subset(rng, n, 89)
    jobs = []
    for i in range(n):
        name = f"sub#{i:06d}"
        ad = template.copy()
        ad["jobid"] = name
        ad["owner"] = f"user{rng.randrange(8)}"
        ad["imagesize"] = 16 + rng.randrange(12) * 8
        if i in opaque:
            ad.set_expr("requirements", OPAQUE_REQUIREMENTS)
        if i in bad_port:
            ad["scheddport"] = "not-a-port"  # malformed reply channel
        if i in ghost:
            ad["scheddhost"] = "ghost"  # submitter fell off the network
        jobs.append((name, ad))
    return jobs


def setup(seed: int, smoke: bool, rec, tmp: str) -> dict:
    from repro.condor.daemons.config import CondorConfig
    from repro.condor.daemons.matchmaker import Matchmaker
    from repro.obs.bus import ambient_bus
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    size = SMOKE if smoke else FULL
    rng = random.Random(seed)
    sim = Simulator()
    # What Pool does for its simulator: inert unless a traced round has
    # installed a listening bus.
    sim.telemetry = ambient_bus()
    net = Network(sim)
    # The driver below runs the cycles; the built-in negotiation loop and
    # ad expiry are parked far in the simulated future.
    matchmaker = Matchmaker(
        sim, net, "cm", CondorConfig(negotiation_interval=10**9, ad_lifetime=10**9)
    )
    return {
        "sim": sim,
        "net": net,
        "matchmaker": matchmaker,
        "machines": build_machines(size["machines"], rng),
        "jobs": build_jobs(size["jobs"], rng),
        "cycles": size["cycles"],
        "notifications": 0,
        "cycle_s": [],
        "receive_s": 0.0,
        "ads_received": 0,
    }


def run(state: dict, rec) -> None:
    from repro.sim.network import NetworkError

    sim, mm = state["sim"], state["matchmaker"]
    sink = state["net"].listen(SINK_HOST, SINK_PORT)

    def drain(conn):
        try:
            while True:
                yield from conn.recv(timeout=60.0)
                state["notifications"] += 1
        except NetworkError:
            return

    def accept_loop():
        while True:
            conn = yield from sink.accept()
            sim.spawn(drain(conn), name="sink-drain").defuse()

    def receive(kind: str, ads: list) -> None:
        t0 = perf_counter()
        with rec.span("matchmaker.receive_ad"):
            for name, ad in ads:
                mm.receive_ad(kind, name, ad)
        state["receive_s"] += perf_counter() - t0
        state["ads_received"] += len(ads)

    def drive():
        receive("job", state["jobs"])
        for _ in range(state["cycles"]):
            # Startds advertise between cycles (matched slots come back
            # as the claim-and-release churn of a live pool).
            receive("machine", state["machines"])
            yield sim.timeout(1.0)
            t0 = perf_counter()
            with rec.span("matchmaker.run_cycle"):
                yield from mm.run_cycle()
            state["cycle_s"].append(perf_counter() - t0)

    sim.spawn(accept_loop(), name="sink-accept").defuse()
    sim.spawn(drive(), name="scale-driver").defuse()
    with rec.span("sim.run"):
        sim.run(until=10**8)


def finish(state: dict, rec, traced: bool) -> dict:
    from benchmarks.gridbench.stats import percentile

    mm = state["matchmaker"]
    deliverable = sum(
        1 for _, ad in state["jobs"]
        if ad.value("scheddhost") == SINK_HOST and ad.value("scheddport") == SINK_PORT
    )
    matches = mm.matches_made
    return {
        "attempted": matches,
        "failed": abs(matches - state["notifications"]),
        "checks": {
            "every_match_was_delivered": matches == state["notifications"],
            "matched_90pct_of_deliverable_jobs": matches >= 0.9 * deliverable,
            "ran_every_cycle": mm.cycles_run == state["cycles"],
        },
        "fingerprint": {
            "matches_made": matches,
            "owner_usage": {k: round(v, 6) for k, v in sorted(mm.owner_usage.items())},
            "sim_now": state["sim"].now,
        },
        "layer": {
            "matchmaker.cycles": mm.cycles_run,
            "matchmaker.matches": matches,
            "matchmaker.match_ratio": matches / len(state["jobs"]),
            "matchmaker.cycle_busy_s": percentile(state["cycle_s"], 50),
            "matchmaker.receive_ad_us": state["receive_s"] / state["ads_received"] * 1e6,
        },
        "samples": {},
    }
