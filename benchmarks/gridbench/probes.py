"""Probes: fixed-size loops over one layer's public API each.

A probe times nothing but calls into one layer, so its number moves
only when that layer does.  Probes come in groups, each attached to the
one workload that exercises its layer (the workload's ``PROBES``) and
run in a child process of its own; each probe returns ``{"value", "n"}``
under its metric name (units live in ``BENCHMARK.json``).  Per-call
latencies are medians; per-item costs are loop time divided by the item
count.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from time import perf_counter, perf_counter_ns

from benchmarks.gridbench.stats import percentile

PROBE_SEED = 7

FULL = {
    "dispatch": 200_000, "procs": 200, "yields": 500, "pingpongs": 5_000,
    "parse": 20_000, "compile": 20_000, "match_jobs": 50, "match_machines": 1_000,
    "cells": 40, "api_calls": 5_000, "verify": 20_000,
    "disk_submits": 1_200, "mem_submits": 5_000,
}
SMOKE = {
    "dispatch": 2_000, "procs": 10, "yields": 20, "pingpongs": 50,
    "parse": 200, "compile": 200, "match_jobs": 5, "match_machines": 40,
    "cells": 3, "api_calls": 50, "verify": 200,
    "disk_submits": 10, "mem_submits": 50,
}


#: Group -> the metrics it has to deliver.
NAMES = {
    "sim": ("sim.dispatch_ns_per_event", "sim.switch_ns_per_yield", "sim.net_roundtrip_ns"),
    "classads": (
        "classads.parse_ns_per_expr", "classads.compile_ns_per_expr",
        "classads.match_ns_per_pair",
    ),
    "campaign": ("campaign.cell_ms_p50", "campaign.cell_ms_p90", "campaign.shrink_ms"),
    "service": (
        "service.api.handle_submit_us", "service.api.handle_status_us",
        "service.auth.verify_us", "service.store.submit_disk_ms",
        "service.store.submit_mem_us", "service.store.read_us", "service.store.reopen_ms",
    ),
}


def _per_item(seconds: float, n: int, scale: float) -> dict:
    return {"value": seconds / n * scale, "n": n}


def _median_call(samples_ns: list[int], scale: float) -> dict:
    return {"value": percentile(samples_ns, 50) / scale, "n": len(samples_ns)}


# -- sim ----------------------------------------------------------------
def probe_sim(size: dict) -> dict:
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    n = size["dispatch"]
    sim = Simulator()
    t0 = perf_counter()
    for i in range(n):
        sim.call_at(float(i), int)
    sim.run()
    dispatch_s = perf_counter() - t0

    procs, yields = size["procs"], size["yields"]
    sim = Simulator()

    def ticker():
        for _ in range(yields):
            yield sim.timeout(1.0)

    t0 = perf_counter()
    for i in range(procs):
        sim.spawn(ticker(), name=f"ticker-{i}")
    sim.run()
    switch_s = perf_counter() - t0

    trips = size["pingpongs"]
    sim = Simulator()
    net = Network(sim)
    listener = net.listen("pong", 7)
    done = []

    def server():
        conn = yield from listener.accept()
        for _ in range(trips):
            message = yield from conn.recv()
            conn.send(message)

    def client():
        conn = yield from net.connect("ping", "pong", 7)
        for i in range(trips):
            conn.send(i)
            yield from conn.recv()
        done.append(True)

    t0 = perf_counter()
    sim.spawn(server(), name="pong")
    sim.spawn(client(), name="ping")
    sim.run()
    roundtrip_s = perf_counter() - t0
    if not done:
        raise RuntimeError("sim probe: the ping-pong client never finished")
    return {
        "sim.dispatch_ns_per_event": _per_item(dispatch_s, n, 1e9),
        "sim.switch_ns_per_yield": _per_item(switch_s, procs * yields, 1e9),
        "sim.net_roundtrip_ns": _per_item(roundtrip_s, trips, 1e9),
    }


# -- classads -----------------------------------------------------------
def probe_classads(size: dict) -> dict:
    from benchmarks.gridbench.workloads import negotiate_scale as ns
    from repro.condor.classads import compile_expr, match, parse

    sources = (ns.JOB_REQUIREMENTS, ns.JOB_RANK, ns.MACHINE_REQUIREMENTS, ns.OPAQUE_REQUIREMENTS)
    n = size["parse"]
    t0 = perf_counter()
    for i in range(n):
        parse(sources[i % len(sources)])
    parse_s = perf_counter() - t0

    trees = [parse(source) for source in sources]
    n_compile = size["compile"]
    t0 = perf_counter()
    for i in range(n_compile):
        compile_expr(trees[i % len(trees)])
    compile_s = perf_counter() - t0

    rng = random.Random(PROBE_SEED)
    machines = [ad for _, ad in ns.build_machines(size["match_machines"], rng)]
    jobs = [ad for _, ad in ns.build_jobs(size["match_jobs"], rng)]
    t0 = perf_counter()
    accepted = 0
    for job in jobs:
        for machine in machines:
            accepted += match(job, machine)
    match_s = perf_counter() - t0
    if not 0 < accepted < len(jobs) * len(machines):
        raise RuntimeError(f"classads probe: {accepted} matches is not a mixed outcome")
    return {
        "classads.parse_ns_per_expr": _per_item(parse_s, n, 1e9),
        "classads.compile_ns_per_expr": _per_item(compile_s, n_compile, 1e9),
        "classads.match_ns_per_pair": _per_item(match_s, len(jobs) * len(machines), 1e9),
    }


# -- campaign -----------------------------------------------------------
def probe_campaign(size: dict) -> dict:
    from repro.campaign.engine import run_cell_record
    from repro.campaign.shrink import minimize_cell
    from repro.campaign.spec import CampaignConfig, enumerate_cells

    config = CampaignConfig(mode="naive", seed=PROBE_SEED, max_order=2)
    cells = enumerate_cells(config)[: size["cells"]]
    cell_ns, violating = [], None
    for cell in cells:
        t0 = perf_counter_ns()
        record = run_cell_record(cell, config)
        cell_ns.append(perf_counter_ns() - t0)
        if violating is None and record["violations"]:
            violating = cell
    if violating is None:
        raise RuntimeError("campaign probe: no violating cell among the first cells")
    t0 = perf_counter()
    spec = minimize_cell(violating, config)
    shrink_s = perf_counter() - t0
    if not spec["expect"]:
        raise RuntimeError("campaign probe: the minimal cell no longer violates")
    return {
        "campaign.cell_ms_p50": _median_call(cell_ns, 1e6),
        "campaign.cell_ms_p90": {"value": percentile(cell_ns, 90) / 1e6, "n": len(cell_ns)},
        "campaign.shrink_ms": {"value": shrink_s * 1e3, "n": 1},
    }


# -- service ------------------------------------------------------------
def probe_service(size: dict) -> dict:
    from benchmarks.gridbench.workloads import service_roundtrip as sr
    from repro.service import RunStore, ServiceApi, ServiceConfig, mint_token, verify_token

    token = mint_token(sr.SECRET, sr.TENANT, sr.TOKEN_EXPIRES)
    headers = {"authorization": f"Bearer {token}"}
    body = json.dumps({"work": 5.0}).encode()
    spec = {"work": 5.0}

    store = RunStore(":memory:")
    api = ServiceApi(
        store, ServiceConfig(secret=sr.SECRET, queue_limit=10**9, bench_dir=None, results_db=None)
    )
    submit_ns, status_ns = [], []
    for _ in range(size["api_calls"]):
        t0 = perf_counter_ns()
        status, _, _ = api.handle("POST", "/v1/jobs", headers, body)
        submit_ns.append(perf_counter_ns() - t0)
        if status != 202:
            raise RuntimeError(f"service probe: submit answered {status}")
    for run_id in range(1, size["api_calls"] + 1):
        t0 = perf_counter_ns()
        status, _, _ = api.handle("GET", f"/v1/runs/{run_id}", headers, b"")
        status_ns.append(perf_counter_ns() - t0)
        if status != 200:
            raise RuntimeError(f"service probe: status answered {status}")
    store.close()

    n_verify = size["verify"]
    t0 = perf_counter()
    for _ in range(n_verify):
        verify_token(sr.SECRET, token, 0.0)
    verify_s = perf_counter() - t0

    mem = RunStore(":memory:")
    mem_ns, read_ns = [], []
    for _ in range(size["mem_submits"]):
        t0 = perf_counter_ns()
        run_id = mem.submit_run("job", sr.TENANT, spec)
        mem_ns.append(perf_counter_ns() - t0)
        mem.put_artifact(run_id, "result", body)
    for run_id in range(1, size["mem_submits"] + 1):
        t0 = perf_counter_ns()
        mem.run_status(run_id)
        mem.get_artifact(run_id, "result")
        read_ns.append(perf_counter_ns() - t0)
    mem.close()

    with tempfile.TemporaryDirectory(dir=size["tmp_root"], prefix="probe-store-") as tmp:
        path = os.path.join(tmp, "probe.db")
        disk = RunStore(path)
        disk_ns = []
        for _ in range(size["disk_submits"]):
            t0 = perf_counter_ns()
            disk.submit_run("job", sr.TENANT, spec)
            disk_ns.append(perf_counter_ns() - t0)
        disk.close()
        # What a restarted server pays: the state cache is rebuilt from
        # the journal on open.
        t0 = perf_counter()
        RunStore(path).close()
        reopen_s = perf_counter() - t0
    return {
        "service.api.handle_submit_us": _median_call(submit_ns, 1e3),
        "service.api.handle_status_us": _median_call(status_ns, 1e3),
        "service.auth.verify_us": _per_item(verify_s, n_verify, 1e6),
        "service.store.submit_disk_ms": _median_call(disk_ns, 1e6),
        "service.store.submit_mem_us": _median_call(mem_ns, 1e3),
        "service.store.read_us": _median_call(read_ns, 1e3),
        "service.store.reopen_ms": {"value": reopen_s * 1e3, "n": 1},
    }


def run_probes(group: str, smoke: bool, tmp_root: str | None) -> dict:
    groups = {"sim": probe_sim, "classads": probe_classads, "campaign": probe_campaign,
              "service": probe_service}
    out = groups[group]({**(SMOKE if smoke else FULL), "tmp_root": tmp_root})
    if set(out) != set(NAMES[group]):
        raise RuntimeError(f"{group} probes: delivered {sorted(out)}, owe {sorted(NAMES[group])}")
    return out
