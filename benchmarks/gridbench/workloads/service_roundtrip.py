"""service_roundtrip: HTTP submit -> drain -> simulate -> artifact.

A real :class:`ServiceServer` listens on loopback over a *file-backed*
:class:`RunStore` (what ``serve --db`` runs; one SQLite commit per
submit).  Two keep-alive client connections -- one per core, a closed
loop: each sends its next request only when the last one answered --
work through eight waves.  In a wave each client submits 20 jobs, the
executor drains the 40 pending runs through one deterministic pool
batch (collect, execute, record), and each client then reads the status
and the ``result`` artifact of the runs it submitted and verifies them.
Four sampled runs are finally replayed from their stored specs.

Writes (a disk commit each) sit beside reads on the same server, API
and store, so a journal-mode or batched-commit change that buys submits
at the cost of reads shows up here.

The 40 specs of one wave are identical and both connections carry the
same tenant's token: run ids are handed out in arrival order, and this
keeps the simulated batch independent of how the two connections
interleave.  The waves' work values are a fixed ladder that the seed
shuffles (and jitters by under 1 %), and the replayed runs are drawn by
the seed from the waves at four fixed rungs: simulated cost follows
work, so this way every seed costs the same and the metrics can be held
to a bound across seeds.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
from time import perf_counter, perf_counter_ns

from benchmarks.gridbench.layers import CLASSADS, EVERY, SIM

WHY = (
    "2 keep-alive clients x 8 waves of 20 submits -> drain -> status+artifact reads on a "
    "file-backed store, then 4 replays: server, api, auth, store, executor, one 8-machine pool"
)

SECRET = "gridbench-service-secret"
TENANT = "gridbench"
#: Fixed far-future expiry keeps every request byte-identical run to run.
TOKEN_EXPIRES = 2_208_988_800  # 2040-01-01
CLIENTS = 2
BATCH_MACHINES = 8

#: ``ladder``: simulated cpu-seconds per job, one rung per wave;
#: ``replay_rungs``: the rungs whose wave gets one run replayed.
FULL = {"ladder": (3, 4, 5, 6, 7, 8, 9, 10), "per_client": 20, "replay_rungs": (4, 6, 7, 9)}
SMOKE = {"ladder": (3, 5), "per_client": 3, "replay_rungs": (3, 5)}

CROSSES = (
    *SIM, *CLASSADS, *EVERY,
    "pool.jobs", "pool.events_per_job",
    "submit_ms_p50", "read_ms_p50", "result_ready_s",
    "service.requests", "service.request_busy_s.POST", "service.request_busy_s.GET",
    "service.submit_ms_p99", "service.read_ms_p99", "service.submit_rps",
    "service.client_wait_frac",
    "service.executor.collect_ms", "service.executor.execute_s",
    "service.executor.record_ms", "service.executor.replay_ms",
)
ZERO_OK = ("service.rejected", "service.executor.replay_mismatch")
PROBES = ("service",)


def wave_specs(seed: int, smoke: bool) -> list[dict]:
    """One job spec per wave (every submit of that wave sends it)."""
    size = SMOKE if smoke else FULL
    rng = random.Random(seed)
    ladder = list(size["ladder"])
    rng.shuffle(ladder)
    return [{"work": round(rung + rng.uniform(0.0, 0.05), 3)} for rung in ladder]


def setup(seed: int, smoke: bool, rec, tmp: str) -> dict:
    from repro.service import (
        RunStore,
        ServiceApi,
        ServiceClient,
        ServiceConfig,
        ServiceExecutor,
        ServiceServer,
        mint_token,
    )

    size = SMOKE if smoke else FULL
    db_path = os.path.join(tmp, "service.db")
    with rec.span("service.store.open"):
        store = RunStore(db_path)
    api = ServiceApi(
        store,
        ServiceConfig(secret=SECRET, queue_limit=10**6, bench_dir=None, results_db=None),
    )
    # No background drain task: the waves below call the executor's three
    # public phases themselves, on the loop thread, between the client phases.
    server = ServiceServer(api)
    loop = asyncio.new_event_loop()
    with rec.span("service.server.start"):
        loop.run_until_complete(server.start())
    token = mint_token(SECRET, TENANT, TOKEN_EXPIRES)
    return {
        "seed": seed,
        "size": size,
        "specs": wave_specs(seed, smoke),
        "store": store,
        "server": server,
        "executor": ServiceExecutor(store, workers=1, batch_machines=BATCH_MACHINES),
        "clients": [ServiceClient("127.0.0.1", server.port, token=token) for _ in range(CLIENTS)],
        "loop": loop,
        "submit_ns": [], "read_ns": [], "wave_s": [], "submit_phase_s": 0.0,
        "collect_ms": [], "execute_s": [], "record_ms": [], "replay_ms": [],
        "requests": 0, "request_failures": 0, "rejected": 0,
        "runs": [], "wave_runs": [], "bad_runs": [], "replay_mismatch": 0, "replays": 0,
        "drained": 0,
    }


def run(state: dict, rec) -> None:
    state["loop"].run_until_complete(_waves(state, rec))


async def _timed_request(state: dict, rec, parent: int, name: str, samples: list, call):
    """One client request: span, latency sample, typed failure accounting."""
    from repro.service import ServiceApiError

    span = rec.start(name, parent=parent)
    state["requests"] += 1
    t0 = perf_counter_ns()
    try:
        return await call
    except ServiceApiError:
        state["rejected"] += 1
        state["request_failures"] += 1
    except (OSError, asyncio.IncompleteReadError):
        state["request_failures"] += 1
    finally:
        samples.append(perf_counter_ns() - t0)
        rec.end(span)
    return None


async def _submit(state: dict, rec, parent: int, client, spec: dict) -> list[int]:
    run_ids = []
    for _ in range(state["size"]["per_client"]):
        reply = await _timed_request(
            state, rec, parent, "service.client.POST", state["submit_ns"],
            client.submit_job(spec),
        )
        if reply is not None:
            run_ids.append(reply["run_id"])
    return run_ids


async def _read(state: dict, rec, parent: int, client, run_ids: list[int]) -> None:
    for run_id in run_ids:
        status = await _timed_request(
            state, rec, parent, "service.client.GET", state["read_ns"],
            client.run_status(run_id),
        )
        artifact = await _timed_request(
            state, rec, parent, "service.client.GET", state["read_ns"],
            client.artifact(run_id, "result"),
        )
        ok = (
            status is not None
            and artifact is not None
            and status["state"] == "done"
            and status["detail"] == "COMPLETED"
            and json.loads(artifact)["matches_expected"] is True
        )
        if not ok:
            state["bad_runs"].append(run_id)


def _phase(rec, name: str, samples: list, scale: float, fn, *args):
    t0 = perf_counter()
    with rec.span(name):
        out = fn(*args)
    samples.append((perf_counter() - t0) * scale)
    return out


async def _waves(state: dict, rec) -> None:
    from repro.service import replay_run

    executor, clients = state["executor"], state["clients"]
    for spec in state["specs"]:
        with rec.span("wave.roundtrip") as wave:
            t0 = perf_counter()
            submitted = await asyncio.gather(
                *(_submit(state, rec, wave, client, spec) for client in clients)
            )
            state["submit_phase_s"] += perf_counter() - t0
            items = _phase(rec, "service.executor.collect_items", state["collect_ms"], 1e3,
                           executor.collect_items)
            results = _phase(rec, "service.executor.execute_items", state["execute_s"], 1.0,
                             executor.execute_items, items)
            state["drained"] += _phase(
                rec, "service.executor.record_results", state["record_ms"], 1e3,
                executor.record_results, items, results,
            )
            await asyncio.gather(
                *(_read(state, rec, wave, client, ids)
                  for client, ids in zip(clients, submitted))
            )
            state["wave_s"].append(perf_counter() - t0)
        wave_runs = sorted(run_id for ids in submitted for run_id in ids)
        state["runs"].extend(wave_runs)
        state["wave_runs"].append(wave_runs)
    rng = random.Random(state["seed"])
    for spec, wave_runs in zip(state["specs"], state["wave_runs"]):
        done = [run_id for run_id in wave_runs if run_id not in state["bad_runs"]]
        if int(spec["work"]) not in state["size"]["replay_rungs"] or not done:
            continue
        run_id = rng.choice(done)
        verdict = _phase(rec, "service.executor.replay_run", state["replay_ms"], 1e3,
                         replay_run, state["store"], run_id)
        state["replays"] += 1
        if not verdict["match"]:
            state["replay_mismatch"] += 1


def _shutdown(state: dict) -> None:
    """Close the clients first: stopping the server under open keep-alive
    connections logs a CancelledError traceback (a known wart of the edge)."""
    loop = state["loop"]
    for client in state["clients"]:
        loop.run_until_complete(client.close())
    loop.run_until_complete(state["server"].stop())
    loop.close()


def finish(state: dict, rec, traced: bool) -> dict:
    from benchmarks.gridbench.stats import percentile
    _shutdown(state)
    store, size = state["store"], state["size"]
    expected_runs = len(size["ladder"]) * size["per_client"] * CLIENTS
    replays = len(size["replay_rungs"])
    runs = sorted(state["runs"])
    digest = hashlib.sha256()
    for run_id in runs:
        if run_id not in state["bad_runs"]:
            digest.update(store.get_artifact(run_id, "result"))
    store.close()
    layer = {
        "submit_ms_p50": percentile(state["submit_ns"], 50) / 1e6,
        "read_ms_p50": percentile(state["read_ns"], 50) / 1e6,
        "result_ready_s": percentile(state["wave_s"], 50),
        "service.requests": state["server"].requests_served,
        "service.rejected": state["rejected"],
        "service.submit_ms_p99": percentile(state["submit_ns"], 99) / 1e6,
        "service.read_ms_p99": percentile(state["read_ns"], 99) / 1e6,
        "service.submit_rps": len(state["submit_ns"]) / state["submit_phase_s"],
        "service.executor.collect_ms": percentile(state["collect_ms"], 50),
        "service.executor.execute_s": percentile(state["execute_s"], 50),
        "service.executor.record_ms": percentile(state["record_ms"], 50),
        "service.executor.replay_ms": percentile(state["replay_ms"], 50),
        "service.executor.replay_mismatch": state["replay_mismatch"],
        "pool.jobs": len(runs),
    }
    return {
        "attempted": state["requests"] + expected_runs + replays,
        "failed": state["request_failures"]
        + (expected_runs - len(runs)) + len(state["bad_runs"])
        + (replays - state["replays"]) + state["replay_mismatch"],
        "checks": {
            "every_submit_accepted": len(runs) == expected_runs,
            "every_run_done_completed_and_as_expected": not state["bad_runs"],
            "drain_finished_every_run": state["drained"] == expected_runs,
            "every_replay_byte_identical": state["replays"] == replays
            and state["replay_mismatch"] == 0,
            "no_request_failed": state["request_failures"] == 0,
        },
        "fingerprint": digest.hexdigest(),
        "layer": layer,
        "samples": {
            "submit_ms": [ns / 1e6 for ns in state["submit_ns"]],
            "read_ms": [ns / 1e6 for ns in state["read_ns"]],
            "wave_s": state["wave_s"],
        },
    }
