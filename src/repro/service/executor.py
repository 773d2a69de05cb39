"""The executor bridge: accepted runs in, deterministic artifacts out.

This is the single crossing from the concurrent edge into the
deterministic core, and it is built from *pure, picklable functions*:
:func:`execute_batch`, :func:`execute_experiment`,
:func:`execute_campaign` each map a stored spec to a result with no
ambient state, no wall clock in the result, and no store access.  The
:class:`ServiceExecutor` fans them over the existing
:class:`repro.harness.parallel.ParallelRunner` -- worker processes are
where the service's real parallelism lives, and each worker runs the
same byte-deterministic code path as ``python -m repro.harness``.

The drain cycle is split so SQLite stays on the event-loop thread::

    items   = executor.collect_items()      # loop thread: store reads + 'running'
    results = executor.execute_items(items)  # blocking, pure; to_thread-able
    executor.record_results(items, results)  # loop thread: artifacts + 'done'

Phases 1 and 3 are synchronous and each a store transaction (one for
the whole claim, one per recorded item); nothing awaits inside one.

Pending grid jobs are gathered (in run-id order) into a single *batch
spec* and executed as one pool run: every tenant's jobs compete in the
same matchmaker, whose fair share keys off the ``owner`` attribute --
which the bridge sets to the authenticated tenant, making multi-tenant
fair share an end-to-end property of the token, not a simulation knob.

:func:`replay_run` closes the loop: re-execute any stored run's spec
and compare artifacts byte-for-byte.
"""

from __future__ import annotations

import asyncio
import json
import traceback

from repro.boundary import BadRequest
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignConfig
from repro.condor import Job, Pool, PoolConfig, ProgramImage
from repro.harness.experiments import ExperimentSpec, harness_payload
from repro.harness.parallel import ParallelRunner, WorkerFailure
from repro.harness.workloads import expected_result_for
from repro.jvm.program import JavaProgram, Step
from repro.obs.canonical import canonical_json, pretty_json, to_jsonable
from repro.obs.export import ObservationSession, render_metrics
from repro.service.specs import JobSpec, build_batch_spec
from repro.service.store import RunStore

__all__ = [
    "ServiceExecutor",
    "execute_batch",
    "execute_campaign",
    "execute_experiment",
    "execute_item",
    "replay_run",
    "run_artifacts",
]

BATCH_RESULT_SCHEMA = "repro-service-batch-result/1"

#: Artifact names compared by :func:`replay_run` per run kind.  The
#: ``table`` artifact carries a wall-clock footer and is evidence, not
#: contract; ``batch`` is the input spec itself.
REPLAYED_ARTIFACTS = {
    "job": ("result",),
    "experiment": ("result", "trace", "metrics"),
    "campaign": ("report",),
}

#: Simulated-time budget of one grid-job batch's pool run.
BATCH_MAX_TIME = 1_000_000.0

#: Wall seconds the drain task sleeps when it finds nothing to run.
POLL_INTERVAL = 0.05


# ---------------------------------------------------------------------------
# Pure execution functions (run in worker processes)
# ---------------------------------------------------------------------------

def _batch_job(entry: dict) -> Job:
    """One submitted grid job as a simulated Job, owner = tenant."""
    spec = JobSpec.from_dict(entry["spec"])
    steps = [Step.compute(spec.work)]
    if spec.exception:
        steps.append(Step.throw(spec.exception))
    elif spec.exit_code:
        steps.append(Step.exit(spec.exit_code))
    program = JavaProgram(name=f"Svc{entry['run_id']}", steps=steps)
    job = Job(
        job_id=f"svc.{entry['run_id']}",
        owner=entry["owner"],
        image=ProgramImage(f"svc{entry['run_id']}.class", program=program),
    )
    job.expected_result = expected_result_for(program)
    return job


def execute_batch(batch: dict) -> dict:
    """Run one deterministic pool batch; return per-job records.

    Every job's ``owner`` ad attribute is the authenticated tenant, so
    the matchmaker's fair-share ordering (least effective usage first)
    operates on real identities.  Deterministic given *batch*.
    """
    pool = Pool(PoolConfig(n_machines=batch["n_machines"], seed=batch["seed"]))
    jobs = [_batch_job(entry) for entry in batch["jobs"]]
    for job in jobs:
        pool.submit(job)
    pool.run_until_done(max_time=batch["max_time"], expected_jobs=len(jobs))
    records = []
    for entry, job in zip(batch["jobs"], jobs):
        last = job.attempts[-1] if job.attempts else None
        records.append({
            "run_id": entry["run_id"],
            "owner": entry["owner"],
            "job_state": job.state.name,
            "attempts": job.attempt_count,
            "finished_at": None if last is None else last.ended,
            "result": None if job.final_result is None else to_jsonable(job.final_result),
            "expected_result": to_jsonable(job.expected_result),
            "matches_expected": (
                job.final_result is not None
                and job.final_result.same_outcome(job.expected_result)
            ),
        })
    return {
        "schema": BATCH_RESULT_SCHEMA,
        "makespan": pool.sim.now,
        "owners": sorted({entry["owner"] for entry in batch["jobs"]}),
        "owner_usage": {
            owner: round(usage, 6)
            for owner, usage in sorted(pool.matchmaker.owner_usage.items())
        },
        "jobs": records,
    }


def execute_experiment(spec: dict) -> dict:
    """Run one named experiment exactly as the CLI does.

    The trace and metrics artifacts come from an
    :class:`ObservationSession` wrapping the same
    ``run_experiment_record`` call ``python -m repro.harness`` makes, so
    they are byte-identical to a CLI run with ``--trace``/``--metrics``
    at the same seed (the acceptance test pins this).
    """
    run = ExperimentSpec.from_dict(spec)
    with ObservationSession() as session:
        record = run.record()
    return {
        # The CLI's --json envelope, so a replay via ``python -m
        # repro.harness --json`` is a byte comparison.
        "payload": harness_payload(run.seed, {run.experiment: record["data"]}),
        "rendered": record["rendered"],
        "trace": session.trace_text(),
        "metrics": render_metrics(session.registry),
    }


def execute_campaign(spec: dict) -> dict:
    """Run a bounded fault-campaign matrix; return its JSON report."""
    return run_campaign(CampaignConfig.from_dict(spec), jobs=1, shrink=True)


def run_artifacts(kind: str, result: dict) -> dict[str, bytes]:
    """The artifacts a finished run of *kind* stores, from its result.

    ``record_results`` writes them and :func:`replay_run` rebuilds and
    compares them, so both sides are one writer by construction.  A
    ``job``'s result is its own record of the batch result.
    """
    if kind == "experiment":
        return {
            "result": pretty_json(result["payload"]).encode(),
            "trace": result["trace"].encode(),
            "metrics": result["metrics"].encode(),
            "table": result["rendered"].encode(),
        }
    return {("result" if kind == "job" else "report"): pretty_json(result).encode()}


def execute_item(item_json: str) -> dict:
    """Worker entrypoint: one drain item in, ``{"ok", ...}`` out.

    Items travel as canonical-JSON strings (hashable, picklable, unique
    by run id).  Failures are data, not exceptions: a bad spec or a bug
    in one run must not take down the drain cycle (P1 at the edge).
    """
    item = json.loads(item_json)
    try:
        if item["kind"] == "grid-batch":
            return {"ok": True, "result": execute_batch(item["batch"])}
        if item["kind"] == "experiment":
            return {"ok": True, "result": execute_experiment(item["spec"])}
        if item["kind"] == "campaign":
            return {"ok": True, "result": execute_campaign(item["spec"])}
        return {"ok": False, "error": f"unknown item kind {item['kind']!r}"}
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a typed failure record
        # Whatever a run raises, an exit included, fails that run and not the drain cycle.
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# The drain loop
# ---------------------------------------------------------------------------

class ServiceExecutor:
    """Drains the store's pending runs onto worker processes.

    Parameters
    ----------
    store:
        The run store; touched only from :meth:`collect_items` and
        :meth:`record_results` (the event-loop thread).
    workers:
        Process fan-out for independent items; ``1`` runs in-process
        (the deterministic-friendly mode benchmarks use).
    batch_machines / batch_seed:
        Shape of the pool each grid-job batch runs on.
    """

    def __init__(
        self,
        store: RunStore,
        workers: int = 1,
        batch_machines: int = 8,
        batch_seed: int = 0,
    ):
        self.store = store
        self.workers = workers
        self.batch_machines = batch_machines
        self.batch_seed = batch_seed

    # -- phase 1: store reads + claim (loop thread) ----------------------
    def collect_items(self) -> list[str]:
        """Claim every pending run; return drain items as JSON strings."""
        pending = self.store.pending_runs()
        if not pending:
            return []
        items: list[dict] = []
        job_entries = [row for row in pending if row["kind"] == "job"]
        if job_entries:
            batch = build_batch_spec(
                job_entries,
                n_machines=self.batch_machines,
                seed=self.batch_seed,
                max_time=BATCH_MAX_TIME,
            )
            items.append({
                "kind": "grid-batch",
                "run_ids": [entry["run_id"] for entry in batch["jobs"]],
                "batch": batch,
            })
        for row in pending:
            if row["kind"] in ("experiment", "campaign"):
                items.append({
                    "kind": row["kind"],
                    "run_id": row["run_id"],
                    "spec": row["spec"],
                })
        with self.store.transaction():
            for row in pending:
                self.store.record_state(row["run_id"], "running")
        return [canonical_json(item) for item in items]

    # -- phase 2: pure execution (safe off-thread) -----------------------
    def execute_items(self, items: list[str]) -> list[dict]:
        """Run the items (fanned over workers); aligned with *items*.

        A worker that crashes or hangs outright surfaces as a failure
        record for every item of this cycle -- explicit, never a
        silently missing result.
        """
        runner = ParallelRunner(execute_item, workers=self.workers)
        try:
            return [outcome.value for outcome in runner.map(items)]
        except WorkerFailure as exc:
            return [{"ok": False, "error": f"worker failure: {exc}"} for _ in items]

    # -- phase 3: store writes (loop thread) -----------------------------
    def record_results(self, items: list[str], results: list[dict]) -> int:
        """Write artifacts and terminal states; return runs finished.

        One transaction per drain item: a batch's artifacts and ``done``
        rows land together or not at all, so a run is never ``done``
        without its artifacts nor holds artifacts while ``running``.
        """
        finished = 0
        for item_json, outcome in zip(items, results):
            item = json.loads(item_json)
            record = self._record_batch if item["kind"] == "grid-batch" else self._record_single
            with self.store.transaction():
                finished += record(item, outcome)
        return finished

    def _record_batch(self, item: dict, outcome: dict) -> int:
        if not outcome["ok"]:
            for run_id in item["run_ids"]:
                self.store.record_state(run_id, "failed", detail=outcome["error"])
            return len(item["run_ids"])
        batch_bytes = pretty_json(item["batch"]).encode()
        by_run = {record["run_id"]: record for record in outcome["result"]["jobs"]}
        for run_id in item["run_ids"]:
            record = by_run[run_id]
            self._put_artifacts(run_id, {**run_artifacts("job", record), "batch": batch_bytes})
            self.store.record_state(run_id, "done", detail=record["job_state"])
        return len(item["run_ids"])

    def _put_artifacts(self, run_id: int, artifacts: dict[str, bytes]) -> None:
        for name, content in artifacts.items():
            self.store.put_artifact(run_id, name, content)

    def _record_single(self, item: dict, outcome: dict) -> int:
        run_id = item["run_id"]
        if not outcome["ok"]:
            self.store.record_state(run_id, "failed", detail=outcome["error"])
            return 1
        self._put_artifacts(run_id, run_artifacts(item["kind"], outcome["result"]))
        self.store.record_state(run_id, "done")
        return 1

    # -- composition -----------------------------------------------------
    async def drain_forever(self) -> None:
        """The server's background drain task.

        Store access stays on the event-loop thread; only the pure
        execution phase moves to a thread so the loop keeps serving
        requests while the core simulates.
        """
        stranded = False  # set when a store error ends a cycle
        while True:
            try:
                if stranded:  # its unit rolled back; the runs it claimed go back
                    self.store.requeue_running()
                    stranded = False
                items = self.collect_items()
                if items:
                    results = await asyncio.to_thread(self.execute_items, items)
                    self.record_results(items, results)
                    continue
            except Exception:  # noqa: BLE001 - a store error ends the cycle, not the drain
                traceback.print_exc()
                stranded = True
            await asyncio.sleep(POLL_INTERVAL)


# ---------------------------------------------------------------------------
# Replay: the store row is the reproduction
# ---------------------------------------------------------------------------

def replay_run(store: RunStore, run_id: int) -> dict:
    """Re-execute a finished run from its stored spec; compare artifacts.

    Returns ``{"run_id", "kind", "checked": {artifact: bool}, "match"}``.
    ``match`` is True iff every replay-relevant artifact came out
    byte-identical -- the boundary contract made checkable.
    """
    status = store.run_status(run_id)
    if status["state"] != "done":
        raise BadRequest(f"run {run_id} is {status['state']!r}; only done runs replay")
    kind = status["kind"]
    if kind == "job":
        batch = json.loads(store.get_artifact(run_id, "batch"))
        (result,) = (r for r in execute_batch(batch)["jobs"] if r["run_id"] == run_id)
    elif kind == "experiment":
        result = execute_experiment(status["spec"])
    elif kind == "campaign":
        result = execute_campaign(status["spec"])
    else:
        raise ValueError(f"run {run_id} has unknown kind {kind!r}")
    fresh = run_artifacts(kind, result)
    checked = {
        name: store.get_artifact(run_id, name) == fresh[name]
        for name in REPLAYED_ARTIFACTS[kind]
    }
    return {
        "run_id": run_id,
        "kind": kind,
        "checked": checked,
        "match": all(checked.values()),
    }
