"""Fair share keys off the *token*, not a simulation knob.

Two tenants with distinct bearer tokens submit unequal load over HTTP;
one drain cycle folds everything into a single pool batch.  The
matchmaker must see the authenticated identities as owners and give the
light tenant (bob) better turnaround than the heavy one (alice) -- the
multi-tenant guarantee as an end-to-end property of the auth layer.
"""

import asyncio
import json
import statistics
import time

import pytest

from repro.service import (
    RunStore,
    ServiceApi,
    ServiceApiError,
    ServiceClient,
    ServiceConfig,
    ServiceExecutor,
    ServiceServer,
    mint_token,
)
from tests.service import drain_once

SECRET = "fair-share-secret"
ALICE_JOBS = 8
BOB_JOBS = 2
WORK = 20.0


def run_two_tenants():
    async def _main():
        store = RunStore(":memory:")
        api = ServiceApi(store, ServiceConfig(secret=SECRET))
        # No executor on the server: the drain is manual so every job
        # lands in ONE batch after all submissions are in.
        server = ServiceServer(api)
        await server.start()
        expires = int(time.time()) + 600
        alice = ServiceClient(
            "127.0.0.1", server.port, token=mint_token(SECRET, "alice", expires)
        )
        bob = ServiceClient(
            "127.0.0.1", server.port, token=mint_token(SECRET, "bob", expires)
        )
        try:
            alice_ids = [
                (await alice.submit_job({"work": WORK}))["run_id"]
                for _ in range(ALICE_JOBS)
            ]
            bob_ids = [
                (await bob.submit_job({"work": WORK}))["run_id"]
                for _ in range(BOB_JOBS)
            ]
            # One machine serializes the pool: fair share fully decides
            # who runs next, so the ordering effect is unmissable.
            executor = ServiceExecutor(store, workers=1, batch_machines=1)
            finished = drain_once(executor)

            cross_tenant_error = None
            try:
                await bob.run_status(alice_ids[0])
            except ServiceApiError as exc:
                cross_tenant_error = (exc.status, exc.code)

            def finish_times(run_ids):
                times = []
                for run_id in run_ids:
                    record = json.loads(store.get_artifact(run_id, "result"))
                    assert record["job_state"] == "COMPLETED"
                    times.append(record["finished_at"])
                return times

            batch = json.loads(store.get_artifact(alice_ids[0], "batch"))
            result_record = json.loads(store.get_artifact(alice_ids[0], "result"))
            return {
                "finished": finished,
                "batch": batch,
                "owner": result_record["owner"],
                "alice_times": finish_times(alice_ids),
                "bob_times": finish_times(bob_ids),
                "cross_tenant_error": cross_tenant_error,
            }
        finally:
            await alice.close()
            await bob.close()
            await server.stop()
            store.close()

    return asyncio.run(_main())


@pytest.fixture(scope="module")
def outcome():
    return run_two_tenants()


def test_all_jobs_finish_in_one_batch(outcome):
    assert outcome["finished"] == ALICE_JOBS + BOB_JOBS
    assert len(outcome["batch"]["jobs"]) == ALICE_JOBS + BOB_JOBS


def test_owners_are_the_authenticated_tenants(outcome):
    owners = {entry["owner"] for entry in outcome["batch"]["jobs"]}
    assert owners == {"alice", "bob"}
    assert outcome["owner"] == "alice"  # alice's own record carries her identity


def test_light_tenant_gets_better_turnaround(outcome):
    # Everything was submitted at sim time zero, so finish time IS
    # turnaround.  Under fair share bob's two jobs must not be starved
    # behind alice's eight.
    bob_mean = statistics.mean(outcome["bob_times"])
    alice_mean = statistics.mean(outcome["alice_times"])
    assert bob_mean < alice_mean, (
        f"fair share failed: bob mean turnaround {bob_mean} >= "
        f"alice mean {alice_mean}"
    )
    # Stronger: bob is fully done before alice's last job.
    assert max(outcome["bob_times"]) < max(outcome["alice_times"])


def test_cross_tenant_query_is_wrong_tenant(outcome):
    assert outcome["cross_tenant_error"] == (403, "WRONG_TENANT")
