"""The HTTP edge: routes, typed rejections, admission control.

Every test drives the real asyncio server over a real socket with the
real client -- the transport, parser, auth, and store all in the loop.
No pytest-asyncio dependency: each test owns a fresh event loop via
``asyncio.run``.
"""

import asyncio
import logging
import time

import pytest

from repro.service import (
    RunStore,
    ServiceApi,
    ServiceApiError,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    mint_token,
)

SECRET = "api-test-secret"


def run_service(coro_fn, queue_limit=100, now=None):
    """Start a server, run ``coro_fn(server, store)``, tear down."""

    async def _main():
        store = RunStore(":memory:")
        config = ServiceConfig(secret=SECRET, queue_limit=queue_limit, now=now or time.time)
        server = ServiceServer(ServiceApi(store, config))
        await server.start()
        try:
            return await coro_fn(server, store)
        finally:
            await server.stop()
            store.close()

    return asyncio.run(_main())


def token_for(user="alice", ttl=600):
    return mint_token(SECRET, user, int(time.time()) + ttl)


def client_for(server, token):
    return ServiceClient("127.0.0.1", server.port, token=token)


class TestRoutes:
    def test_health_is_unauthenticated(self):
        async def check(server, store):
            client = ServiceClient("127.0.0.1", server.port)
            try:
                return await client.health()
            finally:
                await client.close()

        health = run_service(check)
        assert health["ok"] is True
        assert health["schema"] == "repro-service/1"

    def test_submit_then_status_then_queue(self):
        async def check(server, store):
            client = client_for(server, token_for())
            try:
                run = await client.submit_job({"work": 5.0})
                status = await client.run_status(run["run_id"])
                queue = await client.queue()
                return run, status, queue
            finally:
                await client.close()

        run, status, queue = run_service(check)
        assert run == {"run_id": 1, "kind": "job", "state": "submitted"}
        assert status["state"] == "submitted"
        assert status["tenant"] == "alice"
        assert queue["by_tenant"] == {"alice": 1}

    def test_unknown_route_and_unknown_run_are_404(self):
        async def check(server, store):
            client = client_for(server, token_for())
            try:
                codes = []
                for path in ("/v1/nonsense", "/v1/runs/42", "/nope"):
                    response = await client.request("GET", path)
                    codes.append((response.status, response.json()["error"]["code"]))
                return codes
            finally:
                await client.close()

        assert run_service(check) == [(404, "NOT_FOUND")] * 3

    def test_artifact_listing_before_completion_is_empty(self):
        async def check(server, store):
            client = client_for(server, token_for())
            try:
                run = await client.submit_job({"work": 5.0})
                listing = await client.request(
                    "GET", f"/v1/runs/{run['run_id']}/artifacts"
                )
                missing = await client.request(
                    "GET", f"/v1/runs/{run['run_id']}/artifacts/trace"
                )
                return listing.json(), missing.status
            finally:
                await client.close()

        listing, missing_status = run_service(check)
        assert listing["artifacts"] == []
        assert missing_status == 404


class TestAuthRejections:
    def _submit_code(self, token):
        async def check(server, store):
            client = ServiceClient("127.0.0.1", server.port, token=token)
            try:
                with pytest.raises(ServiceApiError) as excinfo:
                    await client.submit_job({"work": 1.0})
                return excinfo.value.status, excinfo.value.code
            finally:
                await client.close()

        return run_service(check)

    def test_missing_token(self):
        assert self._submit_code(None) == (401, "UNAUTHENTICATED")

    def test_garbled_token(self):
        assert self._submit_code("sv1.alice.garbage") == (401, "TOKEN_INVALID")

    def test_expired_token(self):
        expired = mint_token(SECRET, "alice", int(time.time()) - 10)
        assert self._submit_code(expired) == (401, "TOKEN_EXPIRED")

    def test_token_from_other_deployment(self):
        foreign = mint_token("other-secret", "alice", int(time.time()) + 600)
        assert self._submit_code(foreign) == (401, "TOKEN_INVALID")


class TestWrongTenant:
    def test_cross_tenant_status_and_artifacts_are_403(self):
        async def check(server, store):
            alice = client_for(server, token_for("alice"))
            bob = client_for(server, token_for("bob"))
            try:
                run = await alice.submit_job({"work": 1.0})
                with pytest.raises(ServiceApiError) as status_err:
                    await bob.run_status(run["run_id"])
                with pytest.raises(ServiceApiError) as artifact_err:
                    await bob.artifact(run["run_id"], "result")
                own = await bob.submit_job({"work": 1.0})
                own_status = await bob.run_status(own["run_id"])
                return status_err.value, artifact_err.value, own_status
            finally:
                await alice.close()
                await bob.close()

        status_err, artifact_err, own_status = run_service(check)
        assert (status_err.status, status_err.code) == (403, "WRONG_TENANT")
        assert (artifact_err.status, artifact_err.code) == (403, "WRONG_TENANT")
        assert own_status["tenant"] == "bob"


class TestBadSpecs:
    def _reject(self, route, payload):
        async def check(server, store):
            client = client_for(server, token_for())
            try:
                with pytest.raises(ServiceApiError) as excinfo:
                    await client._json("POST", route, payload)
                return excinfo.value.status, excinfo.value.code
            finally:
                await client.close()

        return run_service(check)

    def test_job_spec_rejections(self):
        for payload in (
            {},                               # work missing
            {"work": 0.0},                    # non-positive
            {"work": 1e9},                    # over cap
            {"work": 1.0, "owner": "root"},   # identity smuggling
            {"work": 1.0, "exception": "Boom"},
            {"work": 1.0, "exit_code": 77},
            {"work": 1.0, "nonsense": 1},
        ):
            assert self._reject("/v1/jobs", payload) == (400, "BAD_REQUEST")

    def test_experiment_spec_rejections(self):
        assert self._reject("/v1/experiments", {"experiment": "nope"}) == (400, "BAD_REQUEST")
        assert self._reject(
            "/v1/experiments", {"experiment": "fig1", "seed": "zero"}
        ) == (400, "BAD_REQUEST")

    def test_campaign_spec_rejections(self):
        assert self._reject("/v1/campaigns", {"mode": "yolo"}) == (400, "BAD_REQUEST")
        assert self._reject(
            "/v1/campaigns", {"kinds": ["made_up_fault"]}
        ) == (400, "BAD_REQUEST")

    def test_malformed_json_body(self):
        async def check(server, store):
            client = client_for(server, token_for())
            try:
                # Bypass the client's JSON encoding with raw garbage.
                client._writer = None  # force fresh connection state
                await client._connect()
                body = b"{not json"
                client._writer.write(
                    (
                        f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                        f"Authorization: Bearer {token_for()}\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode() + body
                )
                await client._writer.drain()
                raw = await client._reader.readuntil(b"\r\n")
                return int(raw.split(b" ")[1])
            finally:
                await client.close()

        assert run_service(check) == 400


class TestAdmissionControl:
    def test_queue_full_is_typed_and_graceful(self):
        async def check(server, store):
            client = client_for(server, token_for())
            try:
                accepted = [await client.submit_job({"work": 1.0}) for _ in range(3)]
                with pytest.raises(ServiceApiError) as excinfo:
                    await client.submit_job({"work": 1.0})
                # The connection survives the rejection: next query works.
                queue = await client.queue()
                return accepted, excinfo.value, queue
            finally:
                await client.close()

        accepted, err, queue = run_service(check, queue_limit=3)
        assert len(accepted) == 3
        assert (err.status, err.code) == (429, "QUEUE_FULL")
        assert queue["active"] == 3

    def test_concurrent_submitters_split_exactly_at_the_limit(self):
        """80 one-connection clients at once against a limit of 50: admission
        is checked on the loop thread, so the split is exact and every
        request is accounted for -- stored, or rejected typed."""
        submitters, limit = 80, 50

        async def check(server, store):
            token = token_for("load")

            async def submit_one():
                client = client_for(server, token)
                try:
                    return (await client.submit_job({"work": 5.0}))["run_id"]
                except ServiceApiError as exc:
                    return exc.code
                finally:
                    await client.close()

            outcomes = await asyncio.gather(*(submit_one() for _ in range(submitters)))
            return outcomes, store.queue_stats(), server.requests_served

        outcomes, stored, served = run_service(check, queue_limit=limit)
        assert sorted(o for o in outcomes if isinstance(o, int)) == list(range(1, limit + 1))
        rejected = [o for o in outcomes if not isinstance(o, int)]
        assert rejected == ["QUEUE_FULL"] * (submitters - limit)
        assert stored["total"] == limit and stored["by_tenant"] == {"load": limit}
        assert served == submitters


class TestShutdown:
    def test_stop_hangs_up_idle_keepalive_clients(self, caplog, capfd):
        """stop() with clients still attached: each sees a clean EOF, and
        no handler is left for loop teardown to cancel (which asyncio
        reports as a CancelledError traceback)."""

        async def check(server, store):
            clients = [client_for(server, token_for()) for _ in range(2)]
            try:
                for client in clients:
                    await client.health()  # leaves the connection open, idle
                await asyncio.wait_for(server.stop(), timeout=5)
                return [
                    await asyncio.wait_for(client._reader.read(), timeout=5)
                    for client in clients
                ]
            finally:
                for client in clients:
                    await client.close()

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            leftovers = run_service(check)
        assert leftovers == [b"", b""]
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert capfd.readouterr().err == ""
