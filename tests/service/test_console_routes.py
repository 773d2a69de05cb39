"""GridConsole mounting: /console and /v1/results/* over real HTTP.

Same harness as test_api_http: a real asyncio server on a real socket,
the real client, no mocks.  The console routes are unauthenticated
read-only observability, so every test here runs without a token.
"""

import asyncio
import json

from repro.obs.store import ResultsStore
from repro.service import RunStore, ServiceApi, ServiceConfig, ServiceServer
from repro.service.client import ServiceClient

SECRET = "console-test-secret"


def _workload(fingerprint, run_s):
    return {
        "attempted": 1, "failed": 0, "checks": {}, "fingerprint": fingerprint,
        "end_to_end": {"run_s": {"value": run_s, "q1": run_s, "q3": run_s, "n": 5, "unit": "s"}},
        "per_layer": {"sim.events": {"value": 4, "unit": "count"}},
    }


GRIDBENCH_DOC = {
    "schema": "repro-gridbench/1",
    "runs": [{"seed": 7, "smoke": False, "workloads": {
        "toy": _workload("a" * 64, 0.2), "other": _workload("b" * 64, 1.5),
    }}],
}

PROFILE_REPORT = {
    "schema": "repro-profile/1",
    "sim": {"events": 4, "sim_time": 2.0, "triples": [
        {"daemon": "schedd", "phase": "match", "scope": "-", "events": 4, "sim_time": 2.0},
    ]},
    "critical_path": {}, "histograms": {}, "folded": ["schedd;match 2.0"], "wall": None,
}

TRACE_JSONL = "\n".join([
    json.dumps({"kind": "event", "topic": "error", "name": "hop",
                "time": 1.0, "attrs": {"scope": "JOB"}}),
    json.dumps({"kind": "event", "topic": "error", "name": "hop",
                "time": 2.0, "attrs": {"scope": "GRID"}}),
])


def seeded_db(tmp_path):
    db = tmp_path / "results.db"
    store = ResultsStore(db)
    store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="aaa")
    store.ingest_text(TRACE_JSONL, source="t.jsonl", commit="aaa")
    store.close()
    return db


def run_console(coro_fn, results_db):
    async def _main():
        store = RunStore(":memory:")
        config = ServiceConfig(secret=SECRET, results_db=results_db)
        server = ServiceServer(ServiceApi(store, config))
        await server.start()
        client = ServiceClient("127.0.0.1", server.port)
        try:
            return await coro_fn(client, server)
        finally:
            await client.close()
            await server.stop()
            store.close()

    return asyncio.run(_main())


class TestConsolePage:
    def test_console_serves_html_unauthenticated(self, tmp_path):
        async def check(client, server):
            return await client.request("GET", "/console")

        response = run_console(check, seeded_db(tmp_path))
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/html")
        page = response.body.decode("utf-8")
        assert "GridConsole" in page
        # The page drives exactly the mounted data routes.
        for route in ("summary", "errors", "flame", "matrix", "trend"):
            assert f"/v1/results/{route}" in page

    def test_console_renders_even_when_store_missing(self, tmp_path):
        async def check(client, server):
            page = await client.request("GET", "/console")
            data = await client.request("GET", "/v1/results/summary")
            return page, data

        page, data = run_console(check, tmp_path / "missing.db")
        assert page.status == 200  # the page always renders...
        assert data.status == 404  # ...and the data route says why it's empty
        assert data.json()["error"]["code"] == "NO_RESULTS_DB"

    def test_console_disabled_is_a_404(self, tmp_path):
        async def check(client, server):
            return await client.request("GET", "/console")

        response = run_console(check, None)
        assert response.status == 404


class TestResultsRoutes:
    def test_summary_reports_runs_and_live_traffic(self, tmp_path):
        async def check(client, server):
            await client.request("GET", "/v1/results/summary")
            return (await client.request("GET", "/v1/results/summary")).json()

        summary = run_console(check, seeded_db(tmp_path))
        assert summary["runs"] == 2
        assert summary["by_kind"] == {"gridbench": 1, "trace": 1}
        assert summary["commits"] == ["aaa"]
        # Live traffic: the first summary request was already counted.
        assert summary["service"]["requests_total"] >= 1
        assert summary["service"]["requests_by_route"]["/v1/results"] >= 1
        assert summary["service"]["queue"]["active"] == 0

    def test_error_hops_come_back_in_scope_ladder_order(self, tmp_path):
        async def check(client, server):
            return (await client.request("GET", "/v1/results/errors")).json()

        data = run_console(check, seeded_db(tmp_path))
        assert data["total"] == 2
        assert [row["scope"] for row in data["ladder"]] == ["JOB", "GRID"]
        assert data["order"][0] == "FILE" and data["order"][-1] == "GRID"

    def test_flame_merges_folded_stacks(self, tmp_path):
        async def check(client, server):
            return (await client.request("GET", "/v1/results/flame")).json()

        db = seeded_db(tmp_path)
        with ResultsStore(db) as store:
            store.ingest_obj(PROFILE_REPORT, source="profile.json", commit="aaa")
        data = run_console(check, db)
        assert data["folded"] == [{"stack": "schedd;match", "value": 2.0}]
        assert data["sections"][0]["daemon"] == "schedd"

    def test_trend_requires_metric(self, tmp_path):
        async def check(client, server):
            missing = await client.request("GET", "/v1/results/trend")
            good = await client.request(
                "GET", "/v1/results/trend?metric=run_s")
            return missing, good

        missing, good = run_console(check, seeded_db(tmp_path))
        assert missing.status == 400
        assert missing.json()["error"]["code"] == "BAD_REQUEST"
        assert good.status == 200
        assert good.json()["series"] == {"other": [1.5], "toy": [0.2]}

    def test_unknown_route_and_write_method_are_typed(self, tmp_path):
        async def check(client, server):
            unknown = await client.request("GET", "/v1/results/nope")
            write = await client.request("POST", "/v1/results/summary", {})
            return unknown, write

        unknown, write = run_console(check, seeded_db(tmp_path))
        assert unknown.status == 404
        assert unknown.json()["error"]["code"] == "NOT_FOUND"
        assert write.status == 405
        assert write.json()["error"]["code"] == "METHOD_NOT_ALLOWED"

    def test_authenticated_routes_still_require_token(self, tmp_path):
        async def check(client, server):
            return await client.request("GET", "/v1/queue")

        response = run_console(check, seeded_db(tmp_path))
        assert response.status == 401  # console mounting didn't widen auth

    def test_new_ingests_visible_without_restart(self, tmp_path):
        db = seeded_db(tmp_path)

        async def check(client, server):
            before = (await client.request("GET", "/v1/results/summary")).json()
            store = ResultsStore(db)
            store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="bbb")
            store.close()
            after = (await client.request("GET", "/v1/results/summary")).json()
            return before, after

        before, after = run_console(check, db)
        assert before["runs"] == 2 and after["runs"] == 3
        assert after["commits"] == ["aaa", "bbb"]
