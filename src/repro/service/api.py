"""Versioned routes and request logic (the diracx "routers + logic" layer).

Transport-free: :meth:`ServiceApi.handle` maps ``(method, path, headers,
body)`` to ``(status, payload, content_type)`` and raises only
:class:`~repro.boundary.BoundaryError` subtypes.  The HTTP server
is a thin shell around it, and tests can drive the full route surface
without a socket.

Routes (v1)::

    GET  /v1/health                         liveness (unauthenticated)
    POST /v1/jobs                           submit one grid job
    POST /v1/experiments                    launch a named experiment
    POST /v1/campaigns                      launch a fault campaign
    GET  /v1/queue                          aggregate queue statistics
    GET  /v1/runs/<id>                      run status (tenant-scoped)
    GET  /v1/runs/<id>/artifacts            artifact names
    GET  /v1/runs/<id>/artifacts/<name>     artifact content
    GET  /console                           GridConsole page (unauthenticated)
    GET  /v1/results/<view>                 results-store JSON (unauthenticated)

Admission control happens here: beyond ``queue_limit`` active runs every
submission is rejected with typed ``QUEUE_FULL`` -- the graceful-
rejection-under-load pattern, applied before any state is created.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import parse_qsl

from repro.boundary import BadRequest, NotFound, QueueFull, WrongTenant
from repro.obs.web import ResultsWeb
from repro.service.auth import bearer_user
from repro.service.specs import (
    normalize_campaign_spec,
    normalize_experiment_spec,
    normalize_job_spec,
)
from repro.service.store import STORE_SCHEMA, RunStore

__all__ = ["API_VERSION", "ServiceApi", "ServiceConfig"]

API_VERSION = "v1"

#: Artifacts that are JSON documents (everything else serves as text).
_JSON_ARTIFACTS = {"result", "metrics", "report", "batch"}


@dataclass
class ServiceConfig:
    """Operator-facing knobs for one service instance."""

    secret: str
    queue_limit: int = 1000
    #: unused: accepted so that ``benchmarks/gridbench`` (frozen between
    #: benchmark PRs) can go on passing it; the routes it configured are gone
    bench_dir: None = None
    #: longitudinal results store backing /console; None disables the view
    results_db: str | None = "repro-results.db"
    #: wall clock; injectable for tests (expiry without sleeping)
    now: Callable[[], float] = field(default=time.time)


class ServiceApi:
    """Route table + request logic over one store."""

    def __init__(self, store: RunStore, config: ServiceConfig):
        self.store = store
        self.config = config
        # Live-traffic counters surfaced on the console's summary tile.
        self.requests_total = 0
        self.requests_by_route: dict[str, int] = {}
        self.results_web = (
            None
            if config.results_db is None
            else ResultsWeb(config.results_db, service_stats=self._service_stats)
        )

    def _service_stats(self) -> dict:
        return {
            "requests_total": self.requests_total,
            "requests_by_route": dict(sorted(self.requests_by_route.items())),
            "queue": self.store.queue_stats(),
        }

    # -- entrypoint ------------------------------------------------------
    def handle(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict | bytes, str]:
        """Dispatch one request; returns (status, payload, content_type).

        Raises :class:`~repro.boundary.BoundaryError` subtypes for every
        rejection; the transport turns them into their HTTP envelope.
        """
        path, _, query_string = path.partition("?")
        parts = [p for p in path.split("/") if p]
        self.requests_total += 1
        route = "/" + "/".join(parts[:2])
        self.requests_by_route[route] = self.requests_by_route.get(route, 0) + 1
        # The console and its data feed are read-only observability over a
        # separate store; they mount before auth, like /v1/health.
        if method == "GET" and parts == ["console"]:
            if self.results_web is None:
                raise NotFound("this service instance mounts no results store")
            return self.results_web.console_page()
        if len(parts) >= 2 and parts[0] == API_VERSION and parts[1] == "results":
            if self.results_web is None:
                raise NotFound("this service instance mounts no results store")
            query = dict(parse_qsl(query_string))
            return self.results_web.handle(method, parts[2:], query)
        if not parts or parts[0] != API_VERSION:
            raise NotFound(f"unknown API root {path!r}; routes live under /{API_VERSION}/")
        parts = parts[1:]
        if method == "GET" and parts == ["health"]:
            return 200, {"ok": True, "schema": STORE_SCHEMA, "api": API_VERSION}, "json"
        user = bearer_user(
            self.config.secret, headers.get("authorization"), self.config.now()
        )
        if method == "POST" and parts in (["jobs"], ["experiments"], ["campaigns"]):
            return self._submit(parts[0], user, body)
        if method == "GET" and parts == ["queue"]:
            return 200, self.store.queue_stats(), "json"
        if method == "GET" and len(parts) >= 2 and parts[0] == "runs":
            return self._runs(parts[1:], user)
        raise NotFound(f"no route for {method} {path}")

    # -- submission ------------------------------------------------------
    def _submit(self, route: str, user: str, body: bytes) -> tuple[int, dict, str]:
        active = self.store.active_count()
        if active >= self.config.queue_limit:
            raise QueueFull(
                f"queue at capacity ({active} active runs >= limit "
                f"{self.config.queue_limit}); retry after runs drain"
            )
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from None
        kind, spec = {
            "jobs": ("job", normalize_job_spec),
            "experiments": ("experiment", normalize_experiment_spec),
            "campaigns": ("campaign", normalize_campaign_spec),
        }[route]
        run_id = self.store.submit_run(kind, user, spec(payload))
        return 202, {"run_id": run_id, "kind": kind, "state": "submitted"}, "json"

    # -- run status + artifacts ------------------------------------------
    def _run_id(self, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise BadRequest(f"run id must be an integer, got {text!r}") from None

    def _runs(self, parts: list[str], user: str) -> tuple[int, dict | bytes, str]:
        status = self.store.run_status(self._run_id(parts[0]))
        if status["tenant"] != user:
            # The run id was valid, but it is another tenant's: reveal
            # the ownership boundary, not the run's contents.
            raise WrongTenant(
                f"run {status['run_id']} belongs to tenant "
                f"{status['tenant']!r}, token is for {user!r}"
            )
        if len(parts) == 1:
            return 200, status, "json"
        if parts[1] != "artifacts" or len(parts) > 3:
            raise NotFound(f"no such run sub-resource {'/'.join(parts[1:])!r}")
        if len(parts) == 2:
            return 200, {"run_id": status["run_id"], "artifacts": status["artifacts"]}, "json"
        name = parts[2]
        content = self.store.get_artifact(status["run_id"], name)
        return 200, content, ("json" if name in _JSON_ARTIFACTS else "text")
