"""GridConsole web view: ``/console`` HTML + ``/v1/results/*`` JSON.

Transport-free like :class:`repro.service.api.ServiceApi`: the service
layer calls :meth:`ResultsWeb.handle` with the already-split path and
query string and gets back ``(status, payload, content_type)``, or a
:mod:`repro.boundary` error its server renders.  This module deliberately
does NOT import ``repro.service`` -- the service mounts us, not the other
way round -- so the store/web pair stays usable from tests and scripts
without the asyncio stack.

Every route reads the results store fresh per request (SQLite open is
cheap and the ingest side may be another process), so the console
reflects new ingests without a restart.  A missing store file is a
typed 404 (``NO_RESULTS_DB``); a store that cannot be opened is a typed
503 (``RESULTS_STORE_UNAVAILABLE``) naming the ``Store*Error`` and the
path.  ``/console`` itself always renders, showing that message in place
of the panels.

The page is the console's own panels (:mod:`repro.obs.console`) over
what the store kept, rendered here through ``Table.html()``; it reloads
itself every 5 s and carries no script.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.boundary import BadRequest, BoundaryError, MethodNotAllowed, NotFound
from repro.harness.report import Table
from repro.obs.console import (
    SCOPE_LADDER,
    hops_table,
    matrix_table,
    summary_table,
    time_table,
)
from repro.obs.store import RESULTS_SCHEMA, ResultsStore
from repro.obs.store.query import trend_table

__all__ = ["ResultsWeb"]


class ResultsWeb:
    """The ``/v1/results/*`` routes and the ``/console`` page.

    ``service_stats`` is an optional zero-arg callable returning the
    mounting service's live counters (requests by route, queue stats);
    ``None`` means the console runs storeside-only (e.g. under tests).
    """

    def __init__(
        self,
        db_path: str | Path = "repro-results.db",
        service_stats: Callable[[], dict] | None = None,
    ):
        self.db_path = Path(db_path)
        self.service_stats = service_stats

    # -- dispatch --------------------------------------------------------
    def handle(
        self, method: str, parts: list[str], query: dict[str, str]
    ) -> tuple[int, dict | bytes, str]:
        """Dispatch one ``/v1/results/<parts...>`` request: the service-layer
        triple, or a typed error (unknown route, write method, bad
        parameter, missing or unusable store)."""
        routes = {
            ("summary",): self._summary,
            ("runs",): self._runs,
            ("trend",): self._trend,
            ("errors",): self._errors,
            ("flame",): self._flame,
            ("matrix",): self._matrix,
        }
        if method != "GET":
            raise MethodNotAllowed(f"results routes are read-only; no {method}")
        handler = routes.get(tuple(parts))
        if handler is None:
            raise NotFound(
                f"no results route /v1/results/{'/'.join(parts)}; "
                f"have: {', '.join('/'.join(r) for r in sorted(routes))}"
            )
        with ResultsStore.existing(str(self.db_path)) as store:
            return 200, handler(store, query), "json"

    # -- routes ----------------------------------------------------------
    def _summary(self, store: ResultsStore, query: dict) -> dict:
        rows = store.runs()
        by_kind: dict[str, int] = {}
        for row in rows:
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0) + 1
        return {
            "schema": RESULTS_SCHEMA,
            "db": str(self.db_path),
            "runs": len(rows),
            "by_kind": by_kind,
            "commits": store.commits(),
            "metrics": [name for name, _ in store.metric_names()],
            "violations": store.violation_count(),
            "service": self.service_stats() if self.service_stats else None,
        }

    def _runs(self, store: ResultsStore, query: dict) -> dict:
        limit = query.get("limit", "50")
        try:
            valid = int(limit) >= 1
        except ValueError:
            valid = False
        if not valid:
            raise BadRequest(f"limit must be a positive integer, got {limit!r}")
        rows = store.runs(
            kind=query.get("kind") or None,
            commit=query.get("commit") or None,
            limit=int(limit),
        )
        return {"runs": rows}

    def _trend(self, store: ResultsStore, query: dict) -> dict:
        metric = query.get("metric")
        if not metric:
            raise BadRequest("trend needs ?metric=<name>; see /v1/results/summary "
                             "for the metric list")
        return store.trend(metric, label=query.get("label") or None)

    def _errors(self, store: ResultsStore, query: dict) -> dict:
        hops = store.error_hops(commit=query.get("commit") or None)
        ladder = [
            {"scope": name, "hops": hops.get(name, 0)}
            for name in SCOPE_LADDER
            if name in hops or query.get("all") == "1"
        ]
        return {"order": SCOPE_LADDER, "ladder": ladder, "total": sum(hops.values())}

    def _flame(self, store: ResultsStore, query: dict) -> dict:
        stacks, sources = store.folded(commit=query.get("commit") or None)
        merged: dict[str, float] = {}
        for line in stacks:
            stack, _, weight = line.rpartition(" ")
            try:
                merged[stack] = merged.get(stack, 0.0) + float(weight)
            except ValueError:
                continue
        folded = [
            {"stack": stack, "value": value}
            for stack, value in sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return {
            "folded": folded,
            "sections": store.sections(commit=query.get("commit") or None),
            "sources": sources,
        }

    def _matrix(self, store: ResultsStore, query: dict) -> dict:
        matrix = store.matrix(commit=query.get("commit") or None)
        return {"run": None, "cells": []} if matrix is None else matrix

    # -- console page ----------------------------------------------------
    def console_page(self) -> tuple[int, bytes, str]:
        """The GridConsole page: the console's panels, rendered server-side."""
        try:
            with ResultsStore.existing(str(self.db_path)) as store:
                panels = self._panels(store)
        except BoundaryError as exc:
            why = f"{exc.http_status} {exc.code}: {exc.message}"
            panels = [Table(["no results store"], [[why]])]
        body = "\n".join(table.html() for table in panels)
        return 200, _PAGE.replace("<!--panels-->", body).encode("utf-8"), "html"

    def _panels(self, store: ResultsStore) -> list[Table]:
        """Summary, error hops, where time went, coverage, ``run_s`` trend."""
        hops = store.error_hops()
        hops_panel = hops_table(hops)
        hops_panel.add_footer(f"{sum(hops.values())} hop(s) total, scopes in containment order")
        flame = self._flame(store, {})
        time_panel = time_table(flame["sections"])
        time_panel.add_footer(
            f"over the latest run of each source: {len(flame['folded'])} distinct "
            f"stack(s) from {len(flame['sources'])} run(s)"
        )
        panels = [summary_table(self._summary(store, {})), hops_panel, time_panel]
        matrix = store.matrix()
        if matrix is not None:
            panels.append(matrix_table(matrix))
        panels.append(trend_table(store.trend("run_s"))[0])
        return panels


_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>GridConsole</title>
<style>
  :root { color-scheme: light dark; font: 14px/1.45 system-ui, sans-serif; }
  body { margin: 16px 24px; }
  table { border-collapse: collapse; margin: 0 0 24px; font-variant-numeric: tabular-nums; }
  caption { text-align: left; font-weight: 600; padding: 4px 0; }
  th, td { text-align: left; padding: 3px 10px; border-bottom: 1px solid #8884; }
  td[colspan] { border: 0; opacity: 0.7; }
</style>
</head>
<body>
<h1>GridConsole</h1>
<!--panels-->
<p>Longitudinal results over the deterministic grid reproduction, rendered
from the results store; this page reloads every 5 s.</p>
</body>
</html>
"""
