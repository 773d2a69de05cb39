"""GridConsole web view: ``/console`` HTML + ``/v1/results/*`` JSON.

Transport-free like :class:`repro.service.api.ServiceApi`: the service
layer calls :meth:`ResultsWeb.handle` with the already-split path and
query string and gets back ``(status, payload, content_type)``.  This
module deliberately does NOT import ``repro.service`` -- the service
mounts us, not the other way round -- so the store/web pair stays
usable from tests and scripts without the asyncio stack.

Every route reads the results store fresh per request (SQLite open is
cheap and the ingest side may be another process), so the console
reflects new ingests without a restart.  A missing store file is a
typed 404 (``NO_RESULTS_DB``) on the data routes; ``/console`` itself
always renders, showing the fetch errors inline instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.core.scope import ErrorScope
from repro.obs.store import RESULTS_SCHEMA, ResultsStore

__all__ = ["ResultsWeb", "SCOPE_LADDER"]

#: Containment order, small to large -- the console renders hops in this
#: order so "how far errors travel" reads bottom-up like the paper's ladder.
SCOPE_LADDER = [scope.name for scope in sorted(ErrorScope)]


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
        """Dispatch one ``/v1/results/<parts...>`` request.

        Returns the service-layer triple; unknown routes and a missing
        store come back as enveloped 404s rather than exceptions so the
        mounting layer stays a straight pass-through.
        """
        if method != "GET":
            return self._error(405, "METHOD_NOT_ALLOWED",
                               f"results routes are read-only; no {method}")
        routes = {
            ("summary",): self._summary,
            ("runs",): self._runs,
            ("trend",): self._trend,
            ("errors",): self._errors,
            ("flame",): self._flame,
            ("matrix",): self._matrix,
        }
        handler = routes.get(tuple(parts))
        if handler is None:
            return self._error(
                404, "NOT_FOUND",
                f"no results route /v1/results/{'/'.join(parts)}; "
                f"have: {', '.join('/'.join(r) for r in sorted(routes))}",
            )
        if not self.db_path.is_file():
            return self._error(
                404, "NO_RESULTS_DB",
                f"results store {str(self.db_path)!r} not found; create it with "
                f"`python -m repro.obs.store ingest <artifacts...> --db {self.db_path}`",
            )
        with ResultsStore(self.db_path) as store:
            return handler(store, query)

    @staticmethod
    def _error(status: int, code: str, message: str) -> tuple[int, dict, str]:
        return status, {"error": {"code": code, "message": message}}, "json"

    # -- routes ----------------------------------------------------------
    def _summary(self, store: ResultsStore, query: dict) -> tuple[int, dict, str]:
        rows = store.runs()
        by_kind: dict[str, int] = {}
        for row in rows:
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0) + 1
        payload = {
            "schema": RESULTS_SCHEMA,
            "db": str(self.db_path),
            "runs": len(rows),
            "by_kind": by_kind,
            "commits": store.commits(),
            "metrics": [name for name, _ in store.metric_names()],
            "violations": store.violation_count(),
            "service": self.service_stats() if self.service_stats else None,
        }
        return 200, payload, "json"

    def _runs(self, store: ResultsStore, query: dict) -> tuple[int, dict, str]:
        limit = _int_param(query, "limit", 50)
        rows = store.runs(
            kind=query.get("kind") or None,
            commit=query.get("commit") or None,
            limit=limit,
        )
        return 200, {"runs": rows}, "json"

    def _trend(self, store: ResultsStore, query: dict) -> tuple[int, dict, str]:
        metric = query.get("metric")
        if not metric:
            return self._error(400, "BAD_REQUEST",
                               "trend needs ?metric=<name>; see /v1/results/summary "
                               "for the metric list")
        trend = store.trend(metric, label=query.get("label") or None)
        return 200, trend, "json"

    def _errors(self, store: ResultsStore, query: dict) -> tuple[int, dict, str]:
        hops = store.error_hops(commit=query.get("commit") or None)
        ladder = [
            {"scope": name, "hops": hops.get(name, 0)}
            for name in SCOPE_LADDER
            if name in hops or query.get("all") == "1"
        ]
        return 200, {"order": SCOPE_LADDER, "ladder": ladder,
                     "total": sum(hops.values())}, "json"

    def _flame(self, store: ResultsStore, query: dict) -> tuple[int, dict, str]:
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
        return 200, {
            "folded": folded,
            "sections": store.sections(commit=query.get("commit") or None),
            "sources": sources,
        }, "json"

    def _matrix(self, store: ResultsStore, query: dict) -> tuple[int, dict, str]:
        matrix = store.matrix(commit=query.get("commit") or None)
        if matrix is None:
            return 200, {"run": None, "cells": []}, "json"
        return 200, matrix, "json"

    # -- console page ----------------------------------------------------
    def console_page(self) -> tuple[int, bytes, str]:
        """The self-contained GridConsole page (no external assets)."""
        return 200, CONSOLE_HTML.encode("utf-8"), "html"


def _int_param(query: dict[str, str], key: str, default: int) -> int:
    try:
        return max(1, int(query.get(key, default)))
    except (TypeError, ValueError):
        return default


# ---------------------------------------------------------------------------
# The console page.  One file, stdlib-served, no external assets: CSS custom
# properties carry the light/dark palette (media query + data-theme override),
# and the charts are plain SVG/flex marks fed by the /v1/results routes.
# Single-series charts carry no legend; values render in text ink, never in
# the series color; violations use the status color WITH a label, never color
# alone.
# ---------------------------------------------------------------------------

CONSOLE_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>GridConsole</title>
<style>
  .viz-root {
    color-scheme: light;
    --page:           #f9f9f7;
    --surface-1:      #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --text-muted:     #898781;
    --grid-hairline:  #e1e0d9;
    --baseline:       #c3c2b7;
    --border:         rgba(11, 11, 11, 0.10);
    --series-1:       #2a78d6;
    --seq-floor:      #86b6ef;
    --status-critical:#d03b3b;
    --status-good:    #006300;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --page:           #0d0d0d;
      --surface-1:      #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted:     #898781;
      --grid-hairline:  #2c2c2a;
      --baseline:       #383835;
      --border:         rgba(255, 255, 255, 0.10);
      --series-1:       #3987e5;
      --seq-floor:      #184f95;
      --status-critical:#d03b3b;
      --status-good:    #0ca30c;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --grid-hairline:  #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255, 255, 255, 0.10);
    --series-1:       #3987e5;
    --seq-floor:      #184f95;
    --status-critical:#d03b3b;
    --status-good:    #0ca30c;
  }
  * { box-sizing: border-box; }
  body.viz-root {
    margin: 0;
    background: var(--page);
    color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header {
    display: flex; align-items: baseline; gap: 12px;
    padding: 16px 24px 8px;
  }
  header h1 { font-size: 18px; margin: 0; font-weight: 600; }
  header .sub { color: var(--text-secondary); font-size: 13px; }
  main {
    display: grid; gap: 16px; padding: 8px 24px 32px;
    grid-template-columns: repeat(auto-fit, minmax(340px, 1fr));
  }
  section.card {
    background: var(--surface-1);
    border: 1px solid var(--border);
    border-radius: 8px;
    padding: 14px 16px 16px;
    min-width: 0;
  }
  section.card.wide { grid-column: 1 / -1; }
  h2 { font-size: 13px; font-weight: 600; margin: 0 0 10px;
       color: var(--text-secondary); text-transform: uppercase;
       letter-spacing: 0.04em; }
  .tiles { display: flex; flex-wrap: wrap; gap: 18px 28px; }
  .tile .v { font-size: 26px; font-weight: 600; }
  .tile .k { font-size: 12px; color: var(--text-muted); }
  .note { color: var(--text-muted); font-size: 12px; margin-top: 8px; }
  .err  { color: var(--status-critical); font-size: 12px; }
  .err::before { content: "\\26A0 "; }

  /* horizontal bar rows (error hops, where-time-went) */
  .bars { display: grid; grid-template-columns: max-content 1fr max-content;
          gap: 6px 10px; align-items: center; }
  .bars .lbl { font-size: 12px; color: var(--text-secondary);
               white-space: nowrap; }
  .bars .val { font-size: 12px; color: var(--text-primary);
               font-variant-numeric: tabular-nums; text-align: right; }
  .track { background: transparent; border-left: 1px solid var(--baseline);
           height: 14px; }
  .bar { height: 10px; margin-top: 2px; background: var(--series-1);
         border-radius: 0 4px 4px 0; min-width: 1px; }

  table.matrix { border-collapse: collapse; width: 100%; font-size: 12px; }
  table.matrix th { text-align: left; font-weight: 600;
                    color: var(--text-secondary); padding: 4px 8px;
                    border-bottom: 1px solid var(--grid-hairline); }
  table.matrix td { padding: 4px 8px; font-variant-numeric: tabular-nums;
                    border-bottom: 1px solid var(--grid-hairline); }
  table.matrix td.viol { color: var(--status-critical); font-weight: 600; }
  table.matrix td.ok   { color: var(--text-muted); }

  .sparks { display: flex; flex-wrap: wrap; gap: 14px 22px; }
  .spark { min-width: 150px; }
  .spark .name { font-size: 12px; color: var(--text-secondary); }
  .spark .last { font-size: 15px; font-weight: 600; }
  .spark svg { display: block; margin-top: 2px; }
  .spark polyline { fill: none; stroke: var(--series-1); stroke-width: 2;
                    stroke-linejoin: round; stroke-linecap: round; }
  .spark circle { fill: var(--series-1); }
  footer { padding: 0 24px 24px; color: var(--text-muted); font-size: 12px; }
</style>
</head>
<body class="viz-root">
<header>
  <h1>GridConsole</h1>
  <span class="sub" id="db-sub">results store</span>
</header>
<main>
  <section class="card wide">
    <h2>Store &amp; live traffic</h2>
    <div class="tiles" id="tiles"></div>
    <div class="note" id="summary-note"></div>
  </section>
  <section class="card">
    <h2>Error hops by scope</h2>
    <div class="bars" id="hops"></div>
    <div class="note" id="hops-note"></div>
  </section>
  <section class="card">
    <h2>Where time went</h2>
    <div class="bars" id="flame"></div>
    <div class="note" id="flame-note"></div>
  </section>
  <section class="card wide">
    <h2>Campaign / fuzz coverage</h2>
    <div style="overflow-x:auto"><table class="matrix" id="matrix"></table></div>
    <div class="note" id="matrix-note"></div>
  </section>
  <section class="card wide">
    <h2>gridbench run_s by commit</h2>
    <div class="sparks" id="sparks"></div>
    <div class="note" id="sparks-note"></div>
  </section>
</main>
<footer>
  GridConsole &mdash; longitudinal results over the deterministic grid
  reproduction. Data refreshes every 5s from <code>/v1/results/*</code>.
</footer>
<script>
"use strict";
const $ = id => document.getElementById(id);
const esc = s => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));

async function getJSON(path) {
  const res = await fetch(path);
  const body = await res.json();
  if (!res.ok) {
    const err = body && body.error ? body.error : {code: res.status};
    throw new Error(err.code + ": " + (err.message || path));
  }
  return body;
}

function tile(value, label) {
  return '<div class="tile"><div class="v">' + esc(value) +
         '</div><div class="k">' + esc(label) + '</div></div>';
}

function barRows(el, rows, fmt) {
  const max = Math.max(1e-12, ...rows.map(r => r.value));
  el.innerHTML = rows.map(r =>
    '<div class="lbl" title="' + esc(r.title || r.label) + '">' + esc(r.label) +
    '</div><div class="track"><div class="bar" style="width:' +
    (100 * r.value / max).toFixed(2) + '%"></div></div>' +
    '<div class="val">' + esc(fmt(r.value)) + '</div>'
  ).join("");
}

async function renderSummary() {
  try {
    const s = await getJSON("/v1/results/summary");
    $("db-sub").textContent = s.db + " \\u2014 " + s.schema;
    let tiles = tile(s.runs, "runs stored") +
                tile(s.commits.length, "commits") +
                tile(s.violations, "violations recorded");
    for (const [kind, n] of Object.entries(s.by_kind).sort()) {
      tiles += tile(n, kind + " runs");
    }
    if (s.service) {
      if (s.service.queue) {
        tiles += tile(s.service.queue.active ?? 0, "active service runs");
      }
      tiles += tile(s.service.requests_total ?? 0, "requests served");
      const routes = Object.entries(s.service.requests_by_route || {});
      routes.sort((a, b) => b[1] - a[1]);
      if (routes.length) {
        $("summary-note").textContent = "busiest routes: " + routes.slice(0, 4)
          .map(([r, n]) => r + " (" + n + ")").join(", ");
      }
    } else {
      $("summary-note").textContent =
        "no live service attached \\u2014 store-only view";
    }
    $("tiles").innerHTML = tiles;
  } catch (e) {
    $("tiles").innerHTML = "";
    $("summary-note").innerHTML = '<span class="err">' + esc(e.message) + "</span>";
  }
}

async function renderHops() {
  try {
    const data = await getJSON("/v1/results/errors");
    if (!data.ladder.length) {
      $("hops").innerHTML = "";
      $("hops-note").textContent = "no error-hop data ingested yet";
      return;
    }
    barRows($("hops"), data.ladder.map(r =>
      ({label: r.scope, value: r.hops})), v => v);
    $("hops-note").textContent = data.total +
      " hop(s) total \\u2014 scopes ordered FILE \\u2192 GRID (containment order)";
  } catch (e) {
    $("hops-note").innerHTML = '<span class="err">' + esc(e.message) + "</span>";
  }
}

async function renderFlame() {
  try {
    const data = await getJSON("/v1/results/flame");
    const rows = data.sections.slice(0, 10).map(s => ({
      label: s.daemon + " " + s.phase,
      title: s.daemon + " / " + s.phase + " @ " + s.scope +
             " (" + s.events + " events)",
      value: s.sim_time,
    }));
    if (!rows.length && data.folded.length) {
      for (const f of data.folded.slice(0, 10)) {
        const frames = f.stack.split(";");
        rows.push({label: frames[frames.length - 1], title: f.stack,
                   value: f.value});
      }
    }
    if (!rows.length) {
      $("flame").innerHTML = "";
      $("flame-note").textContent = "no profile data ingested yet";
      return;
    }
    barRows($("flame"), rows, v => v.toFixed(1) + "s");
    $("flame-note").textContent = "simulated time by section over the latest " +
      "run of each source \\u2014 " + data.folded.length +
      " distinct stack(s) from " + data.sources.length + " run(s)";
  } catch (e) {
    $("flame-note").innerHTML = '<span class="err">' + esc(e.message) + "</span>";
  }
}

async function renderMatrix() {
  try {
    const data = await getJSON("/v1/results/matrix");
    if (!data.run) {
      $("matrix").innerHTML = "";
      $("matrix-note").textContent = "no campaign or fuzz runs ingested yet";
      return;
    }
    const head = "<tr><th>cell</th><th>order</th><th>completed</th>" +
                 "<th>held</th><th>unfinished</th><th>makespan</th>" +
                 "<th>violations</th></tr>";
    const body = data.cells.map(c => {
      const viol = c.error
        ? '<td class="viol">error: ' + esc(c.error) + "</td>"
        : (c.violations
           ? '<td class="viol">' + c.violations + " violation(s)</td>"
           : '<td class="ok">none</td>');
      return "<tr><td>" + esc(c.cell) + "</td><td>" + esc(c.order || "-") +
        "</td><td>" + c.completed + "</td><td>" + c.held + "</td><td>" +
        c.unfinished + "</td><td>" +
        (c.makespan == null ? "-" : c.makespan.toFixed(1) + "s") + "</td>" +
        viol + "</tr>";
    }).join("");
    $("matrix").innerHTML = head + body;
    const bad = data.cells.filter(c => c.violations || c.error).length;
    $("matrix-note").textContent = data.run.kind + " run #" + data.run.run_id +
      " (" + data.run.source + "): " + data.cells.length + " cell(s), " +
      bad + " with violations or errors";
  } catch (e) {
    $("matrix-note").innerHTML = '<span class="err">' + esc(e.message) + "</span>";
  }
}

function sparkline(values) {
  const W = 140, H = 34, PAD = 3;
  const vals = values.filter(v => v != null);
  const lo = Math.min(...vals), hi = Math.max(...vals);
  const span = (hi - lo) || 1;
  const x = i => values.length < 2 ? W / 2 :
    PAD + (W - 2 * PAD) * i / (values.length - 1);
  const y = v => H - PAD - (H - 2 * PAD) * (v - lo) / span;
  const pts = [];
  values.forEach((v, i) => { if (v != null) pts.push(x(i) + "," + y(v)); });
  let last = null, lastIdx = -1;
  values.forEach((v, i) => { if (v != null) { last = v; lastIdx = i; } });
  return '<svg width="' + W + '" height="' + H + '" role="img">' +
    '<line x1="0" y1="' + (H - 1) + '" x2="' + W + '" y2="' + (H - 1) +
    '" stroke="var(--baseline)" stroke-width="1"/>' +
    '<polyline points="' + pts.join(" ") + '"/>' +
    (last == null ? "" :
     '<circle cx="' + x(lastIdx) + '" cy="' + y(last) + '" r="3"/>') +
    "</svg>";
}

async function renderSparks() {
  try {
    const t = await getJSON("/v1/results/trend?metric=run_s");
    const labels = Object.keys(t.series).sort();
    if (!labels.length) {
      $("sparks").innerHTML = "";
      $("sparks-note").textContent = "no gridbench run in the store yet";
      return;
    }
    // One series per gridbench workload: its median run_s at each commit.
    $("sparks").innerHTML = labels.map(workload => {
      const vals = t.series[workload];
      let last = null;
      vals.forEach(v => { if (v != null) last = v; });
      return '<div class="spark"><div class="name" title="median timed ' +
        'section, seconds">' + esc(workload) + '</div><div class="last">' +
        (last == null ? "-" : last.toFixed(3) + "s") + "</div>" +
        sparkline(vals) + "</div>";
    }).join("");
    $("sparks-note").textContent = t.commits.length +
      " commit(s): " + t.commits.join(" \\u2192 ");
  } catch (e) {
    $("sparks-note").innerHTML = '<span class="err">' + esc(e.message) + "</span>";
  }
}

function refresh() {
  renderSummary(); renderHops(); renderFlame(); renderMatrix(); renderSparks();
}
refresh();
setInterval(refresh, 5000);
</script>
</body>
</html>
"""
