"""fuzz_campaign: the 200-cell coverage-guided fault campaign.

``run_fuzz`` builds and runs two hundred short-lived pools (3 machines,
4 jobs each) in ``naive`` error mode, every one under the live
principle sanitizer and the post-hoc auditor with fault injectors armed,
reduces each to a coverage signature, and ddmin-shrinks every distinct
violation to a minimal reproducer.  Pool construction, the telemetry
bus and sanitizer, the fault injectors, the principle checkers and the
campaign engine dominate; queue depth is trivial, so a fix for
``pool_backlog``'s deep queue predicts no change here, while a change to
pool set-up or the sanitizer shows here and not there.

The campaign takes no generated input, only a seed of its own, which
draws the four jobs every one of the 200 cells runs; host cost follows
those four lengths (3.5-5.6 s over ten seeds, a spread of 23 %), which
no bound could hold across seeds.  So the campaign always runs at
``CAMPAIGN_SEED`` and the benchmark's ``--seed`` does not reach this
workload.
"""

from __future__ import annotations

from benchmarks.gridbench.layers import CLASSADS, EVERY, REMOTE_IO, SIM

WHY = (
    "200 fuzz cells + shrink: pool construction, bus/sanitizer, fault injectors, principle "
    "audit, campaign engine; queue depth is trivial, no matchmaker scale, no service"
)

CAMPAIGN_SEED = 7
FULL = {"cells": 200}
SMOKE = {"cells": 6}

CROSSES = (
    *SIM, *CLASSADS, *REMOTE_IO, *EVERY,
    "campaign.cells", "campaign.cells_per_host_s",
)
#: Outcomes of the campaign, not calls into it: 0 is what a fixed program reads.
ZERO_OK = ("campaign.cell_error_frac", "campaign.violations", "campaign.reproducers")
PROBES = ("campaign",)


def config_for(smoke: bool):
    from repro.campaign.fuzz import FuzzConfig
    from repro.campaign.spec import CampaignConfig

    size = SMOKE if smoke else FULL
    return FuzzConfig(
        campaign=CampaignConfig(mode="naive", seed=CAMPAIGN_SEED), budget_cells=size["cells"]
    )


def setup(seed: int, smoke: bool, rec, tmp: str) -> dict:
    from repro.campaign.fuzz import run_fuzz

    return {"config": config_for(smoke), "run_fuzz": run_fuzz}


def run(state: dict, rec) -> None:
    with rec.span("campaign.run_fuzz"):
        state["report"] = state["run_fuzz"](state["config"], jobs=1, shrink=True)


def finish(state: dict, rec, traced: bool) -> dict:
    from repro.bench.compare import strip_wall

    report, budget = state["report"], state["config"].budget_cells
    cells = report["cells"]
    errors = sum(1 for record in cells if record["error"] is not None)
    mismatched = report["totals"]["live_mismatches"]
    return {
        # An operation is "run one cell, get its record back".  A cell the
        # campaign could not build is still a returned record (it feeds
        # coverage as ``cell-error:*``); it is counted per layer below.
        "attempted": budget,
        "failed": (budget - len(cells)) + mismatched,
        "checks": {
            "every_budgeted_cell_has_a_record": len(cells) == budget,
            "live_sanitizer_agrees_with_posthoc_audit": mismatched == 0,
            "violations_were_shrunk_to_reproducers": bool(report["reproducers"])
            == bool(report["totals"]["cells_with_violations"]),
        },
        "fingerprint": strip_wall(report),
        "layer": {
            "campaign.cells": len(cells),
            "campaign.cells_per_host_s": len(cells) / state["run_s"],
            "campaign.cell_error_frac": errors / len(cells),
            "campaign.violations": report["totals"]["violations"],
            "campaign.reproducers": len(report["reproducers"]),
        },
        "samples": {},
    }
