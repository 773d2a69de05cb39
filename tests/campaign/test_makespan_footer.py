"""Campaign summaries quote the GridConsole makespan footer.

Satellite of the results-store PR: campaign runs now collect per-cell
job makespans through the same submit->result pairing the live console
uses, and both summary renderers surface the p50/p95/p99 triple via
``MetricsRegistry.histogram_percentiles``.  The edge that matters: an
empty histogram (no job finished anywhere) must yield NO footer, not a
crash or a degenerate one.
"""

from repro.campaign.engine import run_campaign
from repro.campaign.report import makespan_footer, render_summary
from repro.campaign.spec import CampaignConfig
from repro.obs.metrics import MetricsRegistry


class TestMakespanFooter:
    def test_empty_histogram_yields_no_footer(self):
        assert makespan_footer([]) is None
        assert makespan_footer([{"job_makespans": []}]) is None
        assert makespan_footer([{}]) is None  # errored cells lack the key

    def test_registry_percentile_is_none_on_absent_series(self):
        registry = MetricsRegistry()
        assert registry.histogram_percentiles("job_makespan_seconds") is None

    def test_footer_pools_cells_and_matches_registry(self):
        cells = [
            {"job_makespans": [1.0, 2.0]},
            {"job_makespans": [3.0, 4.0]},
        ]
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("job_makespan_seconds", value)
        p50, p95, p99 = registry.histogram_percentiles("job_makespan_seconds").values()
        assert makespan_footer(cells) == (
            f"makespan p50={p50:.1f}s p95={p95:.1f}s p99={p99:.1f}s"
        )

    def test_campaign_records_carry_makespans_and_footer_renders(self):
        config = CampaignConfig(mode="scoped", seed=1, kinds=("MachineCrash",))
        report = run_campaign(config, shrink=False)
        cell = report["cells"][0]
        assert cell["job_makespans"] == sorted(cell["job_makespans"])
        assert cell["makespan_percentiles"]["p50"] in cell["job_makespans"]
        rendered = render_summary(report)
        assert "makespan p50=" in rendered
