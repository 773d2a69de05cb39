"""The principle checker's live feed vs. its post-hoc feed.

In the style of the FIG3 live-vs-posthoc span cross-check: for every
FIG4-class fault scenario and every seed, the violations
:meth:`~repro.core.principles.PrincipleAuditor.live` collects *while the
run executes* must equal, event for event, the violations
:meth:`~repro.core.principles.PrincipleAuditor.of_run` reconstructs from
the artifacts afterwards -- same principles, same subjects, same
descriptions.  Both feeds call the shared check functions in
``core.principles``, and this suite is what keeps that sharing honest.
"""

import pytest

from repro.campaign.engine import run_cell_record
from repro.campaign.spec import CampaignConfig, enumerate_cells
from repro.core.principles import PrincipleAuditor, PrincipleViolationError

#: The Figure 4 scenario kinds: the faults whose naive-mode collapse the
#: paper tabulates (bad JVM, corrupt image, missing input, home fs down,
#: expired credential).
FIG4_KINDS = (
    "MisconfiguredJvm",
    "CorruptProgramImage",
    "MissingInputFile",
    "HomeFilesystemOffline",
    "CredentialExpiry",
)


def _config(mode: str, seed: int) -> CampaignConfig:
    return CampaignConfig(
        mode=mode, seed=seed, kinds=FIG4_KINDS, windows=((0.0, None),)
    )


class TestLiveEqualsPosthoc:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mode", ["naive", "scoped"])
    def test_fig4_cells_cross_check(self, mode, seed):
        config = _config(mode, seed)
        for cell in enumerate_cells(config):
            record = run_cell_record(cell, config)
            live = sorted(
                (v["principle"], v["subject"], v["description"])
                for v in record["live_violations"]
            )
            posthoc = sorted(
                (v["principle"], v["subject"], v["description"])
                for v in record["violations"]
            )
            assert live == posthoc, f"live/post-hoc divergence in {cell.cell_id}"
            assert record["live_matches_posthoc"]

    def test_naive_fig4_cells_do_violate(self):
        """The cross-check must not pass vacuously: naive FIG4 cells
        produce violations for the live feed to catch."""
        config = _config("naive", 0)
        total = sum(
            len(run_cell_record(cell, config)["live_violations"])
            for cell in enumerate_cells(config)
        )
        assert total > 0


class TestFailFast:
    def test_fail_fast_raises_at_first_violation(self):
        config = CampaignConfig(
            mode="classic", kinds=("MisconfiguredJvm",),
            windows=((0.0, None),), fail_fast=True,
        )
        (cell,) = enumerate_cells(config)
        with pytest.raises(PrincipleViolationError) as excinfo:
            run_cell_record(cell, config)
        assert excinfo.value.violation.principle in (1, 2, 3, 4)
        assert excinfo.value.time >= 0.0

    def test_scoped_cells_never_trip_fail_fast(self):
        config = CampaignConfig(
            mode="scoped", kinds=FIG4_KINDS, windows=((0.0, None),),
            fail_fast=True,
        )
        for cell in enumerate_cells(config):
            record = run_cell_record(cell, config)
            assert record["violations"] == []


class TestSanitizerUnits:
    def test_without_injector_still_audits_interfaces(self):
        """P1 needs ground truth, but P2/P4 come straight off the bus."""
        from repro.obs.bus import TelemetryBus

        bus = TelemetryBus()
        sanitizer = PrincipleAuditor.live(bus)
        bus.emit(
            1.0, "interface", "crossing",
            interface="JavaIO(naive)", op="JavaIO(naive).read throws ...",
            error="CredentialExpired", scope="LOCAL_RESOURCE", kind="explicit",
            generic=True, declared=True, documented=False, converted=False,
        )
        principles = sorted(v.principle for v in sanitizer.violations)
        assert principles == [2, 4]

    def test_summary_counts_by_principle(self):
        from repro.obs.bus import TelemetryBus

        bus = TelemetryBus()
        sanitizer = PrincipleAuditor.live(bus)
        bus.emit(
            2.0, "error", "mishandled",
            error="OutOfMemory", scope="VIRTUAL_MACHINE", kind="escaping",
            detail="", manager="program", error_id=1,
        )
        assert sanitizer.summary() == {1: 0, 2: 0, 3: 1, 4: 0}
        assert [t for t, _ in sanitizer.timeline] == [2.0]
