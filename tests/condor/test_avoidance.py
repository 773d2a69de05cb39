"""The backoff-hardened §5 schedd defense: SiteAvoidance unit tests.

The paper's "detect and avoid hosts with chronic failures" was a
permanent blacklist; under churn the sentence must be finite.  These
tests pin the backoff schedule, the probation semantics at window
expiry, the success amnesty, and the churn eviction hook.
"""

import math

import pytest

from repro.condor.daemons import avoidance as avoidance_mod
from repro.condor.daemons.avoidance import SiteAvoidance
from repro.condor.daemons.config import CondorConfig


@pytest.fixture
def make_avoidance(monkeypatch):
    def make(mode="backoff", threshold=2, base=60.0, cap=480.0):
        monkeypatch.setattr(avoidance_mod, "AVOIDANCE_THRESHOLD", threshold)
        return SiteAvoidance(CondorConfig(
            schedd_avoidance=True,
            avoidance_mode=mode,
            avoidance_base=base,
            avoidance_cap=cap,
        ))
    return make


class TestThreshold:
    def test_below_threshold_no_window(self, make_avoidance):
        av = make_avoidance(threshold=3)
        assert not av.note_failure("exec000", now=0.0)
        assert not av.note_failure("exec000", now=1.0)
        assert not av.is_avoided("exec000", now=2.0)

    def test_threshold_strike_engages(self, make_avoidance):
        av = make_avoidance(threshold=2, base=60.0)
        av.note_failure("exec000", now=0.0)
        assert av.note_failure("exec000", now=1.0)
        assert av.is_avoided("exec000", now=2.0)
        assert av.avoided(now=2.0) == {"exec000"}

    def test_disabled_defense_never_avoids(self):
        av = SiteAvoidance(CondorConfig(schedd_avoidance=False))
        for t in range(5):
            assert not av.note_failure("exec000", now=float(t))
        assert not av.is_avoided("exec000", now=10.0)
        # Strikes are still counted (they feed diagnostics).
        assert av.failures["exec000"] == 5


class TestBackoffSchedule:
    def test_window_doubles_per_strike_and_caps(self, make_avoidance):
        av = make_avoidance(threshold=1, base=60.0, cap=200.0)
        av.note_failure("exec000", now=0.0)
        assert av.is_avoided("exec000", now=59.0)
        assert not av.is_avoided("exec000", now=60.0)  # 60s window
        av.note_failure("exec000", now=100.0)
        assert av.is_avoided("exec000", now=219.0)
        assert not av.is_avoided("exec000", now=220.0)  # doubled: 120s
        av.note_failure("exec000", now=300.0)
        assert not av.is_avoided("exec000", now=501.0)  # capped at 200s

    def test_sites_are_independent(self, make_avoidance):
        av = make_avoidance(threshold=1)
        av.note_failure("exec000", now=0.0)
        assert av.is_avoided("exec000", now=1.0)
        assert not av.is_avoided("exec001", now=1.0)


class TestProbation:
    def test_expiry_keeps_strikes_one_failure_reavoids(self, make_avoidance):
        av = make_avoidance(threshold=2, base=60.0)
        av.note_failure("exec000", now=0.0)
        av.note_failure("exec000", now=1.0)  # window until 61
        assert not av.is_avoided("exec000", now=100.0)  # probation
        assert av.failures["exec000"] == 2  # record survives expiry
        # One more failure re-avoids immediately (and doubles the window).
        assert av.note_failure("exec000", now=100.0)
        assert av.is_avoided("exec000", now=219.0)

    def test_success_clears_the_whole_record(self, make_avoidance):
        av = make_avoidance(threshold=2)
        av.note_failure("exec000", now=0.0)
        av.note_failure("exec000", now=1.0)
        av.note_success("exec000", now=100.0)
        assert "exec000" not in av.failures
        assert not av.is_avoided("exec000", now=100.0)
        # The site starts from zero strikes again.
        assert not av.note_failure("exec000", now=101.0)


class TestPermanentMode:
    def test_blacklist_never_expires(self, make_avoidance):
        av = make_avoidance(mode="permanent", threshold=2)
        av.note_failure("exec000", now=0.0)
        av.note_failure("exec000", now=1.0)
        assert av._avoid_until["exec000"] == math.inf
        assert av.is_avoided("exec000", now=10.0**9)


class TestForget:
    def test_forget_drops_strikes_and_window(self, make_avoidance):
        av = make_avoidance(threshold=1)
        av.note_failure("exec000", now=0.0)
        av.forget("exec000")
        assert "exec000" not in av.failures
        assert not av.is_avoided("exec000", now=0.0)

    def test_forget_unknown_site_is_a_noop(self, make_avoidance):
        av = make_avoidance()
        av.forget("never-seen")  # no KeyError
