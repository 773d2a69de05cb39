"""Regression tests for the matchmaker's leak and robustness fixes.

Long-standing defects, each pinned here:

- a malformed ``scheddport``/``startdport`` (any non-numeric value, or
  ``1e400``) raised ``ValueError`` (``OverflowError``) out of the collect
  loop or the cycle -- one bad ad could kill the matchmaker;
- so did an integer ``Rank`` past float range;
- ``_recently_matched`` grew monotonically: machines that left the pool
  kept their last-matched stamp forever;
- ``owner_usage`` likewise retained every owner ever seen, decayed into
  denormal dust but never evicted;
- the freshness check used ``>=``: a machine whose ad arrived at the
  exact simulated instant of its previous match was wrongly treated as
  stale and skipped;
- that same machine stays eligible but is no longer *ahead* of its
  never-matched peers, and a cached rank order kept it there.

And one leak that never shipped: the autocluster intern table holds one
record per distinct match summary, bounded by the job ads that carry it.
"""

import gc

import pytest

from repro.condor.classads import ClassAd, rank
from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.matchmaker import USAGE_EPSILON, Matchmaker
from repro.sim.engine import Simulator
from repro.sim.network import Network

from tests.condor.test_match_index import job_ad, machine_ad, make_matchmaker


def drain(sim: Simulator, mm: Matchmaker) -> None:
    proc = sim.spawn(mm.run_cycle(), name="test-cycle")
    proc.defuse()
    sim.run(until=sim.now + 60)


class TestMalformedPorts:
    def test_bad_scheddport_does_not_raise(self):
        sim, mm = make_matchmaker()
        ad = job_ad("TRUE", scheddhost="sub", scheddport="not-a-port")
        mm.receive_ad("job", "sub#1", ad)
        assert mm.job_ads["sub#1"].reply_port == 0

    def test_bad_startdport_does_not_kill_the_cycle(self):
        sim, mm = make_matchmaker()
        mm.receive_ad(
            "machine", "exec", machine_ad("exec", startdport="broken")
        )
        mm.receive_ad(
            "job", "sub#1", job_ad("TRUE", scheddhost="sub", scheddport=9600)
        )
        drain(sim, mm)  # must not raise out of the negotiation cycle

    def test_port_of_accepts_numeric_strings(self):
        assert Matchmaker._port_of(ClassAd({"p": "9618"}), "p") == 9618
        assert Matchmaker._port_of(ClassAd({"p": 9618}), "p") == 9618
        assert Matchmaker._port_of(ClassAd(), "p") == 0
        assert Matchmaker._port_of(ClassAd({"p": float("inf")}), "p") == 0

    def test_an_integer_rank_past_float_range_ranks_as_infinity(self):
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "small", machine_ad("small", memory=32))
        mm.receive_ad("machine", "big", machine_ad("big", memory=64))
        probe = job_ad("TRUE", rank="TARGET.memory * 1" + "0" * 400)
        assert mm._best_machine_scan(probe).name == "big"
        assert mm._best_machine(probe).name == "big"
        assert rank(probe, ClassAd({"memory": -1})) == float("-inf")


class TestRecentlyMatchedPruning:
    def test_expired_machine_drops_its_match_stamp(self):
        sim, mm = make_matchmaker(ad_lifetime=10.0)
        mm.receive_ad("machine", "exec", machine_ad("exec"))
        mm._record_match(mm.machine_ads["exec"])
        assert "exec" in mm._recently_matched
        sim.run(until=100.0)
        mm._expire()
        assert "exec" not in mm.machine_ads
        assert "exec" not in mm._recently_matched
        assert "exec" not in mm._fresh
        assert len(mm._index) == 0

    def test_refreshed_ad_survives_expiry(self):
        sim, mm = make_matchmaker(ad_lifetime=10.0)
        mm.receive_ad("machine", "exec", machine_ad("exec"))
        sim.run(until=8.0)
        mm.receive_ad("machine", "exec", machine_ad("exec"))
        sim.run(until=15.0)  # first ad is past the horizon, refresh is not
        mm._expire()
        assert "exec" in mm.machine_ads


class TestOwnerUsageEviction:
    def test_decayed_entries_are_evicted(self):
        sim, mm = make_matchmaker()
        mm.owner_usage["ghost"] = USAGE_EPSILON  # decays below the floor
        mm.owner_usage["active"] = 8.0
        drain(sim, mm)
        assert "ghost" not in mm.owner_usage
        assert mm.owner_usage["active"] == pytest.approx(4.0)

    def test_usage_eventually_vanishes_entirely(self):
        sim, mm = make_matchmaker()
        mm.owner_usage["once"] = 1.0
        for _ in range(40):  # 0.5**40 is far below any epsilon
            drain(sim, mm)
        assert mm.owner_usage == {}


class TestClusterTableIsBoundedByLiveJobs:
    """Like ``owner_usage`` and ``_recently_matched``: churn through any
    number of distinct summaries, keep only those a queued job carries."""

    def test_clusters_die_with_their_last_job(self):
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "exec", machine_ad("exec", memory=64))
        for i in range(200):  # 200 summaries, none matchable
            # (the product keeps the index out of it: a full search each)
            ad = job_ad("TARGET.memory * 1 >= MY.needed", needed=1000 + i)
            mm.receive_ad("job", f"j{i}", ad)
            assert mm._best_machine(ad) is None
        # Verdicts are remembered for exactly the queued jobs...
        assert len(mm._clusters) == len(mm._no_match_memo) == 200
        for i in range(199):
            mm.retract_ad("job", f"j{i}")
        del ad
        # ...and a machine ad sweeps the memo and the cursors, the only
        # other holders of a cluster record.
        mm.receive_ad("machine", "exec", machine_ad("exec", memory=64))
        gc.collect()
        assert len(mm._clusters) == 1
        mm.retract_ad("job", "j199")
        gc.collect()
        assert len(mm._clusters) == 0

    def test_jobs_with_one_summary_share_one_record(self):
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "exec", machine_ad("exec", memory=64))
        ads = [job_ad("TARGET.memory >= MY.needed", needed=128) for _ in range(50)]
        assert all(mm._best_machine(ad) is None for ad in ads)
        assert len(mm._clusters) == 1
        assert len({id(mm._cluster_of(ad)) for ad in ads}) == 1

    def test_an_edited_ad_leaves_its_cluster(self):
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "exec", machine_ad("exec", memory=64))
        ad = job_ad("TARGET.memory >= MY.needed", needed=128)
        assert mm._best_machine(ad) is None
        ad["needed"] = 32  # unfrozen: edited where it sits in the queue
        assert mm._best_machine(ad).name == "exec"


class TestFreshnessBoundary:
    def test_ad_received_at_match_instant_is_eligible(self):
        """Matched at t, re-advertised at exactly t: the new ad is not
        older than the match, so the machine must remain a candidate
        (the old ``>=`` comparison wrongly skipped it)."""
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "exec", machine_ad("exec"))
        sim.run(until=5.0)
        mm.receive_ad("machine", "exec", machine_ad("exec"))
        mm._record_match(mm.machine_ads["exec"])  # both at t=5.0
        probe = job_ad("TRUE")
        assert mm._best_machine_scan(probe) is not None
        assert mm._best_machine(probe) is not None

    def test_ad_older_than_match_is_skipped(self):
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "exec", machine_ad("exec"))
        sim.run(until=5.0)
        mm._record_match(mm.machine_ads["exec"])  # ad t=0, match t=5
        probe = job_ad("TRUE")
        assert mm._best_machine_scan(probe) is None
        assert mm._best_machine(probe) is None

    def test_matched_at_its_advertise_instant_yields_to_unmatched_peers(self):
        """Still fresh, but the tie-break is least-recently-matched: a
        rank order built before the match must not keep it in front
        (found by the churn differential in test_match_index.py)."""
        sim, mm = make_matchmaker()
        mm.receive_ad("machine", "m0", machine_ad("m0"))
        mm.receive_ad("machine", "m1", machine_ad("m1"))
        probe = job_ad("TRUE")
        assert mm._best_machine(probe).name == "m0"  # builds the order
        mm._record_match(mm.machine_ads["m0"])  # at m0's advertise instant
        assert mm._best_machine_scan(probe).name == "m1"
        assert mm._best_machine(probe).name == "m1"


class TestRejoinDoesNotReviveAnOldOrderEntry:
    def test_machine_that_left_and_rejoined_is_ranked_by_its_new_ad(self):
        """Sequence numbers restarted at 1 for a name that had left, so
        the entry filed under its old ad's rank came back to life (found
        by the churn differential in test_match_index.py)."""
        sim, mm = make_matchmaker()
        probe = job_ad("TRUE", rank="TARGET.memory")
        mm.receive_ad("machine", "m0", machine_ad("m0", memory=32))
        mm.receive_ad("machine", "m3", machine_ad("m3", memory=64))
        assert mm._best_machine(probe).name == "m3"  # builds the order
        mm.retract_ad("machine", "m3")
        mm.receive_ad("machine", "m3", machine_ad("m3", memory=32))
        assert mm._best_machine_scan(probe).name == "m0"
        assert mm._best_machine(probe).name == "m0"
