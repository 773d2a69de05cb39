"""Counted advertise work: same traffic, less building.

The gridbench workload ``pool_backlog`` at its full shape (16 machines,
150 jobs queued at t = 0, seed 7) is run with call counters wrapped
around the schedd's ad builders and the matchmaker's ad intake.  The
simulation is deterministic, so every count repeats exactly.

Each of the 150 submits spawns a prompt advertise of the whole idle
queue, all at one instant.  The schedd builds that batch once per
instant, queue version and avoided-site set, so the burst shares one
build -- while every prompt still sends its batch and the matchmaker
still absorbs every ad in it.
"""

import collections

import pytest

from benchmarks.gridbench.spans import SpanRecorder
from benchmarks.gridbench.workloads import pool_backlog
from repro.condor.daemons.matchmaker import Matchmaker
from repro.condor.daemons.schedd import Schedd
from tests.condor.test_negotiation_work import _counting

SEED = 7

#: ``Schedd._ad_batch`` builds: 158 when every advertise built its own
#: batch (151 of them at t = 0), 8 since.
AD_BATCH_BUILDS = 8

#: ``Schedd._job_ad`` calls: 23 209 before, 709 since -- the per-job
#: cache is asked once per job per batch *built*, and once per claim.
JOB_AD_CALLS = 709

#: ``Matchmaker.receive_ad`` calls by ad kind: the traffic, unchanged.
RECEIVED = {"job": 23059, "machine": 412}


@pytest.fixture(scope="module")
def counted_run():
    counts: collections.Counter = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        _counting(patch, Schedd, "_ad_batch", counts)
        _counting(patch, Schedd, "_job_ad", counts)
        receive = Matchmaker.receive_ad

        def counted_receive(self, kind, name, ad):
            counts[kind] += 1
            return receive(self, kind, name, ad)

        patch.setattr(Matchmaker, "receive_ad", counted_receive)
        rec = SpanRecorder("pool_backlog", 0, False)
        state = pool_backlog.setup(SEED, False, rec, "")  # the workload keeps no files
        pool_backlog.run(state, rec)
    return state, counts


def test_the_run_is_the_benchmarked_one(counted_run):
    state, _ = counted_run
    assert len(state["jobs"]) == pool_backlog.FULL["jobs"] == 150
    assert all(job.is_terminal for job in state["jobs"])


def test_a_burst_of_submits_builds_one_batch(counted_run):
    _, counts = counted_run
    assert counts["_ad_batch"] == AD_BATCH_BUILDS
    assert counts["_job_ad"] == JOB_AD_CALLS


def test_the_matchmaker_absorbs_every_ad_as_before(counted_run):
    _, counts = counted_run
    assert {kind: counts[kind] for kind in RECEIVED} == RECEIVED
