"""Tier-1 smoke and slow full-scale runs of pool-scale negotiation.

The gridbench workload ``negotiate_scale`` owns the pool (adversarial ads
included; ``test_negotiation_work.py`` counts its work); these tests pin
its correctness properties at two sizes:

- a smoke size that runs in well under a second in tier-1, asserting the
  indexed kernel and the reference scan negotiate identical pools over
  whole cycles (``test_match_index.py::TestChurnDifferential`` holds the
  two paths winner-for-winner on five machines; this is the same equality
  end to end, notifications delivered, on a pool with every adversary);
- the 10k x 100k case behind the ``slow`` marker, so the full
  configuration stays runnable as a test.
"""

import random

import pytest

from benchmarks.gridbench.spans import SpanRecorder
from benchmarks.gridbench.workloads import negotiate_scale

SEED = 7


def _negotiate(machines: int, jobs: int, cycles: int, scan: bool = False) -> dict:
    rec = SpanRecorder("negotiate_scale", 0, False)
    state = negotiate_scale.setup(SEED, True, rec, "")  # the workload keeps no files
    rng = random.Random(SEED)
    state.update(
        machines=negotiate_scale.build_machines(machines, rng),
        jobs=negotiate_scale.build_jobs(jobs, rng),
        cycles=cycles,
    )
    if scan:  # the pre-index algorithm: a full scan per job
        state["matchmaker"]._best_machine = state["matchmaker"]._best_machine_scan
    negotiate_scale.run(state, rec)
    result = negotiate_scale.finish(state, rec, False)
    assert result["failed"] == 0 and all(result["checks"].values()), result["checks"]
    return result["fingerprint"]


def test_smoke_pool_indexed_equals_scan():
    indexed = _negotiate(120, 240, 3)
    assert indexed == _negotiate(120, 240, 3, scan=True)
    assert indexed["matches_made"] > 200  # the faulty ads must not hollow out the pool


@pytest.mark.slow
def test_full_scale_pool():
    assert _negotiate(10_000, 100_000, 16)["matches_made"] > 90_000
