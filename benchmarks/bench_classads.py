"""EXP-CLASSADS -- matchmaking-substrate throughput.

Not a paper figure: a substrate check ensuring the ClassAd engine scales
for the experiments above, and an ablation point for the matchmaker's
negotiation-cycle cost vs pool size.
"""

import pytest

from repro.condor.classads import ClassAd, rank, symmetric_match
from repro.condor.classads.parser import parse_uncached


def _job_ad():
    job = ClassAd({"imagesize": 28, "owner": "thain", "universe": "java"})
    job.set_expr(
        "requirements",
        'TARGET.arch == "intel" && TARGET.opsys == "linux" '
        "&& TARGET.memory >= MY.imagesize && TARGET.hasjava == TRUE",
    )
    job.set_expr("rank", "TARGET.memory + 10 * TARGET.cpuspeed")
    return job


def _machine_ad(i):
    machine = ClassAd(
        {
            "machine": f"exec{i:04d}",
            "arch": "intel",
            "opsys": "linux",
            "memory": 64 + (i % 16) * 32,
            "cpuspeed": 0.5 + (i % 8) * 0.25,
            "hasjava": (i % 5 != 0),
        }
    )
    machine.set_expr("requirements", "TARGET.imagesize <= MY.memory")
    return machine


def test_parse_throughput(benchmark):
    source = 'TARGET.arch == "intel" && TARGET.memory >= MY.imagesize && (x + 3) * 2 > 10'
    # parse() interns; a repeat of one source would time a dict lookup.
    benchmark(parse_uncached, source)


def test_match_throughput(benchmark):
    job, machine = _job_ad(), _machine_ad(1)
    result = benchmark(symmetric_match, job, machine)
    assert result is True


@pytest.mark.parametrize("pool_size", [50, 200, 800])
def test_negotiation_sweep(benchmark, pool_size):
    """Full pass: match + rank one job ad against *pool_size* machines."""
    job = _job_ad()
    machines = [_machine_ad(i) for i in range(pool_size)]

    def negotiate():
        best, best_rank = None, float("-inf")
        for machine in machines:
            if symmetric_match(job, machine):
                r = rank(job, machine)
                if r > best_rank:
                    best, best_rank = machine, r
        return best

    best = benchmark(negotiate)
    assert best is not None
