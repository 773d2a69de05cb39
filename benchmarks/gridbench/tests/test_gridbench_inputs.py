import random

from benchmarks.gridbench.workloads import (
    fuzz_campaign,
    negotiate_scale,
    pool_backlog,
    service_roundtrip,
)


def ads_text(seed):
    rng = random.Random(seed)
    ads = negotiate_scale.build_machines(60, rng) + negotiate_scale.build_jobs(100, rng)
    return "\n".join(f"{name}\n{ad.render()}" for name, ad in ads)


def jobs_text(seed):
    jobs = pool_backlog._jobs(seed, 12, None)
    return "\n".join(f"{job.job_id} {job.image.program.steps!r}" for job in jobs)


def waves_text(seed):
    return repr(service_roundtrip.wave_specs(seed, smoke=False))


def test_same_seed_same_bytes_other_seed_other_bytes():
    for render in (ads_text, jobs_text, waves_text):
        first = render(7)
        assert first and render(7) == first
        assert render(11) != first


def test_adversarial_shares_do_not_depend_on_the_seed():
    for seed in (7, 11):
        machines = negotiate_scale.build_machines(230, random.Random(seed))
        claimed = sum(1 for _, ad in machines if ad.value("state") == "claimed")
        assert claimed == 230 // 13


def test_service_seeds_shuffle_one_ladder():
    """Every seed submits the same total work: only the order (and a <1 % jitter) differs."""
    for seed in (7, 11, 12):
        works = [spec["work"] for spec in service_roundtrip.wave_specs(seed, smoke=False)]
        assert sorted(int(w) for w in works) == list(service_roundtrip.FULL["ladder"])
        assert all(0 <= w - int(w) <= 0.05 for w in works)


def test_programs_that_only_take_a_seed_are_pinned():
    assert fuzz_campaign.config_for(smoke=True).campaign.seed == fuzz_campaign.CAMPAIGN_SEED
