"""The indexed matchmaking kernel vs. its executable specification.

``Matchmaker._best_machine_scan`` is the reference algorithm: evaluate
every machine, sort by ``(-rank, last_matched, name)``, take the head.
The indexed fast path (fresh set + requirement buckets + cached rank
orders) must return exactly that winner for every pool state; these
tests pin the equivalence, including a hypothesis sweep over randomized
pools, requirements, ranks, and match histories.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.condor.classads import ClassAd, parse
from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.match_index import (
    MachineIndex,
    extract_constraints,
    machine_rank_literal,
    rank_cacheable,
)
from repro.condor.daemons.matchmaker import Matchmaker
from repro.sim.engine import Simulator
from repro.sim.network import Network


def make_matchmaker(**overrides) -> tuple[Simulator, Matchmaker]:
    """A matchmaker whose negotiation loop never fires on its own."""
    overrides.setdefault("negotiation_interval", 10**9)
    sim = Simulator()
    net = Network(sim)
    mm = Matchmaker(sim, net, "cm", CondorConfig(**overrides))
    return sim, mm


def machine_ad(name: str, requirements: str = "TRUE", **attrs) -> ClassAd:
    ad = ClassAd({"name": name, "machine": name, "startdport": 9700, **attrs})
    ad.set_expr("requirements", requirements)
    return ad


def job_ad(requirements: str = "TRUE", rank: str | None = None, **attrs) -> ClassAd:
    ad = ClassAd(attrs)
    ad.set_expr("requirements", requirements)
    if rank is not None:
        ad.set_expr("rank", rank)
    return ad


# -- MachineIndex unit behaviour -------------------------------------------

class TestMachineIndex:
    def test_equality_bucket_narrowing(self):
        index = MachineIndex()
        index.add("a", ClassAd({"arch": "intel"}))
        index.add("b", ClassAd({"arch": "sparc"}))
        test, estimate, names = index.membership(
            job_ad('TARGET.arch == "intel"')
        )
        assert estimate == 1
        assert test("a") and not test("b")
        assert set(names) == {"a"}

    def test_string_equality_is_case_insensitive(self):
        index = MachineIndex()
        index.add("a", ClassAd({"arch": "Intel"}))
        test, estimate, _ = index.membership(job_ad('TARGET.arch == "INTEL"'))
        assert estimate == 1 and test("a")

    def test_threshold_buckets(self):
        index = MachineIndex()
        for name, mem in [("a", 32), ("b", 64), ("c", 128)]:
            index.add(name, ClassAd({"memory": mem}))
        test, estimate, names = index.membership(job_ad("TARGET.memory >= 64"))
        assert estimate == 2
        assert not test("a") and test("b") and test("c")
        assert set(names) == {"b", "c"}

    def test_empty_bucket_estimate_is_zero(self):
        index = MachineIndex()
        index.add("a", ClassAd({"arch": "intel"}))
        _, estimate, _ = index.membership(job_ad('TARGET.arch == "sparc"'))
        assert estimate == 0

    def test_expression_valued_attr_is_opaque_candidate(self):
        """A machine whose attribute is an expression can evaluate to
        anything, so it must survive every probe on that attribute."""
        index = MachineIndex()
        cheater = ClassAd()
        cheater.set_expr("memory", "32 + 96")
        index.add("shape", cheater)
        index.add("small", ClassAd({"memory": 16}))
        test, estimate, _ = index.membership(job_ad("TARGET.memory >= 100"))
        assert test("shape") and not test("small")
        assert estimate == 1

    def test_opaque_requirements_admit_everything(self):
        index = MachineIndex()
        index.add("a", ClassAd({"arch": "intel"}))
        test, estimate, names = index.membership(
            job_ad("TARGET.memory > TARGET.disk")
        )
        assert test is None and names is None
        assert estimate == 1

    def test_remove_clears_postings(self):
        index = MachineIndex()
        index.add("a", ClassAd({"arch": "intel", "memory": 64}))
        index.remove("a")
        assert len(index) == 0
        _, estimate, _ = index.membership(job_ad('TARGET.arch == "intel"'))
        assert estimate == 0

    def test_readvertise_replaces_postings(self):
        index = MachineIndex()
        index.add("a", ClassAd({"arch": "intel"}))
        index.add("a", ClassAd({"arch": "sparc"}))
        test, estimate, _ = index.membership(job_ad('TARGET.arch == "intel"'))
        assert estimate == 0 and not test("a")

    def test_stamp_tracks_mutations(self):
        index = MachineIndex()
        s0 = index.stamp
        index.add("a", ClassAd({"x": 1}))
        assert index.stamp > s0
        s1 = index.stamp
        index.remove("a")
        assert index.stamp > s1


class TestConstraintExtraction:
    def test_conjunction_yields_multiple_constraints(self):
        constraints = extract_constraints(
            job_ad('TARGET.arch == "intel" && TARGET.memory >= 64')
        )
        assert {(c.attr, c.op) for c in constraints} == {
            ("arch", "=="), ("memory", ">="),
        }

    def test_flipped_comparison(self):
        (c,) = extract_constraints(job_ad("64 <= TARGET.memory"))
        assert (c.attr, c.op, c.bound) == ("memory", ">=", 64.0)

    def test_rhs_evaluated_job_side(self):
        (c,) = extract_constraints(
            job_ad("TARGET.memory >= MY.needed", needed=48)
        )
        assert (c.attr, c.op, c.bound) == ("memory", ">=", 48.0)

    def test_unqualified_ref_resolving_job_side_is_not_a_constraint(self):
        # "needed" lives on the job, so "needed >= 10" says nothing about
        # the machine.
        assert extract_constraints(job_ad("needed >= 10", needed=48)) == []

    def test_unqualified_ref_absent_from_job_constrains_machine(self):
        (c,) = extract_constraints(job_ad("memory >= 10"))
        assert (c.attr, c.op) == ("memory", ">=")

    def test_analysis_cache_invalidated_on_mutation(self):
        ad = job_ad('TARGET.arch == "intel"')
        assert len(extract_constraints(ad)) == 1
        ad.set_expr("requirements", "TRUE")
        assert extract_constraints(ad) == []


class TestRankCacheability:
    def test_missing_and_literal_ranks_are_cacheable(self):
        assert rank_cacheable(None)
        assert rank_cacheable(parse("10"))

    def test_target_only_rank_is_cacheable(self):
        assert rank_cacheable(parse("TARGET.cpuspeed * 2 + TARGET.memory"))

    def test_my_or_unqualified_rank_is_not(self):
        assert not rank_cacheable(parse("MY.priority"))
        assert not rank_cacheable(parse("cpuspeed"))

    def test_machine_side_literal_validation(self):
        literal = ClassAd({"cpuspeed": 3})
        assert machine_rank_literal(literal, {"cpuspeed"})
        assert machine_rank_literal(literal, {"absent"})
        expressive = ClassAd()
        expressive.set_expr("cpuspeed", "TARGET.bribe * 100")
        assert not machine_rank_literal(expressive, {"cpuspeed"})


# -- indexed path == reference scan ----------------------------------------

MACHINE_REQS = [
    "TRUE",
    "TARGET.needed <= 9999",
    "TARGET.needed <= MY.memory",
    "TARGET.absent > 1",  # UNDEFINED: this machine rejects everyone
]
JOB_REQS = [
    "TRUE",
    'TARGET.arch == "intel"',
    'TARGET.arch == "INTEL" && TARGET.memory >= 33',
    "TARGET.memory >= 64",
    "TARGET.memory >= MY.needed",
    "MY.needed <= TARGET.memory",
    "TARGET.hasjava == TRUE",
    "TARGET.memory > TARGET.disk",  # opaque to the index
]
JOB_RANKS = [None, "TARGET.memory", "TARGET.cpuspeed * 2", "MY.needed", "7"]

machine_strategy = st.fixed_dictionaries(
    {
        "arch": st.sampled_from(["intel", "sparc"]),
        "memory": st.sampled_from([32, 64, 128]),
        "cpuspeed": st.integers(min_value=1, max_value=4),
        "hasjava": st.booleans(),
        "state": st.sampled_from(["unclaimed", "unclaimed", "claimed"]),
        "requirements": st.sampled_from(MACHINE_REQS),
        "expr_memory": st.booleans(),  # advertise memory as an expression
        "history": st.sampled_from(["never", "boundary", "stale"]),
    }
)

job_strategy = st.fixed_dictionaries(
    {
        "requirements": st.sampled_from(JOB_REQS),
        "rank": st.sampled_from(JOB_RANKS),
        "needed": st.sampled_from([16, 64, 200]),
    }
)


def build_pool(mm: Matchmaker, sim: Simulator, machines: list[dict]) -> None:
    for i, spec in enumerate(machines):
        name = f"m{i:02d}"
        ad = machine_ad(
            name,
            requirements=spec["requirements"],
            arch=spec["arch"],
            cpuspeed=spec["cpuspeed"],
            hasjava=spec["hasjava"],
            state=spec["state"],
        )
        if spec["expr_memory"]:
            ad.set_expr("memory", f"{spec['memory']} + 0")
        else:
            ad["memory"] = spec["memory"]
        mm.receive_ad("machine", name, ad)
    sim.run(until=1.0)
    for i, spec in enumerate(machines):
        name = f"m{i:02d}"
        if spec["history"] == "stale":
            # Matched strictly after its last ad: not a candidate.
            mm._record_match(mm.machine_ads[name])
        elif spec["history"] == "boundary":
            # Re-advertised at the exact match instant: still a candidate.
            mm.receive_ad("machine", name, mm.machine_ads[name].ad)
            mm._record_match(mm.machine_ads[name])


@given(
    st.lists(machine_strategy, min_size=1, max_size=8),
    st.lists(job_strategy, min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_indexed_winner_equals_scan_winner(machines, jobs):
    sim, mm = make_matchmaker()
    build_pool(mm, sim, machines)
    for spec in jobs:
        ad = job_ad(spec["requirements"], rank=spec["rank"], needed=spec["needed"])
        expected = mm._best_machine_scan(ad)
        got = mm._best_machine(ad)
        assert (got.name if got else None) == (
            expected.name if expected else None
        )


@given(
    st.lists(machine_strategy, min_size=2, max_size=8),
    job_strategy,
)
@settings(max_examples=60, deadline=None)
def test_equivalence_survives_a_match_sequence(machines, spec):
    """Drain the pool one match at a time, checking the indexed path
    against the scan at every intermediate state."""
    sim, mm = make_matchmaker()
    build_pool(mm, sim, machines)
    ad = job_ad(spec["requirements"], rank=spec["rank"], needed=spec["needed"])
    for _ in range(len(machines) + 1):
        expected = mm._best_machine_scan(ad)
        got = mm._best_machine(ad)
        assert (got.name if got else None) == (
            expected.name if expected else None
        )
        if got is None:
            break
        mm._record_match(got)


def test_indexed_path_sees_midcycle_arrival():
    """A machine advertised after the rank order was first built must be
    eligible immediately (mid-cycle arrivals are visible to the scan)."""
    sim, mm = make_matchmaker()
    mm.receive_ad("machine", "old", machine_ad("old", memory=32))
    ad = job_ad("TARGET.memory >= 1", rank="TARGET.memory")
    assert mm._best_machine(ad).name == "old"  # builds and caches the order
    mm.receive_ad("machine", "new", machine_ad("new", memory=128))
    assert mm._best_machine_scan(ad).name == "new"
    assert mm._best_machine(ad).name == "new"


def test_walk_prefix_compaction_preserves_winners():
    """Matching away a long prefix of a cached rank order (then letting
    compaction slice it) must never change subsequent winners."""
    sim, mm = make_matchmaker()
    for i in range(200):
        mm.receive_ad(
            "machine", f"m{i:03d}", machine_ad(f"m{i:03d}", memory=1000 - i)
        )
    sim.run(until=1.0)
    ad = job_ad("TARGET.memory >= 1", rank="TARGET.memory")
    for i in range(200):
        expected = mm._best_machine_scan(ad)
        got = mm._best_machine(ad)
        assert got.name == expected.name == f"m{i:03d}"
        mm._record_match(got)
    assert mm._best_machine(ad) is None


def test_preemption_config_uses_reference_scan():
    sim, mm = make_matchmaker(preemption=True)
    busy = machine_ad("busy", memory=64, state="claimed", currentrank=1.0)
    busy.set_expr("rank", "TARGET.priority")
    mm.receive_ad("machine", "busy", busy)
    assert mm._best_machine(job_ad("TRUE", priority=5)) is not None
    assert mm._best_machine(job_ad("TRUE", priority=0)) is None


# -- differential under churn ------------------------------------------------

CHURN_MACHINE_REQS = [*MACHINE_REQS, "TARGET.priority >= 2"]
CHURN_NAMES = [f"m{i}" for i in range(5)]
CHURN_JOBS = [f"j{i}" for i in range(5)]

churn_machine = st.fixed_dictionaries(
    {
        "arch": st.sampled_from(["intel", "sparc"]),
        "memory": st.sampled_from([32, 64, 128]),
        "cpuspeed": st.integers(min_value=1, max_value=3),
        "hasjava": st.booleans(),
        "state": st.sampled_from(["unclaimed", "unclaimed", "claimed"]),
        "requirements": st.sampled_from(CHURN_MACHINE_REQS),
    }
)
churn_job = st.fixed_dictionaries(
    {
        "requirements": st.sampled_from(JOB_REQS),
        "rank": st.sampled_from(JOB_RANKS),
        "needed": st.sampled_from([16, 64]),
        # Matters only while some machine's Requirements mentions it: two
        # jobs that differ here share a summary until one does.
        "priority": st.sampled_from([1, 3]),
        "frozen": st.booleans(),
    }
)


def rebuilt_postings(mm: Matchmaker) -> tuple:
    fresh = MachineIndex()
    for name, stored in mm.machine_ads.items():
        fresh.add(name, stored.ad)
    return postings_of(fresh)


def postings_of(index: MachineIndex) -> tuple:
    eq = {
        (attr, key): set(names)
        for attr, buckets in index._eq.items()
        for key, names in buckets.items()
        if names
    }
    opaque = {attr: set(names) for attr, names in index._opaque.items() if names}
    return eq, opaque, index._postings, index._req_by_name, index._req_refs


class ChurnMachine(RuleBasedStateMachine):
    """Random interleavings of everything that moves the pool, the queue
    or the clock; after every step the indexed path must agree with the
    reference scan for every queued job, and the incrementally-kept
    index with one rebuilt from the stored ads."""

    def __init__(self):
        super().__init__()
        self.sim, self.mm = make_matchmaker(ad_lifetime=20.0)

    # -- machines -----------------------------------------------------------
    @rule(name=st.sampled_from(CHURN_NAMES), spec=churn_machine)
    def machine_arrives(self, name, spec):
        """A new ad (also how a retracted or expired machine rejoins)."""
        self.mm.receive_ad("machine", name, machine_ad(name, **spec))

    def _stored(self, data):
        names = sorted(self.mm.machine_ads)
        return self.mm.machine_ads[data.draw(st.sampled_from(names))] if names else None

    @rule(data=st.data())
    def readvertise_same_object(self, data):
        stored = self._stored(data)
        if stored is not None:
            self.mm.receive_ad("machine", stored.name, stored.ad)

    @rule(data=st.data())
    def readvertise_equal_copy(self, data):
        stored = self._stored(data)
        if stored is not None:
            self.mm.receive_ad("machine", stored.name, stored.ad.copy())

    @rule(data=st.data(), memory=st.sampled_from([32, 64, 128]),
          requirements=st.sampled_from(CHURN_MACHINE_REQS))
    def edit_in_place_and_readvertise(self, data, memory, requirements):
        """The startd edits the ad it holds and sends the same object: a
        literal moves bucket, and Requirements may add or drop a job
        attribute between two jobs that shared a summary."""
        stored = self._stored(data)
        if stored is not None:
            stored.ad["memory"] = memory
            stored.ad.set_expr("requirements", requirements)
            self.mm.receive_ad("machine", stored.name, stored.ad)

    @rule(name=st.sampled_from(CHURN_NAMES))
    def machine_retracts(self, name):
        self.mm.retract_ad("machine", name)

    @rule(data=st.data())
    def machine_is_matched(self, data):
        stored = self._stored(data)
        if stored is not None:
            self.mm._record_match(stored)

    # -- jobs -----------------------------------------------------------------
    @rule(name=st.sampled_from(CHURN_JOBS), spec=churn_job)
    def job_arrives(self, name, spec):
        ad = job_ad(spec["requirements"], rank=spec["rank"],
                    needed=spec["needed"], priority=spec["priority"])
        self.mm.receive_ad("job", name, ad.freeze() if spec["frozen"] else ad)

    @rule(name=st.sampled_from(CHURN_JOBS), needed=st.sampled_from([16, 64, 200]),
          requirements=st.sampled_from(JOB_REQS))
    def job_refreshes_or_edits(self, name, needed, requirements):
        """A frozen ad can only be re-sent; an unfrozen one is edited in
        place, which must drop its constraints and its cluster."""
        stored = self.mm.job_ads.get(name)
        if stored is None:
            return
        if not stored.ad.frozen:
            stored.ad["needed"] = needed
            stored.ad.set_expr("requirements", requirements)
        self.mm.receive_ad("job", name, stored.ad)

    # -- time -----------------------------------------------------------------
    @rule(dt=st.sampled_from([0.0, 1.0, 7.0, 25.0]))
    def clock_advances(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule()
    def ads_expire(self):
        self.mm._expire()

    # -- the two specifications -------------------------------------------
    @invariant()
    def indexed_winner_is_the_scan_winner(self):
        for stored in self.mm.job_ads.values():
            expected = self.mm._best_machine_scan(stored.ad)
            got = self.mm._best_machine(stored.ad)
            assert (got.name if got else None) == (expected.name if expected else None)

    @invariant()
    def index_equals_one_rebuilt_from_scratch(self):
        assert postings_of(self.mm._index) == rebuilt_postings(self.mm)


ChurnMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestChurnDifferential = ChurnMachine.TestCase


def test_jobs_split_when_a_machine_starts_reading_what_tells_them_apart():
    """Two jobs share a summary while no machine's Requirements mentions
    ``priority``; the machine that does must not inherit a verdict (or a
    cursor) the pair earned together, and they re-merge when it leaves."""
    sim, mm = make_matchmaker()
    low = job_ad('TARGET.arch == "intel"', priority=1).freeze()
    high = job_ad('TARGET.arch == "intel"', priority=3).freeze()
    mm.receive_ad("machine", "plain", machine_ad("plain", arch="sparc"))
    assert mm._best_machine(low) is None and mm._best_machine(high) is None
    assert mm._cluster_of(low) is mm._cluster_of(high)
    generation = mm._index.refs_generation

    picky = machine_ad("picky", requirements="TARGET.priority >= 2", arch="intel")
    mm.receive_ad("machine", "picky", picky)
    assert mm._index.refs_generation == generation + 1
    assert mm._best_machine(low) is None  # memoized for low's summary only
    assert mm._best_machine(high).name == "picky"
    assert mm._cluster_of(low) is not mm._cluster_of(high)

    mm.receive_ad("machine", "picky", picky)  # unchanged: nothing to re-derive
    assert mm._index.refs_generation == generation + 1
    mm.retract_ad("machine", "picky")
    assert mm._index.refs_generation == generation + 2
    assert mm._cluster_of(low) is mm._cluster_of(high)
    assert mm._best_machine(high) is None


def test_one_job_ad_advertised_to_two_pools_keeps_them_apart():
    """A schedd flocks the same frozen ad to several matchmakers; a
    cluster derived against one pool's index says nothing about another."""
    ad = job_ad('TARGET.arch == "intel"', priority=1).freeze()
    _, here = make_matchmaker()
    _, there = make_matchmaker()
    here.receive_ad("machine", "a", machine_ad("a", arch="sparc"))
    there.receive_ad("machine", "b", machine_ad("b", arch="intel"))
    for _ in range(2):
        assert here._best_machine(ad) is None
        assert there._best_machine(ad).name == "b"
    assert here._cluster_of(ad) is not there._cluster_of(ad)
