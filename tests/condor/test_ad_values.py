"""Ads are values: interned parses, frozen ads, the schedd's job-ad
cache, the matchmaker's refresh fast path, and the startd's machine ads
with the index that recognises them (DESIGN §3.3a).

Each leg removes host work only, so each is pinned against the slow
path it replaced: the interned tree against the raw parser, the cached
ad against one built from scratch, a refresh by identity against a
refresh by an equal fresh copy.
"""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.classads import (
    ClassAd,
    FrozenAdError,
    LexError,
    ParseError,
    parse,
    symmetric_match,
)
from repro.condor.classads import ad as ad_mod
from repro.condor.classads import parser as parser_mod
from repro.condor.classads.expr import ClassAdValue, Literal, ValueType
from repro.condor.classads.parser import parse_uncached
from repro.condor.daemons import match_index as match_index_mod
from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.match_index import Constraint, MachineIndex, extract_constraints
from repro.condor.daemons.schedd import Schedd
from repro.condor.daemons.shadow import ShadowOutcome
from repro.condor.daemons.startd import Startd
from repro.condor.job import ExecutionAttempt
from repro.core.result import ResultFile
from repro.core.scope import ErrorScope
from repro.sim.engine import Simulator
from repro.sim.machine import OwnerPolicy
from repro.sim.network import Network, NetworkError

from tests.condor.test_classads_properties import expressions
from tests.condor.test_match_index import machine_ad, make_matchmaker


# -- (a) interned parses -------------------------------------------------

class TestInternedParse:
    def test_same_source_same_tree(self):
        source = "TARGET.memory >= MY.imagesize && TARGET.hasjava == TRUE"
        assert parse(source) is parse(source)
        assert parse(source) is not parse(source + " ")

    def test_raw_parser_builds_a_fresh_equal_tree(self):
        source = "TARGET.memory * 2 > 64"
        assert parse_uncached(source) == parse(source)
        assert parse_uncached(source) is not parse_uncached(source)

    @pytest.mark.parametrize("source, error", [
        ("(1 + ", ParseError),
        ("1 2", ParseError),
        ('"unterminated', LexError),
    ])
    def test_errors_are_raised_every_time_and_never_kept(self, source, error):
        kept = parser_mod._intern.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                parse(source)
        assert parser_mod._intern.cache_info().currsize == kept

    def test_size_is_bounded_and_eviction_is_lru(self):
        bound = parser_mod.INTERN_MAX
        assert parser_mod._intern.cache_info().maxsize == bound
        keeper = parse("TARGET.keeper == 0")
        first = parse("TARGET.memory >= 0")
        for i in range(1, 10 * bound):
            parse(f"TARGET.memory >= {i}")
            if i % 1000 == 0:  # touched more often than the bound turns over
                assert parse("TARGET.keeper == 0") is keeper
        assert parser_mod._intern.cache_info().currsize == bound
        assert parse("TARGET.memory >= 0") is not first  # long evicted, parsed anew

    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_interned_tree_equals_the_raw_parsers(self, source):
        tree = parse(source)
        assert tree is parse(source)
        assert tree == parse_uncached(source)
        assert str(tree) == str(parse_uncached(source))


# -- (a') interned atoms and constraints -----------------------------------

class _Colour(enum.IntEnum):
    RED = 1


def _uninterned(attrs: dict) -> ClassAd:
    """The ad ``ClassAd(attrs)`` built before assigned atoms were shared."""
    ad = ClassAd()
    for name, value in attrs.items():
        ad[name] = Literal(ClassAdValue.of(value))  # an Expr is stored as given
    return ad


class TestInternedAtoms:
    def test_equal_atoms_are_one_literal_per_exact_type(self):
        a, b = ClassAd({"x": 1, "y": "intel", "z": True}), ClassAd({"x": 1, "y": "intel"})
        assert a.lookup("x") is b.lookup("x")
        assert a.lookup("y") is b.lookup("y")
        assert a.lookup("z") is not a.lookup("x")  # True == 1, and they hash alike

    def test_true_and_one_keep_their_types_in_either_order(self):
        for first, second in ((True, 1), (1, True), (False, 0), (0, False)):
            ad_mod._atom.cache_clear()
            ad = ClassAd({"first": first, "second": second})
            for name, value in (("first", first), ("second", second)):
                kind = ValueType.BOOLEAN if type(value) is bool else ValueType.INTEGER
                assert ad.eval(name).type is kind
                assert ad.value(name) is value

    @pytest.mark.parametrize("value", [_Colour.RED, 1.0, 0.0, -0.0, None, b"bytes"])
    def test_everything_else_takes_the_uninterned_path(self, value):
        before = ad_mod._atom.cache_info()
        one, two = ClassAd({"x": value}), ClassAd({"x": value})
        assert ad_mod._atom.cache_info() == before
        assert one.lookup("x") is not two.lookup("x")
        assert one.lookup("x") == Literal(ClassAdValue.of(value))
        assert str(one.lookup("x")) == str(Literal(ClassAdValue.of(value)))  # "-0.0" stays

    @given(st.lists(
        st.dictionaries(
            st.sampled_from(["arch", "memory", "hasjava", "Owner", "load", "colour"]),
            st.one_of(st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                      st.sampled_from(["intel", "INTEL", "", "1", "true"]),
                      st.just(_Colour.RED), st.none()),
        ),
        min_size=200, max_size=200,
    ))
    @settings(max_examples=5, deadline=None)
    def test_render_of_200_random_ads_is_unchanged(self, ads):
        for attrs in ads:
            ad = ClassAd(attrs)
            assert ad.render() == _uninterned(attrs).render()
            assert ad._attrs == _uninterned(attrs)._attrs

    def test_equal_constraints_are_one_object(self):
        def job(image):
            ad = ClassAd({"imagesize": image})
            ad.set_expr(
                "requirements",
                'TARGET.arch == "intel" && TARGET.memory >= MY.imagesize && 2 < TARGET.cpus',
            )
            return ad

        a, b, c = (extract_constraints(job(n)) for n in (32, 32, 64))
        assert a == [Constraint("arch", "==", ("s", "intel")),
                     Constraint("memory", ">=", None, 32.0),
                     Constraint("cpus", ">", None, 2.0)]
        assert all(x is y for x, y in zip(a, b))
        assert a[0] is c[0] and a[2] is c[2] and a[1] != c[1]

    def test_both_tables_are_bounded_by_the_parsers_intern_max(self):
        bound = parser_mod.INTERN_MAX
        for cache in (ad_mod._atom, match_index_mod._constraint):
            assert cache.cache_info().maxsize == bound
        for i in range(bound + 500):
            ad = ClassAd({"imagesize": i, "name": f"job{i}"})
            ad.set_expr("requirements", "TARGET.memory >= MY.imagesize")
            extract_constraints(ad)
            assert ad_mod._atom.cache_info().currsize <= bound
        assert ad_mod._atom.cache_info().currsize == bound
        assert match_index_mod._constraint.cache_info().currsize == bound


# -- frozen ads ----------------------------------------------------------

class TestFrozenAd:
    def _frozen(self):
        ad = ClassAd({"owner": "thain", "imagesize": 28})
        ad.set_expr("requirements", "TARGET.memory >= MY.imagesize")
        return ad.freeze()

    def test_every_mutator_raises(self):
        ad = self._frozen()
        before = ad.render()
        with pytest.raises(FrozenAdError):
            ad["owner"] = "mallory"
        with pytest.raises(FrozenAdError):
            ad.set_expr("requirements", "TRUE")
        with pytest.raises(FrozenAdError):
            ad.update(ClassAd({"owner": "mallory"}))
        assert ad.render() == before

    def test_frozen_ad_still_evaluates_and_matches(self):
        ad = self._frozen()
        assert ad.frozen
        assert ad.value("owner") == "thain"
        assert symmetric_match(ad, machine_ad("exec", memory=64))
        assert not symmetric_match(ad, machine_ad("tiny", memory=16))

    def test_copy_is_mutable_and_independent(self):
        ad = self._frozen()
        clone = ad.copy()
        assert not clone.frozen
        clone["owner"] = "livny"
        clone.set_expr("requirements", "FALSE")
        assert clone.value("owner") == "livny"
        assert ad.value("owner") == "thain"
        assert symmetric_match(ad, machine_ad("exec", memory=64))


# -- (b) the schedd's job-ad cache ---------------------------------------

SITES = ("exec0", "exec1", "exec2")
REQUIREMENTS = ("TRUE", "TARGET.memory >= 64", 'TARGET.arch == "intel"')


def reference_job_ad(schedd: Schedd, job: Job) -> ClassAd:
    """The ad built from scratch, the way the schedd built it on every
    send before it kept one: the specification the cache must equal."""
    ad = job.to_classad()
    ad["scheddhost"] = schedd.submit_host
    ad["scheddport"] = schedd.PORT
    requirements = f"({job.requirements})"
    if job.universe is Universe.JAVA:
        requirements += " && (TARGET.hasjava == TRUE)"
    for site in sorted(schedd.avoided_sites):
        requirements += f' && (TARGET.machine =!= "{site}")'
    ad.set_expr("requirements", requirements)
    return ad


def make_schedd(n_jobs: int = 4) -> tuple[Simulator, Schedd, list[Job]]:
    sim = Simulator()
    net = Network(sim)
    config = CondorConfig(
        schedd_avoidance=True, avoidance_threshold=2, avoidance_base=40.0,
        avoidance_cap=160.0, max_retries=3, flock_after=15.0,
        advertise_interval=10.0,
    )
    # No matchmaker listens anywhere: every advertise fails at connect,
    # which still walks the whole ad-building path.
    schedd = Schedd(sim, net, "submit", home_fs=None, matchmaker_host="central", config=config)
    jobs = []
    for i in range(n_jobs):
        job = Job(
            job_id=f"{i}.0",
            owner=("thain", "livny")[i % 2],
            universe=(Universe.JAVA, Universe.VANILLA)[i % 2],
            image=ProgramImage(f"job{i}.class"),
            requirements=REQUIREMENTS[i % len(REQUIREMENTS)],
        )
        schedd.submit(job)
        jobs.append(job)
    return sim, schedd, jobs


def outcome_for(kind: str) -> ShadowOutcome:
    if kind == "result":
        return ShadowOutcome.program_result(ResultFile.completed(0))
    if kind == "job-scope":
        return ShadowOutcome.environment(ErrorScope.JOB, "ClassFormatError", "corrupt image")
    return ShadowOutcome.environment(ErrorScope.REMOTE_RESOURCE, "JvmMissing", "no java")


def check_cache(schedd: Schedd, jobs: list[Job]) -> None:
    live = [job for job in jobs if not job.is_terminal]
    assert set(schedd._ad_cache) <= {job.job_id for job in live}
    avoided = schedd._avoided_now()
    for job in live:
        ad = schedd._job_ad(job, avoided)
        assert ad.render() == reference_job_ad(schedd, job).render()
        assert ad is schedd._job_ad(job, avoided)  # nothing changed: same object
        with pytest.raises(FrozenAdError):
            ad["attempts"] = 99
    batch = schedd._ad_batch(schedd.idle_jobs())
    assert [name for name, _ in batch] == [f"submit#{j.job_id}" for j in schedd.idle_jobs()]
    assert all(ad is schedd._ad_cache[name.split("#")[1]][1] for name, ad in batch)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("attempt"), st.integers(0, 3), st.sampled_from(SITES),
                  st.sampled_from(("result", "site-failed", "site-failed", "job-scope"))),
        st.tuples(st.just("advance"), st.sampled_from((1.0, 10.0, 45.0, 200.0))),
        st.tuples(st.just("strike"), st.sampled_from(SITES)),
        st.tuples(st.just("recover"), st.sampled_from(SITES)),
        st.tuples(st.just("requirements"), st.integers(0, 3), st.sampled_from(REQUIREMENTS)),
        st.tuples(st.just("link")),
    ),
    max_size=25,
)


class TestScheddAdCache:
    @given(operations)
    @settings(max_examples=120, deadline=None)
    def test_cached_ad_always_equals_a_fresh_build(self, ops):
        sim, schedd, jobs = make_schedd()
        check_cache(schedd, jobs)
        for op in ops:
            if op[0] == "attempt":
                job = jobs[op[1]]
                if job.state is not JobState.IDLE:
                    continue
                job.set_state(JobState.RUNNING)
                attempt = ExecutionAttempt(site=op[2], started=sim.now)
                job.attempts.append(attempt)
                schedd._dispose(job, attempt, outcome_for(op[3]))
            elif op[0] == "advance":
                sim.run(until=sim.now + op[1])
            elif op[0] == "strike":
                schedd._note_site_failure(op[1])
            elif op[0] == "recover":
                schedd.avoidance.note_success(op[1], sim.now)
            elif op[0] == "requirements":
                jobs[op[1]].requirements = op[2]
            elif len(schedd.flock_links) < 3:
                schedd.add_flock_target(f"central-{len(schedd.flock_links)}")
            check_cache(schedd, jobs)

    def test_window_expiry_alone_rebuilds_the_ad(self):
        sim, schedd, jobs = make_schedd(n_jobs=1)
        clean = schedd._job_ad(jobs[0], schedd._avoided_now())
        schedd._note_site_failure("exec0")
        schedd._note_site_failure("exec0")  # threshold: a 40 s window opens
        shunning = schedd._job_ad(jobs[0], schedd._avoided_now())
        assert shunning is not clean
        assert '"exec0"' in shunning.render() and '"exec0"' not in clean.render()
        sim.run(until=sim.now + 41.0)  # nothing else changed, only the clock
        after = schedd._job_ad(jobs[0], schedd._avoided_now())
        assert after is not shunning
        assert after.render() == clean.render()

    def test_terminal_jobs_leave_the_cache(self):
        sim, schedd, jobs = make_schedd(n_jobs=3)
        schedd._ad_batch(schedd.idle_jobs())
        assert set(schedd._ad_cache) == {"0.0", "1.0", "2.0"}
        schedd._complete(jobs[0], outcome_for("result"))
        schedd._hold(jobs[1], "unexecutable")
        assert set(schedd._ad_cache) == {"2.0"}

    def test_claim_request_carries_the_advertised_ad(self):
        sim, schedd, jobs = make_schedd(n_jobs=1)
        ((_, advertised),) = schedd._ad_batch(schedd.idle_jobs())
        assert schedd._job_ad(jobs[0], schedd._avoided_now()) is advertised


# -- (c) the matchmaker's refresh fast path ------------------------------

def schedd_job_ad(job_id: str, memory: int) -> ClassAd:
    ad = ClassAd({
        "jobid": job_id, "owner": "thain", "imagesize": memory,
        "scheddhost": "submit", "scheddport": 9615,
    })
    ad.set_expr("requirements", "TARGET.memory >= MY.imagesize")
    ad.set_expr("rank", "TARGET.memory")
    return ad


class TestRefreshFastPath:
    #: (time, job) refreshes: twice at one instant, later, and a job
    #: that is never refreshed (it must expire on schedule).
    SCHEDULE = ((0.0, "a"), (0.0, "b"), (0.0, "a"), (0.0, "c"),
                (4.0, "b"), (9.0, "a"), (9.0, "a"), (9.0, "b"))

    def _drive(self, same_object: bool):
        sim, mm = make_matchmaker(ad_lifetime=10.0)
        matches: list[tuple[str, str]] = []

        def sink():
            listener = mm.net.listen("submit", 9615)
            while True:
                conn = yield from listener.accept()
                try:
                    notify = yield from conn.recv(timeout=5.0)
                except NetworkError:
                    continue
                matches.append((notify.job_id, notify.startd_name))

        sim.spawn(sink(), name="sink").defuse()
        def advertise_machines():
            for i, memory in enumerate((32, 64, 128)):
                mm.receive_ad("machine", f"exec{i}", machine_ad(f"exec{i}", memory=memory))

        advertise_machines()
        kept = {name: schedd_job_ad(name, 16 * (i + 1)).freeze()
                for i, name in enumerate("abc")}
        for at, name in self.SCHEDULE:
            sim.run(until=at)
            ad = kept[name] if same_object else kept[name].copy().freeze()
            mm.receive_ad("job", name, ad)
        snapshot = [
            (name, s.received, s.reply_host, s.reply_port, s.unclaimed, s.ad.render())
            for name, s in mm.job_ads.items()
        ]
        heap_entries = len(mm._expiry_heap)
        sim.run(until=12.0)  # "c" (last seen at 0) is past the lifetime
        mm._expire()
        advertise_machines()
        survivors = list(mm.job_ads)
        sim.spawn(mm.run_cycle(), name="cycle").defuse()
        sim.run(until=60.0)
        return snapshot, survivors, matches, heap_entries

    def test_same_object_and_fresh_copy_are_indistinguishable(self):
        fast = self._drive(same_object=True)
        slow = self._drive(same_object=False)
        assert fast[:3] == slow[:3]
        snapshot, survivors, matches, _ = fast
        assert [row[:2] for row in snapshot] == [("a", 9.0), ("b", 9.0), ("c", 0.0)]
        assert survivors == ["a", "b"]
        assert len(matches) == 2

    def test_refresh_at_the_same_instant_adds_no_heap_entry(self):
        *_, fast_entries = self._drive(same_object=True)
        *_, slow_entries = self._drive(same_object=False)
        # Eight refreshes, two of them exact repeats (a@0, a@9).
        assert slow_entries - fast_entries == 2

    def test_an_unfrozen_ad_takes_the_full_path(self):
        sim, mm = make_matchmaker()
        ad = schedd_job_ad("a", 16)
        mm.receive_ad("job", "a", ad)
        ad["scheddhost"] = "elsewhere"  # mutable: the sender may still edit
        mm.receive_ad("job", "a", ad)
        assert mm.job_ads["a"].reply_host == "elsewhere"


# -- (d) machine ads are values too --------------------------------------

def reference_machine_ad(startd: Startd, slot: int = 0) -> ClassAd:
    """The ad built from scratch, the way the startd built it on every
    call before it kept one: the specification the kept ad must equal."""
    machine = startd.machine
    ad = ClassAd({
        "name": startd.slot_name(slot),
        "machine": machine.name,
        "slotid": slot + 1,
        "startdport": startd.PORT,
        "arch": "intel",
        "opsys": "linux",
        "memory": machine.memory_total // machine.slots // 2**20,
        "disk": machine.scratch.free // 2**20,
        "cpuspeed": machine.cpu_speed,
        "state": "claimed" if startd.slot_claimed[slot] else "unclaimed",
        "currentrank": startd.slot_rank[slot],
        "hasjava": startd.java_advertised,
        "javaversion": machine.java.version,
    })
    ad.update(ClassAd(machine.policy.advertised_attrs))
    ad.set_expr("requirements", machine.policy.start_expr)
    ad.set_expr("rank", machine.policy.rank_expr)
    return ad


def make_startd(**condor) -> tuple[Pool, Startd]:
    pool = Pool(PoolConfig(n_machines=0, condor=CondorConfig(**condor)))
    pool.add_machine("exec", policy=OwnerPolicy(advertised_attrs={"department": "cs"}))
    return pool, pool.startds["exec"]


def _fill_scratch(startd):
    startd.machine.scratch.used += 64 * 2**20


def _double_memory(startd):
    startd.machine.memory_total *= 2


def _faster_cpu(startd):
    startd.machine.cpu_speed = 2.5


def _claim(startd):
    startd.slot_claimed[0] = "submit"


def _rank(startd):
    startd.slot_rank[0] = 7.0


def _java_withdrawn(startd):
    startd.java_advertised = False


def _java_upgraded(startd):
    startd.machine.java.version = "1.4.2"


def _policy_attr_added(startd):
    startd.machine.policy.advertised_attrs["building"] = "cs-west"


def _policy_attr_edited(startd):
    startd.machine.policy.advertised_attrs["department"] = "physics"


def _start_expr(startd):
    startd.machine.policy.start_expr = 'TARGET.owner == "thain"'


def _rank_expr(startd):
    startd.machine.policy.rank_expr = "TARGET.imagesize"


class TestMachineAdIsAValue:
    def test_unchanged_slot_returns_the_identical_frozen_ad(self):
        _, startd = make_startd()
        ad = startd.build_ad()
        assert ad.frozen and startd.build_ad() is ad
        assert ad.render() == reference_machine_ad(startd).render()
        with pytest.raises(FrozenAdError):
            startd.build_ad()["x"] = 1

    @pytest.mark.parametrize("change", [
        _fill_scratch, _double_memory, _faster_cpu, _claim, _rank, _java_withdrawn,
        _java_upgraded, _policy_attr_added, _policy_attr_edited, _start_expr, _rank_expr,
    ], ids=lambda fn: fn.__name__.strip("_"))
    def test_each_changed_input_yields_a_new_ad(self, change):
        _, startd = make_startd()
        before = startd.build_ad()
        said = before.render()
        change(startd)
        after = startd.build_ad()
        assert after is not before and after.frozen
        assert after.render() == reference_machine_ad(startd).render() != said
        assert before.render() == said  # a value: the old ad still says what it said
        assert startd.build_ad() is after

    def test_each_slot_of_an_smp_keeps_its_own_ad(self):
        pool = Pool(PoolConfig(n_machines=0))
        pool.add_machine("smp", slots=2)
        startd = pool.startds["smp"]
        first, second = startd.build_ad(0), startd.build_ad(1)
        assert first is not second
        assert [ad.value("name") for ad in (first, second)] == ["slot1@smp", "slot2@smp"]
        startd.slot_claimed[1] = "submit"
        assert startd.build_ad(0) is first and startd.build_ad(1) is not second
        for slot in (0, 1):
            assert startd.build_ad(slot).render() == reference_machine_ad(startd, slot).render()

    def test_a_fault_that_withdraws_java_changes_the_advertised_ad(self):
        from repro.faults import FaultInjector, MisconfiguredJvm

        pool, startd = make_startd(startd_self_test=True, self_test_interval=50.0)
        pool.sim.run(until=5.0)
        healthy = pool.matchmaker.machine_ads["exec"].ad
        assert healthy is startd.build_ad() and healthy.value("hasjava") is True
        FaultInjector(pool).schedule(MisconfiguredJvm("exec"), at=10.0)
        pool.sim.run(until=70.0)  # the re-probe at t=50 finds the broken classpath
        broken = pool.matchmaker.machine_ads["exec"].ad
        assert broken is not healthy and broken is startd.build_ad()
        assert broken.value("hasjava") is False and healthy.value("hasjava") is True

    def test_an_idle_startd_re_advertises_one_object(self):
        pool, startd = make_startd(advertise_interval=30.0)
        received = []
        real = pool.matchmaker.receive_ad

        def spy(kind, name, ad):
            received.append(ad)
            real(kind, name, ad)

        pool.matchmaker.receive_ad = spy
        pool.sim.run(until=200.0)
        assert len(received) >= 5
        assert all(ad is received[0] for ad in received)


class TestIndexRecognisesTheAdItHolds:
    def test_the_held_frozen_ad_moves_stamp_and_nothing_else(self, monkeypatch):
        index = MachineIndex()
        ad = machine_ad("a", memory=64).freeze()
        index.add("a", ad)
        reposts = []
        monkeypatch.setattr(index, "_repost", lambda *args: reposts.append(args))
        stamp = index.stamp
        index.add("a", ad)
        assert index.stamp == stamp + 1 and reposts == []
        index.add("a", ad.copy().freeze())  # equal, but another object: the full path
        index.add("b", ad)  # held, but under another name
        assert [args[0] for args in reposts] == ["a", "b"]

    def test_an_unfrozen_ad_is_always_re_read(self):
        index = MachineIndex()
        ad = machine_ad("a", memory=64)
        index.add("a", ad)
        ad["memory"] = 32  # mutable: the sender may still edit
        index.add("a", ad)
        test, _, _ = index.membership(schedd_job_ad("j", 64))
        assert not test("a")

    def test_removal_forgets_the_ad(self):
        index = MachineIndex()
        ad = machine_ad("a", memory=64).freeze()
        index.add("a", ad)
        index.remove("a")
        index.add("a", ad)
        test, _, _ = index.membership(schedd_job_ad("j", 64))
        assert len(index) == 1 and test("a")

    #: (time, machine) re-advertisements around two negotiation cycles.
    SCHEDULE = ((0.0, "exec0"), (0.0, "exec1"), (0.0, "exec0"), (3.0, "exec1"),
                (6.0, "exec0"), (6.0, "exec2"), (14.0, "exec1"), (14.0, "exec1"))

    def _drive(self, same_object: bool):
        sim, mm = make_matchmaker(ad_lifetime=10.0)
        kept = {f"exec{i}": machine_ad(f"exec{i}", memory=32 * (i + 1)).freeze()
                for i in range(3)}
        for i, name in enumerate("ab"):
            mm.receive_ad("job", name, schedd_job_ad(name, 16 * (i + 1)).freeze())
        states = []
        for at, name in self.SCHEDULE:
            sim.run(until=at)
            if at == 6.0 and name == "exec0":
                sim.spawn(mm.run_cycle(), name="cycle").defuse()
                sim.run(until=at)
            ad = kept[name] if same_object else kept[name].copy().freeze()
            mm.receive_ad("machine", name, ad)
            states.append((
                sorted(mm.machine_ads), sorted(mm._fresh), dict(mm._ad_seq), mm._index.stamp,
                {n: sorted(p, key=repr) for n, p in mm._index._postings.items()},
                [(n, s.received, s.unclaimed) for n, s in mm.machine_ads.items()],
                len(mm._expiry_heap),
            ))
        sim.run(until=20.0)
        mm._expire()
        return states, sorted(mm.machine_ads), sorted(mm._fresh), mm.matches_made

    def test_same_object_and_fresh_copy_are_indistinguishable(self):
        fast = self._drive(same_object=True)
        slow = self._drive(same_object=False)
        assert fast == slow
        assert fast[1] == ["exec1"]  # exec0/exec2 (last seen at 6) expired on schedule
