"""Counted negotiation work: the regression gate that does not need a clock.

The gridbench workload ``negotiate_scale`` at its smoke shape (60
machines x 100 jobs x 3 cycles, seed 7) is run with call counters
wrapped around the functions whose call counts the autocluster design
bounds.  The simulation is deterministic, so every count repeats
exactly; a change that starts re-deriving per job what is a function of
its match summary moves one of them.

The same pool then checks containment: each kind of adversarial ad the
workload mixes in costs its own match and nobody else's.
"""

import collections
import random

import pytest

import repro.condor.classads.compile as compile_module
import repro.condor.daemons.matchmaker as matchmaker_module
from benchmarks.gridbench.spans import SpanRecorder
from benchmarks.gridbench.workloads import negotiate_scale
from repro.condor.classads import ClassAd, parser
from repro.condor.classads.expr import Expr, Literal
from repro.condor.daemons.match_index import MachineIndex, analysis_of
from repro.condor.daemons.matchmaker import Matchmaker

SEED = 7
SHAPE = negotiate_scale.SMOKE

#: ``symmetric_match`` calls of the smoke round at the parent commit (PR
#: 14, before autoclusters).  Equal, not smaller: the clusters only stop
#: re-deriving verdicts, every walk still verifies the same candidates.
PARENT_SYMMETRIC_MATCH_CALLS = 161

#: ``ClassAd.eval`` calls of the smoke round: 1 898 at commit 397f959,
#: 1 281 since.  The matchmaker reads a job's reply address and owner and
#: a machine's state once per stored ad, where it read every field of
#: both kinds at receive and the owner again per job and cycle.
SMOKE_CLASSAD_EVALS = 1281


def _counting(monkeypatch, owner, name: str, counts: dict) -> None:
    original = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _nodes(expr: Expr, seen: dict) -> None:
    if id(expr) in seen:
        return
    seen[id(expr)] = expr
    for child in vars(expr).values():
        for node in child if isinstance(child, tuple) else (child,):
            if isinstance(node, Expr):
                _nodes(node, seen)


def _run(state: dict) -> dict:
    negotiate_scale.run(state, SpanRecorder("negotiate_scale", 0, False))
    return state


def _setup() -> dict:
    rec = SpanRecorder("negotiate_scale", 0, False)
    return negotiate_scale.setup(SEED, True, rec, "")  # the workload keeps no files


@pytest.fixture
def counted_round(monkeypatch):
    # Fresh nodes: a closure another test left on an interned tree would
    # make the lowering count depend on test order.
    parser._intern.cache_clear()
    counts: dict = {}
    _counting(monkeypatch, compile_module, "lower", counts)
    _counting(monkeypatch, matchmaker_module, "symmetric_match", counts)
    _counting(monkeypatch, Matchmaker, "_match_key", counts)
    _counting(monkeypatch, MachineIndex, "membership", counts)
    _counting(monkeypatch, MachineIndex, "_bucket", counts)
    evals = counts["ClassAd.eval"] = collections.Counter()  # attribute name -> calls
    original_eval = ClassAd.eval

    def counted_eval(self, name, target=None):
        evals[name] += 1
        return original_eval(self, name, target)

    monkeypatch.setattr(ClassAd, "eval", counted_eval)
    return _run(_setup()), counts


def test_each_expression_node_is_lowered_at_most_once(counted_round):
    state, counts = counted_round
    # The trees that are ever evaluated: every non-literal attribute.
    seen: dict = {}
    evaluated: dict = {}
    for _, ad in state["machines"] + state["jobs"]:
        for expr in ad._attrs.values():
            _nodes(expr, seen)
            if not isinstance(expr, Literal):
                _nodes(expr, evaluated)
    assert 0 < counts["lower"] == len(evaluated) <= len(seen)
    # ...and an ad's own literals were never lowered at all.
    assert len(evaluated) < 40 < len(seen)


def test_match_summaries_are_derived_per_job_and_generation(counted_round):
    state, counts = counted_round
    mm = state["matchmaker"]
    generations = mm._index.refs_generation
    assert 1 <= generations <= 3  # the key set moved while the pool first filled
    assert counts["_match_key"] <= SHAPE["jobs"] * generations
    # In this round every job met the index after it had settled.
    assert counts["_match_key"] == SHAPE["jobs"]


def test_membership_is_selected_per_cluster_and_window(counted_round):
    state, counts = counted_round
    clusters = {id(analysis_of(ad).cluster) for _, ad in state["jobs"]}
    assert None not in {analysis_of(ad).cluster for _, ad in state["jobs"]}
    assert 1 < len(clusters) <= 24
    assert counts["membership"] <= len(clusters) * SHAPE["cycles"]


def test_an_unchanged_readvertisement_moves_no_bucket(counted_round):
    state, counts = counted_round
    mm = state["matchmaker"]
    # Three advertise windows, yet each posting was made exactly once.
    assert counts["_bucket"] == sum(len(p) for p in mm._index._postings.values())
    before = counts["_bucket"]
    for name, ad in state["machines"]:
        mm._index.add(name, ad)  # the same object again
        mm._index.add(name, ad.copy())  # a fresh, equal ad
    assert counts["_bucket"] == before


def test_the_same_candidates_are_verified_as_at_the_parent(counted_round):
    state, counts = counted_round
    assert counts["symmetric_match"] == PARENT_SYMMETRIC_MATCH_CALLS
    assert state["matchmaker"].matches_made == 98


def test_classad_evaluations_are_counted(counted_round):
    _, counts = counted_round
    assert sum(counts["ClassAd.eval"].values()) == SMOKE_CLASSAD_EVALS


def test_owner_is_read_once_per_stored_job_ad(counted_round):
    _, counts = counted_round
    # Every job is advertised once and negotiated in up to three cycles.
    assert counts["ClassAd.eval"]["owner"] == SHAPE["jobs"]


# -- containment: an adversarial ad costs only its own match --------------------

def _clean_pool() -> dict:
    """The smoke pool with every adversarial share neutralised."""
    state = _setup()
    for name, ad in state["machines"]:
        ad["state"] = "unclaimed"
        ad["hasjava"] = True
        ad["startdport"] = 9700
        ad.set_expr("requirements", negotiate_scale.MACHINE_REQUIREMENTS)
    for name, ad in state["jobs"]:
        ad["scheddhost"] = negotiate_scale.SINK_HOST
        ad["scheddport"] = negotiate_scale.SINK_PORT
        ad.set_expr("requirements", negotiate_scale.JOB_REQUIREMENTS)
    return state


def _matched(state: dict) -> set[str]:
    _run(state)
    return {name for name, _ in state["jobs"]} - set(state["matchmaker"].job_ads)


def _spoil_machine(ad, kind: str) -> None:
    if kind == "mangled startdport":
        ad["startdport"] = "mangled-in-transit"
    elif kind == "infinite startdport":
        ad.set_expr("startdport", "1e400")  # int(inf) is an OverflowError
    else:
        ad.set_expr("requirements", negotiate_scale.BLACK_HOLE_REQUIREMENTS)


def _spoil_job(ad, kind: str) -> None:
    if kind == "not-a-port":
        ad["scheddport"] = "not-a-port"
    elif kind == "infinite scheddport":
        ad.set_expr("scheddport", "1e400")
    elif kind == "ghost submitter":
        ad["scheddhost"] = "ghost"
    else:
        ad.set_expr("requirements", negotiate_scale.OPAQUE_REQUIREMENTS)


def test_the_clean_pool_matches_everyone():
    assert len(_matched(_clean_pool())) == SHAPE["jobs"]


@pytest.mark.parametrize(
    "kind", ["mangled startdport", "infinite startdport", "black-hole requirements"]
)
def test_an_adversarial_machine_costs_no_job_its_match(kind):
    state = _clean_pool()
    victim = random.Random(SEED).randrange(SHAPE["machines"])
    _spoil_machine(state["machines"][victim][1], kind)
    assert len(_matched(state)) == SHAPE["jobs"]
    assert state["notifications"] == state["matchmaker"].matches_made


@pytest.mark.parametrize(
    "kind, lost",
    [
        ("not-a-port", 1),
        ("infinite scheddport", 1),
        ("ghost submitter", 1),
        ("index-opaque requirements", 0),
    ],
)
def test_an_adversarial_job_costs_only_its_own_match(kind, lost):
    state = _clean_pool()
    # Mid-queue: the adversary shares closures, a cluster's memo and the
    # walk cursors with neighbours negotiated before and after it.
    victim = SHAPE["jobs"] // 2
    name, ad = state["jobs"][victim]
    _spoil_job(ad, kind)
    everyone = {job for job, _ in state["jobs"]}
    assert everyone - _matched(state) == ({name} if lost else set())
