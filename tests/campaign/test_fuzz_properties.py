"""Hypothesis properties pinning the fuzzer's two core contracts.

1. **Mutator validity**: whatever the PRNG does, every injection set a
   :class:`~repro.campaign.fuzz.MutationEngine` proposes stays inside
   the valid fault space -- catalogue kinds only, distinct kinds,
   non-negative windows with ``until > at``, open windows on
   non-disarmable kinds, targets bound per kind, order within bounds,
   federation-gated kinds only on a federation.
2. **Coverage-merge algebra**: :meth:`CoverageMap.merge` is a
   semilattice join (associative, commutative, idempotent), which is
   what entitles the campaign to merge per-cell coverage in any grouping
   and still match a serial run byte for byte.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.corpus import Corpus, CorpusEntry
from repro.campaign.coverage import CoverageMap, FirstSeen
from repro.campaign.fuzz import FuzzConfig, MutationEngine
from repro.campaign.spec import CampaignConfig, CellSpec, MutationSpace, validate_injections

SOLITARY = MutationSpace.from_config(
    CampaignConfig(mode="classic", seed=7), FuzzConfig().order_max
)
FEDERATED = MutationSpace.from_config(
    CampaignConfig(mode="classic", seed=7, federation=True), FuzzConfig().order_max
)


class TestMutatorValidity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), space_fed=st.booleans())
    def test_random_walks_stay_inside_the_valid_space(self, seed, space_fed):
        """Ten chained mutations from a fresh cell never leave the space."""
        space = FEDERATED if space_fed else SOLITARY
        engine = MutationEngine(space)
        rng = random.Random(seed)
        parent = engine.fresh(rng)
        assert validate_injections(parent, space) == []
        partner = engine.fresh(rng)
        for _ in range(10):
            proposal = engine.propose(rng, parent, partner)
            if proposal is None:
                continue
            mutator, child = proposal
            problems = validate_injections(child, space)
            assert problems == [], f"{mutator} produced {problems}"
            # explicit re-statements of the load-bearing invariants
            assert len(child) <= space.order_max
            kinds = [spec.kind for spec in child]
            assert len(set(kinds)) == len(kinds)
            for spec in child:
                assert spec.at >= 0
                assert spec.until is None or spec.until > spec.at
            parent, partner = child, parent

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solitary_space_never_proposes_federation_kinds(self, seed):
        engine = MutationEngine(SOLITARY)
        rng = random.Random(seed)
        parent, partner = engine.fresh(rng), engine.fresh(rng)
        for _ in range(10):
            proposal = engine.propose(rng, parent, partner)
            if proposal is None:
                continue
            _, child = proposal
            assert all(spec.kind != "FlockLinkDown" for spec in child)
            parent, partner = child, parent

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_proposals_are_canonically_ordered(self, seed):
        """Equal injection sets must serialize equally for dedup to work."""
        engine = MutationEngine(SOLITARY)
        rng = random.Random(seed)
        proposal = engine.propose(rng, engine.fresh(rng), engine.fresh(rng))
        if proposal is None:
            return
        _, child = proposal
        key = [
            (s.kind, s.site or "", -1 if s.job_index is None else s.job_index,
             s.at, float("inf") if s.until is None else s.until)
            for s in child
        ]
        assert key == sorted(key)


# -- coverage algebra ---------------------------------------------------
features = st.sampled_from(["viol:P1:a", "viol:P3:b", "journey:job:x>y",
                            "shape:queued>claim", "outcome:completed"])
seens = st.builds(
    FirstSeen,
    batch=st.integers(0, 3),
    index=st.integers(0, 20),
    cell=st.sampled_from(["cell-a", "cell-b", "cell-c"]),
)
coverage_maps = st.dictionaries(features, seens, max_size=5).map(CoverageMap)


class TestCoverageAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(a=coverage_maps)
    def test_serialization_round_trips(self, a):
        assert CoverageMap.from_dict(a.as_dict()) == a


class TestCorpusEnergies:
    @settings(max_examples=60, deadline=None)
    @given(
        hits=st.dictionaries(features, st.integers(1, 50), max_size=5),
        signature=st.lists(features, max_size=4, unique=True),
    )
    def test_energies_are_positive_and_finite(self, hits, signature):
        cell = CellSpec("classic/s0/x", "classic", 0, ())
        corpus = Corpus([CorpusEntry(
            cell=cell, signature=tuple(signature),
            novel=tuple(signature[:1]), batch=0, violations=0,
        )])
        [energy] = corpus.energies(hits)
        assert energy > 0
        assert energy < float("inf")
