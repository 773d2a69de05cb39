"""Requirement-bucket index over machine ads for pool-scale matchmaking.

The naive matchmaker evaluates ``symmetric_match`` for every (job,
machine) pair -- O(jobs x machines) ClassAd evaluations per negotiation
cycle.  This module gives the matchmaker two sub-quadratic tools, both
of which are *pure pre-filters*: they may only ever narrow the candidate
set to a superset of the truly matching machines, and the matchmaker
re-verifies every surviving candidate with the exact per-candidate
checks of the reference scan.  That is what makes the fast path provably
winner-identical to the unindexed scan (pinned by the hypothesis
cross-check in ``tests/condor/test_match_index.py``).

**Buckets.**  :class:`MachineIndex` posts every machine ad under its
literal attribute values (``arch -> "intel" -> {names}``), keeping a
per-attribute *opaque* set for machines whose value is a non-literal
expression (those can evaluate to anything, so they are candidates for
every probe on that attribute).  :func:`extract_constraints` statically
pulls conjunctive ``TARGET.attr == literal`` / ``TARGET.attr >= bound``
shapes out of a job's ``Requirements``; a probe picks the most selective
constraint and returns a cheap membership test.  Jobs whose requirements
yield no such shape fall back to the full scan bucket (all machines).

Why exclusion is safe: a top-level ``&&`` conjunct that evaluates to
FALSE, UNDEFINED, or ERROR makes the whole ``Requirements`` non-TRUE,
and non-TRUE rejects (``match`` is conservative).  A machine that lacks
the constrained attribute entirely, or whose literal value fails the
comparison, can therefore never match -- excluding it from the candidate
set cannot change any winner.

**Rank orders.**  For a job whose ``Rank`` provably depends only on the
machine (every attribute reference is ``TARGET``-qualified and resolves
to a literal or absent machine attribute), the matchmaker can sort all
machines by the exact tie-break key once and walk that order, returning
the first candidate that survives the reference checks -- identical to
taking the minimum over all candidates, without evaluating rank per
(job, machine) pair.  :func:`rank_cacheable` decides reuse eligibility;
:func:`machine_rank_literal` validates the machine side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from repro.condor.classads.ad import ClassAd
from repro.condor.classads.expr import (
    COMPARISONS,
    AttrRef,
    BinOp,
    EvalContext,
    Expr,
    Literal,
    ValueType,
)
from repro.condor.classads.parser import INTERN_MAX

__all__ = [
    "Constraint",
    "JobAnalysis",
    "MachineIndex",
    "analysis_of",
    "extract_constraints",
    "machine_rank_literal",
    "rank_cacheable",
]

#: Comparison flips for constraints written with the TARGET ref on the
#: right-hand side (``5 <= TARGET.memory`` == ``TARGET.memory >= 5``).
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_NUMERIC = (ValueType.INTEGER, ValueType.REAL)

_NONE: frozenset = frozenset()


def _value_key(value) -> tuple | None:
    """Normalized bucket key for a ClassAd literal, or None if unindexable.

    The key encodes ``==`` semantics: strings compare case-insensitively,
    ints and reals compare numerically, and cross-type comparisons (bool
    vs number, string vs number) are ERROR -- distinct key kinds keep
    those apart.
    """
    if value.type is ValueType.STRING:
        return ("s", value.payload.lower())
    if value.type is ValueType.BOOLEAN:
        return ("b", value.payload)
    if value.type in _NUMERIC:
        return ("n", float(value.payload))
    return None  # UNDEFINED / ERROR literals can never satisfy == or <


@dataclass(frozen=True)
class Constraint:
    """One statically-extracted conjunct: ``attr op value``.

    *op* is ``==`` (probe the equality bucket) or one of ``< <= > >=``
    (numeric threshold over the per-value buckets).  *key* is the
    normalized bucket key for ``==``; *bound* the float threshold for
    comparisons.
    """

    attr: str
    op: str
    key: tuple | None = None
    bound: float = 0.0


#: Equal constraints are one object: jobs of one shape extract the same few.
_constraint = lru_cache(maxsize=INTERN_MAX)(Constraint)


def _conjuncts(expr: Expr) -> list[Expr]:
    """Flatten nested top-level ``&&`` into a conjunct list."""
    if isinstance(expr, BinOp) and expr.op == "&&":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _target_attr(expr: Expr, job_ad: ClassAd) -> str | None:
    """The machine attribute *expr* reads, if it is a plain TARGET ref.

    An unqualified reference counts only when the job ad itself lacks
    the name -- otherwise it resolves job-side and constrains nothing
    about the machine.
    """
    if not isinstance(expr, AttrRef):
        return None
    if expr.qualifier == "target":
        return expr.name
    if expr.qualifier == "" and expr.name not in job_ad:
        return expr.name
    return None


class JobAnalysis:
    """What matchmaking derives from one job ad, kept in the ad's
    ``_analysis`` slot so that any edit of the ad drops all of it.

    *constraints* depend on the ad alone; *cluster* (the matchmaker's
    autocluster record, None for an unsummarizable job) also on which job
    attributes machines reference, so it is valid for one *index* -- an
    ad may be advertised to several pools -- at one ``refs_generation``.
    """

    __slots__ = ("constraints", "index", "generation", "cluster")

    def __init__(self, constraints: list[Constraint]):
        self.constraints = constraints
        self.index = self.generation = self.cluster = None


def analysis_of(job_ad: ClassAd) -> JobAnalysis:
    """*job_ad*'s cached :class:`JobAnalysis` (built on first use)."""
    cached = job_ad._analysis
    if cached is None:
        cached = job_ad._analysis = JobAnalysis(_extract(job_ad))
    return cached


def extract_constraints(job_ad: ClassAd) -> list[Constraint]:
    """Statically extract indexable conjuncts from *job_ad*'s Requirements.

    Returns the (possibly empty) list of constraints; an empty list means
    the requirements are opaque to the index and the matchmaker must use
    the fallback scan bucket.  The result is cached on the ad and
    invalidated with it.
    """
    return analysis_of(job_ad).constraints


def _extract(job_ad: ClassAd) -> list[Constraint]:
    constraints: list[Constraint] = []
    req = job_ad.lookup("requirements")
    if req is not None:
        ctx = EvalContext(my=job_ad, target=None)
        for conjunct in _conjuncts(req):
            if not isinstance(conjunct, BinOp):
                continue
            op = conjunct.op
            if op not in ("==", "<", "<=", ">", ">="):
                continue
            attr, other = conjunct.left, conjunct.right
            name = _target_attr(attr, job_ad)
            if name is None:
                name = _target_attr(other, job_ad)
                if name is None:
                    continue
                other, op = conjunct.left, _FLIP.get(op, op)
            # The non-TARGET side must be evaluable from the job alone;
            # evaluation is total and side-effect free, so probing with
            # target=None is safe (TARGET refs come back UNDEFINED and
            # the conjunct is simply skipped).
            value = other.eval(ctx)
            if op == "==":
                key = _value_key(value)
                if key is not None:
                    constraints.append(_constraint(name, "==", key))
            elif value.type in _NUMERIC:
                constraints.append(_constraint(name, op, None, float(value.payload)))
    return constraints


def rank_cacheable(expr: Expr | None) -> bool:
    """True when a Rank expression's value cannot depend on the job side.

    Two jobs carrying an equal expression then assign the same rank to
    any machine whose referenced attributes are all literals (or
    absent), so one sorted machine order serves them all.  Conservative:
    any attribute reference that is not ``TARGET``-qualified
    disqualifies the rank (an unqualified name might resolve job-side; a
    ``MY`` ref certainly does).  A missing Rank ranks every machine 0.0
    and is trivially cacheable.
    """
    if expr is None or isinstance(expr, Literal):
        return True
    return _all_target_qualified(expr)


def _all_target_qualified(expr: Expr) -> bool:
    if isinstance(expr, AttrRef):
        return expr.qualifier == "target"
    if isinstance(expr, BinOp):
        return _all_target_qualified(expr.left) and _all_target_qualified(expr.right)
    if isinstance(expr, Literal):
        return True
    operand = getattr(expr, "operand", None)
    if operand is not None:  # UnaryOp
        return _all_target_qualified(operand)
    args = getattr(expr, "args", None)
    if args is not None:  # FuncCall
        return all(_all_target_qualified(a) for a in args)
    return False  # unknown node: be conservative


def machine_rank_literal(machine_ad: ClassAd, refs: set[str]) -> bool:
    """True when every attr in *refs* is a literal (or absent) on the machine.

    Only then is a TARGET-qualified rank evaluation of this machine
    independent of the job on the other side (a machine attr that is an
    expression could reference TARGET -- i.e. the job -- back).
    """
    for name in refs:
        expr = machine_ad.lookup(name)
        if expr is not None and not isinstance(expr, Literal):
            return False
    return True


class MachineIndex:
    """Incrementally-maintained value buckets over the machine-ad table.

    ``stamp`` increments on every :meth:`add` and :meth:`remove`, whether
    or not a bucket moved: while it stands still no bucket has changed,
    which is what lets the matchmaker keep one :meth:`membership` answer
    per autocluster.  ``refs_generation`` increments only when the *key
    set* of :attr:`requirement_refs` changes -- the one machine-side
    input of a job's match summary -- so a summary derived at one
    generation holds until the next.
    """

    def __init__(self) -> None:
        #: attr -> value-key -> set of machine names
        self._eq: dict[str, dict[tuple, set[str]]] = {}
        #: attr -> set of names whose value is a non-literal expression
        self._opaque: dict[str, set[str]] = {}
        #: name -> its postings: {(attr, key-or-None)}
        self._postings: dict[str, set[tuple[str, tuple | None]]] = {}
        #: Refcounted union of every attribute any machine's Requirements
        #: references -- the job-side attrs that can influence a match
        #: from the machine's direction (the matchmaker's match summary
        #: covers them).
        self._req_refs: dict[str, int] = {}
        self._req_by_name: dict[str, frozenset[str]] = {}
        #: name -> the ad last indexed under it
        self._ad_by_name: dict[str, ClassAd] = {}
        self.stamp = 0
        self.refs_generation = 0

    @property
    def requirement_refs(self):
        """Attributes referenced by at least one machine's Requirements."""
        return self._req_refs.keys()

    def __len__(self) -> int:
        return len(self._postings)

    # -- maintenance ----------------------------------------------------
    def add(self, name: str, ad: ClassAd) -> None:
        """Index (or re-index) machine *name*'s ad."""
        if ad.frozen and self._ad_by_name.get(name) is ad:
            # The startd re-sent the very ad that is indexed, and a
            # frozen ad still says what it said then: nothing to re-post.
            self.stamp += 1
            return
        self._ad_by_name[name] = ad
        postings = set()
        for attr, expr in ad._attrs.items():
            if isinstance(expr, Literal):
                key = _value_key(expr.value)
                if key is not None:  # UNDEFINED/ERROR: never satisfiable
                    postings.add((attr, key))
            else:
                postings.add((attr, None))
        req = ad.lookup("requirements")
        self._repost(name, postings, req.external_refs() if req is not None else _NONE)

    def remove(self, name: str) -> None:
        """Drop machine *name* from every bucket (no-op if absent)."""
        if name in self._postings:
            self._repost(name, _NONE, _NONE)
            del self._postings[name], self._req_by_name[name], self._ad_by_name[name]

    def _repost(self, name: str, postings, refs) -> None:
        """Move *name* to *postings* and *refs* by difference: only the
        buckets and reference counts that differ are touched, so an
        unchanged re-advertisement touches none."""
        old = self._postings.get(name, _NONE)
        if old != postings:
            for attr, key in old - postings:
                self._bucket(attr, key).discard(name)
            for attr, key in postings - old:
                self._bucket(attr, key).add(name)
        self._postings[name] = postings
        old_refs = self._req_by_name.get(name, _NONE)
        if old_refs != refs:
            counts = self._req_refs
            for ref in old_refs - refs:
                counts[ref] -= 1
                if not counts[ref]:
                    del counts[ref]
                    self.refs_generation += 1
            for ref in refs - old_refs:
                counts[ref] = counts.get(ref, 0) + 1
                if counts[ref] == 1:
                    self.refs_generation += 1
        self._req_by_name[name] = refs
        self.stamp += 1

    def _bucket(self, attr: str, key: tuple | None) -> set[str]:
        if key is None:
            return self._opaque.setdefault(attr, set())
        return self._eq.setdefault(attr, {}).setdefault(key, set())

    # -- probing --------------------------------------------------------
    def _constraint_size(self, c: Constraint) -> int:
        opaque = len(self._opaque.get(c.attr, ()))
        buckets = self._eq.get(c.attr)
        if buckets is None:
            return opaque
        if c.op == "==":
            return len(buckets.get(c.key, ())) + opaque
        admits, bound = COMPARISONS[c.op], c.bound
        return opaque + sum(
            len(names) for key, names in buckets.items()
            if key[0] == "n" and admits(key[1], bound)
        )

    def membership(self, job_ad: ClassAd):
        """Narrow *job_ad*'s candidates: a ``(test, estimate, names)`` triple.

        *test(name)* is True for every machine that could possibly match
        (a superset); *estimate* is the bucket population it admits;
        *names* chains the admitted bucket sets for direct enumeration
        (sparse buckets are cheaper to walk than the whole fresh set).
        All three stay valid until ``stamp`` moves.
        Returns ``(None, len(index), None)`` when the requirements are
        opaque and no narrowing is possible.
        """
        constraints = extract_constraints(job_ad)
        if not constraints:
            return None, len(self._postings), None
        sizes = [self._constraint_size(c) for c in constraints]
        estimate = min(sizes)
        best = constraints[sizes.index(estimate)]  # the first of the smallest
        opaque = self._opaque.get(best.attr, frozenset())
        buckets = self._eq.get(best.attr, {})
        if best.op == "==":
            members = buckets.get(best.key, frozenset())

            def test(name: str) -> bool:
                return name in members or name in opaque

            return test, estimate, _Chain(members, opaque)

        admits, bound = COMPARISONS[best.op], best.bound
        hits = [
            names
            for key, names in buckets.items()
            if key[0] == "n" and admits(key[1], bound)
        ]

        def test_cmp(name: str) -> bool:
            if name in opaque:
                return True
            for names in hits:
                if name in names:
                    return True
            return False

        return test_cmp, estimate, _Chain(opaque, *hits)


class _Chain:
    """Bucket sets as one iterable, as often as asked (a membership
    answer is kept, and may be enumerated again, while ``stamp`` stands)."""

    def __init__(self, *groups):
        self.groups = groups

    def __iter__(self):
        return chain.from_iterable(self.groups)
