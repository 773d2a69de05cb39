"""ClassAds and two-party matching.

    "This process collects information about all participants, and
    notifies schedds and startds of compatible partners." (§2.1)

A :class:`ClassAd` is a case-insensitive mapping from attribute names to
expressions.  Matching is symmetric: ads A and B match when A's
``Requirements`` evaluates to TRUE with ``MY = A, TARGET = B`` *and* B's
``Requirements`` evaluates to TRUE with ``MY = B, TARGET = A``.  ``Rank``
orders the compatible partners.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter_ns
from typing import Any, Iterator

from repro.condor.classads.compile import compile_expr
from repro.condor.classads.expr import (
    ClassAdValue,
    EvalContext,
    Expr,
    Literal,
    V_UNDEFINED,
    ValueType,
)
from repro.condor.classads.parser import INTERN_MAX, parse

__all__ = ["ClassAd", "FrozenAdError", "match", "rank", "symmetric_match"]

#: Wall-time hook set by ``repro.obs.profile.install_wall`` (one global
#: read per match when unprofiled -- the bus's inactive-emit contract).
WALL_PROFILE = None


#: Exact types whose assigned values share one :class:`Literal` each.
_ATOMS = (bool, int, str)


@lru_cache(maxsize=INTERN_MAX, typed=True)  # typed: ``True == 1`` and they hash alike
def _atom(value: Any) -> Literal:
    return Literal(ClassAdValue.of(value))


class FrozenAdError(TypeError):
    """An edit was attempted on a frozen :class:`ClassAd`."""


class ClassAd:
    """A classified advertisement: attribute names mapped to expressions.

    Values assigned via :meth:`__setitem__` may be Python scalars (wrapped
    as literals) or strings of ClassAd source prefixed appropriately via
    :meth:`set_expr`.  Attribute names are case-insensitive.

    An ad that is sent more than once is a shared value: its builder
    calls :meth:`freeze`, after which every mutator raises
    :class:`FrozenAdError`.  A recipient that wants to edit takes a
    :meth:`copy`, which is mutable again.
    """

    def __init__(self, attrs: dict[str, Any] | None = None):
        self._attrs: dict[str, Expr] = {}
        #: Slot for derived analyses (the matchmaker's requirement
        #: constraints and autocluster); cleared on *any* mutation because
        #: such analyses may depend on the full attribute set, not just
        #: one name.
        self._analysis: Any = None
        self._frozen = False
        if attrs:
            for key, value in attrs.items():
                self[key] = value

    # -- mapping interface --------------------------------------------------
    def __setitem__(self, name: str, value: Any) -> None:
        """Set attribute *name* to a literal Python value."""
        self._check_mutable()
        lowered = name.lower()
        if isinstance(value, Expr):
            self._attrs[lowered] = value
        elif type(value) in _ATOMS:
            self._attrs[lowered] = _atom(value)
        else:
            self._attrs[lowered] = Literal(ClassAdValue.of(value))
        self._analysis = None

    def set_expr(self, name: str, source: str) -> None:
        """Set attribute *name* to the parsed ClassAd expression *source*."""
        self._check_mutable()
        lowered = name.lower()
        self._attrs[lowered] = parse(source)
        self._analysis = None

    def freeze(self) -> "ClassAd":
        """Make this ad read-only (irreversibly) and return it."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` was called: what the ad says is final."""
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenAdError("this ClassAd is frozen; edit a copy() instead")

    def lookup(self, name: str) -> Expr | None:
        """The raw expression bound to *name*, or None."""
        return self._attrs.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    # -- evaluation -----------------------------------------------------------
    def eval(self, name: str, target: "ClassAd | None" = None) -> ClassAdValue:
        """Evaluate attribute *name* against optional *target*."""
        expr = self._attrs.get(name.lower())
        if expr is None:
            return V_UNDEFINED
        if type(expr) is Literal:
            return expr.value  # nothing to evaluate, so no context either
        # The closure lives on the node, not on the ad: a reassigned
        # attribute is a different node, so there is nothing to go stale.
        return compile_expr(expr)(EvalContext(my=self, target=target))

    def value(self, name: str, default: Any = None, target: "ClassAd | None" = None) -> Any:
        """Evaluate *name* and return the Python payload (or *default*)."""
        val = self.eval(name, target)
        if val.is_exceptional:
            return default
        return val.as_python()

    # -- conveniences ------------------------------------------------------
    def copy(self) -> "ClassAd":
        """A mutable ad with the same attributes (even if this one is frozen)."""
        ad = ClassAd()
        ad._attrs = dict(self._attrs)
        return ad

    def update(self, other: "ClassAd") -> None:
        self._check_mutable()
        self._attrs.update(other._attrs)
        self._analysis = None

    def __getstate__(self) -> dict:
        # A derived analysis can reach a whole matchmaker; a copy re-derives.
        return {**self.__dict__, "_analysis": None}

    def render(self) -> str:
        """ClassAd source form, one ``name = expr;`` per line."""
        lines = [f"{name} = {expr};" for name, expr in sorted(self._attrs.items())]
        return "[\n  " + "\n  ".join(lines) + "\n]" if lines else "[ ]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassAd {sorted(self._attrs)}>"


def match(ad: ClassAd, target: ClassAd) -> bool:
    """One-directional match: does *ad*'s Requirements accept *target*?

    A missing or non-TRUE (UNDEFINED, ERROR, FALSE) Requirements rejects
    -- conservative, like the real matchmaker.
    """
    wall = WALL_PROFILE
    if wall is None:
        return _match(ad, target)
    t0 = perf_counter_ns()
    try:
        return _match(ad, target)
    finally:
        wall.add("classads.match", perf_counter_ns() - t0)


def _match(ad: ClassAd, target: ClassAd) -> bool:
    val = ad.eval("requirements", target=target).as_bool()
    return val.type is ValueType.BOOLEAN and bool(val.payload)


def symmetric_match(a: ClassAd, b: ClassAd) -> bool:
    """True when both parties' Requirements accept each other (§2.1)."""
    return match(a, b) and match(b, a)


def rank(ad: ClassAd, target: ClassAd) -> float:
    """*ad*'s Rank of *target*; non-numeric or missing Rank counts as 0."""
    val = ad.eval("rank", target=target)
    if val.is_number:
        return float(val.payload)
    return 0.0
