"""The telemetry bus: typed topics, structured events, zero-cost when idle.

The paper's thesis is that errors must be visible to the right observer
at the right scope; this bus makes the *reproduction itself* observable
the same way.  Every interesting occurrence -- a job lifecycle step, a
daemon protocol exchange, an error hop through the management chain, a
fault arming, an I/O operation -- is published as a
:class:`TelemetryEvent` on a :class:`TelemetryBus` under a typed
:class:`Topic`.

Two properties are load-bearing:

- **Determinism** (DESIGN.md §6): events are stamped with *simulated*
  time and carry only deterministic attributes (names, scopes, counts --
  never wall clock, memory addresses, or host state), so a given seed
  always produces the identical event stream.
- **Zero cost when nobody listens**: emission sites guard with
  ``if bus is not None and bus.active:`` before building any attributes,
  and :meth:`TelemetryBus.emit` itself is a no-op while ``active`` is
  False.  An uninstrumented run and a bus-attached-but-unsubscribed run
  execute the identical simulation (same event count, same results).
  The same holds per topic: an event on a topic nobody reads is never
  constructed, so an observer that reads three topics subscribes to
  those three and the other four cost it one dictionary lookup each.

The module is deliberately dependency-free (stdlib only) so the lowest
layers -- the simulation kernel duck-types its ``telemetry`` attribute,
``core.propagation`` its ``bus`` -- can feed it without import cycles.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

__all__ = [
    "PerTriple",
    "TelemetryBus",
    "TelemetryEvent",
    "Topic",
    "ambient_bus",
    "install_ambient",
    "memoisable",
]


class Topic(str, enum.Enum):
    """The typed event streams the reproduction publishes."""

    #: job lifecycle: submit -> match -> claim -> execute -> result/hold
    JOB = "job"
    #: daemon protocol steps: ads, negotiation cycles, claims, shadows
    DAEMON = "daemon"
    #: error hops through the management chain (one event per hop)
    ERROR = "error"
    #: one event per error presented at an ErrorInterface (vet crossing)
    INTERFACE = "interface"
    #: fault injector arm / disarm
    FAULT = "fault"
    #: per-operation remote I/O (chirp proxy ops, shadow RPC ops)
    IO = "io"
    #: simulation-kernel process start / end
    PROCESS = "process"


#: Either spelling of a topic -> the member: a ``Topic`` is a ``str`` and
#: hashes as its value, so one table serves both.
_TOPIC_OF = {topic.value: topic for topic in Topic}


@dataclass(slots=True, unsafe_hash=True)
class TelemetryEvent:
    """One occurrence: sim-time stamp, topic, name, sorted attributes.

    Attributes are stored as a sorted tuple of ``(key, value)`` pairs so
    events are hashable and their serialisation order never depends on
    call-site kwarg order.  An event is a value -- equal by fields, never
    written after construction -- but not a *frozen* dataclass: the bus
    builds one per delivered emit, and a frozen ``__init__`` costs four
    ``object.__setattr__`` calls where this one is four slot stores.
    """

    time: float
    topic: Topic
    name: str
    attrs: tuple[tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        """Look up one attribute by name."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def __str__(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs)
        return f"t={self.time:.3f} [{self.topic.value}] {self.name}" + (
            f" {attrs}" if attrs else ""
        )


def memoisable(pairs: Iterable[tuple[str, Any]]) -> bool:
    """The one admission rule of every memo keyed on attribute values.

    ``1 == True == 1.0`` and ``0.0 == -0.0`` hash alike yet render
    ``1``/``true``/``1.0``/``-0.0`` and label ``1``/``True``; an enum or a
    mutable object may change its ``str()``; a list does not hash.  A memo
    keyed by value would serve one for another, so *pairs* -- an event's
    ``attrs``, a series' labels -- key a memo only when every value is
    exactly ``str`` or ``int`` by type.  Anything else takes the caller's
    underived path, which yields the same result.
    """
    for _, value in pairs:
        if type(value) is not str and type(value) is not int:
            return False
    return True


class PerTriple:
    """``derive(event)``, computed once per distinct :func:`memoisable`
    (topic, name, attrs) and for every other event afresh (*derive* never
    returns ``None``); *afresh*, when given, receives each
    ``((topic, name, attrs), derived)`` the memo does not keep.  The memo
    dies with the observer holding it."""

    __slots__ = ("_afresh", "_derive", "memo")

    def __init__(self, derive: Callable[[TelemetryEvent], Any],
                 afresh: Callable[[tuple], Any] | None = None):
        self._derive = derive
        self._afresh = afresh
        self.memo: dict[tuple, Any] = {}

    def __call__(self, event: TelemetryEvent) -> Any:
        attrs = event.attrs
        key = (event.topic, event.name, attrs)
        if not memoisable(attrs):
            derived = self._derive(event)
            if self._afresh is not None:
                self._afresh((key, derived))
            return derived
        derived = self.memo.get(key)
        if derived is None:
            derived = self.memo[key] = self._derive(event)
        return derived


class TelemetryBus:
    """Synchronous publish/subscribe hub for :class:`TelemetryEvent`.

    Within one event, all-topic subscribers are called first, then the
    topic's own, each group in subscription order, immediately, on the
    emitting thread (the simulation is single-threaded).  A subscriber
    must not mutate simulation state, only observe it -- so the order
    *between* two observers carries no meaning: one that names its
    topics runs after the all-topic ones (in a campaign cell, the JOB
    fold before the live auditor) and sees exactly what it would see among
    them.

    ``active`` is a plain attribute maintained by subscribe/unsubscribe
    so hot-path emission sites can guard with one attribute read.
    ``dispatched`` counts events actually delivered -- it stays 0 for a
    run with no subscribers, and does not move for an event on a topic
    nobody reads, which the tests use to prove zero cost.
    """

    __slots__ = ("active", "dispatched", "_subs", "_topic_subs")

    def __init__(self) -> None:
        self.active = False
        self.dispatched = 0
        self._subs: list[Any] = []
        #: topic -> its subscribers, every topic present.  A ``Topic`` is
        #: a ``str`` and hashes as one, so :meth:`emit` finds the list by
        #: either spelling emission sites use (the member or its string
        #: value) in one lookup, before any enum call.
        self._topic_subs: dict[Topic, list[Any]] = {topic: [] for topic in Topic}

    # -- subscription ---------------------------------------------------
    def subscribe(self, fn, topic: Topic | str | None = None):
        """Register *fn(event)*; returns a zero-argument unsubscriber.

        With *topic* given, *fn* sees only that topic's events.  Calling
        the unsubscriber again is a no-op.
        """
        subs = self._subs if topic is None else self._topic_subs[Topic(topic)]
        subs.append(fn)
        self.active = True

        def unsubscribe() -> None:
            if fn in subs:
                subs.remove(fn)
                self._refresh()

        return unsubscribe

    def _refresh(self) -> None:
        self.active = bool(self._subs) or any(self._topic_subs.values())

    # -- emission -------------------------------------------------------
    def emit(self, time: float, topic: Topic | str, name: str, **attrs: Any) -> None:
        """Publish one event.  No-op (and allocation-free) while inactive,
        and for a topic that neither its own nor an all-topic subscriber
        reads."""
        if not self.active:
            return
        scoped = self._topic_subs.get(topic)
        if scoped is None:
            scoped = self._topic_subs[Topic(topic)]  # ValueError: no such topic
        if not scoped and not self._subs:
            return
        event = TelemetryEvent(time, _TOPIC_OF[topic], name, tuple(sorted(attrs.items())))
        self.dispatched += 1
        for fn in self._subs:
            fn(event)
        for fn in scoped:
            fn(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self._subs) + sum(len(v) for v in self._topic_subs.values())
        return f"<TelemetryBus active={self.active} subscribers={n}>"


# -- the ambient bus ----------------------------------------------------
#
# CLI flags like ``--trace`` must reach pools constructed deep inside
# experiment functions without threading a parameter through every
# signature.  An *ambient* bus, installed for the duration of an
# observation session, is picked up by every Pool built while it is
# installed.  With nothing installed, each Pool gets its own inert bus.

_ambient: TelemetryBus | None = None


def install_ambient(bus: TelemetryBus | None) -> TelemetryBus | None:
    """Make *bus* (or None) the ambient bus new pools attach to; return the one it replaces."""
    global _ambient
    previous, _ambient = _ambient, bus
    return previous


def ambient_bus() -> TelemetryBus:
    """The installed ambient bus, or a fresh inert one."""
    return _ambient if _ambient is not None else TelemetryBus()
