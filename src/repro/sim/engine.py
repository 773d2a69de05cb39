"""Deterministic discrete-event simulation kernel.

The kernel follows the classic event-queue design: a priority queue of
``(time, sequence, fn, args)`` entries, a simulated clock that jumps from
event to event, and a coroutine process model in which a simulated
activity is an ordinary Python generator that *yields* the events it
wants to wait for.  An entry is a call -- the kernel runs ``fn(*args)``
-- so scheduling allocates no closure; a timer is its own entry.  What
must run at the current instant (a triggered event's waiters, a process
start, an interrupt) skips the heap: it goes to a FIFO lane of
``(fn, arg)`` pairs that runs before the heap's next entry (DESIGN §3.1).

Determinism is a hard requirement for the reproduction (DESIGN.md §6):
two events scheduled for the same instant fire in the exact order they
were scheduled (FIFO, via the monotone sequence number), so a given seed
always produces the identical trace.

Example::

    sim = Simulator()

    def hello(sim):
        yield sim.timeout(5.0)
        print("the time is", sim.now)

    sim.spawn(hello(sim))
    sim.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator
from time import perf_counter_ns
from typing import Any

#: Wall-time profiling hook (duck-typed like ``Simulator.telemetry``:
#: anything with ``.add(name, ns)``).  ``repro.obs.profile.install_wall``
#: points this at its counters; the default ``None`` costs one global
#: read per process step, so an unprofiled run pays nothing.
WALL_PROFILE = None

__all__ = [
    "AnyOf",
    "Event",
    "Interrupted",
    "SimProcess",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupted(Exception):
    """Thrown into a process generator when :meth:`SimProcess.interrupt` is called.

    The interrupting party supplies a *cause*, available as ``.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_INF = float("inf")


class Event:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; it is *triggered* exactly once, either by
    :meth:`succeed` (with an optional value) or :meth:`fail` (with an
    exception that will be thrown into every waiter).  Waiters attached
    after triggering are scheduled immediately.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_ok", "_value", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] | None = []
        self._triggered = False
        self._ok = True
        self._value: Any = None
        self._defused = False

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters with *value*."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; *exc* is thrown into every waiter.

        If nobody ever waits on a failed event the simulation ends with
        the exception re-raised from :meth:`Simulator.run` (mirroring
        "unhandled error" semantics), unless :meth:`defuse` is called.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exc!r}")
        self._trigger(ok=False, value=exc)
        return self

    def defuse(self) -> "Event":
        """Mark a failed event as handled even if no process waits on it."""
        self._defused = True
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        sim = self.sim
        sim._seq += 1
        if len(callbacks) == 1:  # the common wait: queue the waiter itself
            sim._lane.append((callbacks[0], self))
        else:
            sim._lane.append((_run_callbacks, (self, callbacks)))

    # -- waiting -------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Invoke *fn(event)* when the event triggers (immediately if it has)."""
        if self._callbacks is None:
            self.sim._urgent(fn, self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._ok else f"failed({self._value!r})"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def _run_callbacks(batch: tuple[Event, list[Callable[[Event], None]]]) -> None:
    """The batch a triggered event queues when it has no or several callbacks."""
    ev, callbacks = batch
    if not callbacks and not ev._ok and not ev._defused:
        raise ev._value
    for cb in callbacks:
        cb(ev)


class Timeout(Event):
    """An event that fires automatically after a simulated delay.

    The timer is its own heap entry, ``(when, seq, timer, ())``: firing
    calls it, with its value already stored.  A timeout that lost its race
    (e.g. a ``recv`` deadline beaten by the message) can be
    :meth:`cancel`-led: the heap entry stays where it is, but firing
    becomes a no-op instead of triggering the event and scheduling a
    callback batch.  At pool scale (one deadline per received ad) this
    keeps the event heap from churning on dead timers.
    """

    __slots__ = ("delay", "_cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # NaN too: it would break the heap's order
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self._callbacks = []
        self._triggered = self._defused = False
        self._ok = True
        self._value = value
        self.delay = delay
        self._cancelled = False
        sim._seq += 1
        heapq.heappush(sim._queue, (sim._now + delay, sim._seq, self, ()))

    def __call__(self) -> None:
        if not self._cancelled:
            self._trigger(True, self._value)

    def cancel(self) -> None:
        """Neutralize the timeout; firing it later does nothing.

        Cancelling an already-triggered timeout is a no-op.
        """
        if not self._triggered:
            self._cancelled = True


def _late(ev: Event) -> None:
    """What a decided wait leaves in a pending event's callback list."""
    if not ev._ok:
        ev._defused = True


def _let_go(ev: Event, callback: Callable[[Event], None]) -> None:
    """Swap *callback* for :func:`_late`, in place, while *ev* is pending."""
    callbacks = ev._callbacks
    if callbacks is not None:
        for i, cb in enumerate(callbacks):
            if cb == callback:
                callbacks[i] = _late


class AnyOf(Event):
    """Triggers as soon as *any* of several events triggers.

    Succeeds with a dict of the already-triggered events and their values;
    fails if the first child to trigger failed.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: list[Event]):
        self.sim = sim
        self._callbacks = []
        self._triggered = self._defused = False
        self._ok = True
        self._value = None
        self.events = events = list(events)
        if not events:
            self.succeed({})
            return
        on_child = self._on_child
        for ev in events:
            ev.add_callback(on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return _late(ev)
        if ev._ok:
            self._trigger(True, self._results())
        else:
            ev._defused = True
            self._trigger(False, ev._value)

    def _trigger(self, ok: bool, value: Any) -> None:
        super()._trigger(ok, value)
        on_child = self._on_child
        for ev in self.events:
            _let_go(ev, on_child)

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev._triggered}


ProcessGenerator = Generator[Event, Any, Any]


class SimProcess(Event):
    """A running simulated activity.

    Wraps a generator that yields :class:`Event` objects.  The process is
    itself an event: it triggers when the generator returns (success, with
    the return value) or raises (failure).  This lets processes wait on
    each other, e.g. ``result = yield child_process``.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"spawn() requires a generator, got {type(generator).__name__}"
            )
        self.sim = sim
        self._callbacks = []
        self._triggered = self._defused = False
        self._ok = True
        self._value = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Start the process at the current instant, but via the lane so
        # that spawn order == execution order.
        sim._urgent(SimProcess._start, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def _start(self) -> None:
        t = self.sim.telemetry
        if t is not None and t.active:
            t.emit(self.sim._now, "process", "start", process=self.name)
        self._step(None, None)

    def _note_end(self, outcome: str) -> None:
        t = self.sim.telemetry
        if t is not None and t.active:
            t.emit(self.sim._now, "process", "end", process=self.name, outcome=outcome)

    def _resume(self, ev: Event) -> None:
        if self._waiting_on is not ev:
            # A stale wakeup from an event this process no longer waits on
            # (it was interrupted while waiting).  Ignore.
            return _late(ev)
        self._waiting_on = None
        value, exc = (ev._value, None) if ev._ok else (None, ev._value)
        if WALL_PROFILE is None:  # one frame between the kernel and the generator
            self._advance(value, exc)
        else:
            self._step(value, exc)

    def _step(self, value: Any, exc: BaseException | None) -> None:
        """:meth:`_advance`, timed: ``sim.process_step`` is exact when profiled."""
        wall = WALL_PROFILE
        if wall is None:
            return self._advance(value, exc)
        t0 = perf_counter_ns()
        try:
            return self._advance(value, exc)
        finally:
            wall.add("sim.process_step", perf_counter_ns() - t0)

    def _advance(self, value: Any, exc: BaseException | None) -> None:
        # Loop so that a kernel-raised SimulationError (bad yield) goes
        # back through the same send/throw handling as any other resume:
        # the generator may catch it and yield a fresh event (continue
        # waiting), return (StopIteration triggers the process), or let
        # it escape (the process fails).  Without this, a StopIteration
        # from the throw escaped into the event loop and a recovery
        # yield was silently dropped, hanging the process forever.
        while True:
            try:
                if exc is not None:
                    target = self.generator.throw(exc)
                    exc.__traceback__ = None  # handled
                else:
                    target = self.generator.send(value)
            except StopIteration as stop:
                if exc is not None:
                    exc.__traceback__ = None  # handled
                self._note_end("returned")
                self._trigger(True, stop.value)
                return
            except Interrupted as err:
                # An interrupt that escapes the generator terminates it but is
                # not a kernel error: the process "dies of" the interruption.
                err.__traceback__ = None  # handled here
                self._note_end("interrupted")
                self._trigger(True, err.cause)
                return
            except BaseException as err:  # noqa: BLE001 - deliberate: process died
                self._note_end("failed")
                self._trigger(False, err)
                return
            if not isinstance(target, Event):
                value, exc = None, SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                continue
            if target.sim is not self.sim:
                value, exc = None, SimulationError(
                    "process yielded an event from another simulator"
                )
                continue
            self._waiting_on = target
            callbacks = target._callbacks
            if callbacks is None:  # already triggered: resume within the instant
                target.add_callback(self._resume)
            else:
                callbacks.append(self._resume)
            return

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current instant.

        Interrupting a finished process is a no-op (the usual race when a
        watchdog and its subject complete simultaneously).
        """
        if not self._triggered:
            self.sim._urgent(self._interrupt, cause)

    def _interrupt(self, cause: Any) -> None:
        if self._triggered:
            return
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is None:
            # Process is mid-step or not yet started; deliver the
            # interrupt on its next resumption point instead.
            self.sim.call_at(self.sim._now, self._interrupt, cause)
            return
        self._step(None, Interrupted(cause))
        if self._waiting_on is not waiting:
            _let_go(waiting, self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name!r} alive={self.is_alive}>"


class Simulator:
    """The simulation kernel: clock + event queue + process scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._lane: deque[tuple[Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._running = False
        #: Optional telemetry sink (duck-typed: anything with ``.active``
        #: and ``.emit(time, topic, name, **attrs)``).  The kernel never
        #: imports ``repro.obs``; a Pool attaches its bus here.  Emission
        #: sites guard on ``.active`` so an idle sink costs one attribute
        #: read per process transition.
        self.telemetry = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # -- low-level scheduling ---------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at simulated time *when*."""
        if not when >= self._now:  # NaN too: it would break the heap's order
            raise SimulationError(f"cannot schedule at {when!r} (now={self._now})")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, args))

    def _urgent(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Queue ``fn(arg)`` in the lane: now, after every entry queued before it."""
        self._seq += 1
        self._lane.append((fn, arg))

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        self.call_at(self._now + delay, fn, *args)

    # -- event factories ----------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Wait for the first of *events*."""
        return AnyOf(self, events)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> SimProcess:
        """Start a new simulated process from *generator*."""
        return SimProcess(self, generator, name)

    # -- execution -----------------------------------------------------------
    def run_steps(self, limit: float = _INF, before: float = _INF, until: float = _INF) -> int:
        """Run queued entries in order and return how many ran.

        The one dispatch loop.  It stops after *limit* entries, once the
        clock has reached *before* (the entry that takes it there still
        runs), when the next entry lies after *until*, or when the queue
        is empty.  The lane runs first: its entries are at the current
        instant, ahead of every heap entry at it (DESIGN §3.1).
        """
        queue, pop, lane, pop_lane = self._queue, heapq.heappop, self._lane, self._lane.popleft
        ran = 0
        while ran < limit and self._now < before:
            if lane:
                if self._now > until:
                    break
                fn, arg = pop_lane()
                fn(arg)
            elif queue and queue[0][0] <= until:
                self._now, _seq, fn, args = pop(queue)
                fn(*args)
            else:
                break
            ran += 1
        return ran

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock passes *until*.

        Returns the final simulated time.  An unhandled failed event
        re-raises its exception here.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            self.run_steps(until=_INF if until is None else until)
            if until is not None and until > self._now:  # never backwards
                self._now = until
        finally:
            self._running = False
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now} queued={len(self._queue) + len(self._lane)}>"
