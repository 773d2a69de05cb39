"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.sim import engine
from repro.sim.engine import (
    AllOf,
    AnyOf,
    Interrupted,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(5.0)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [5.0]


def test_zero_delay_timeout_fires():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="ding")
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["ding"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(waiter(sim, 3.0, "c"))
    sim.spawn(waiter(sim, 1.0, "a"))
    sim.spawn(waiter(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    """Events at the same instant run in schedule order (determinism)."""
    sim = Simulator()
    order = []
    for i in range(20):
        sim.call_at(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(20))


def test_run_until_stops_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100.0)

    sim.spawn(proc(sim))
    t = sim.run(until=10.0)
    assert t == 10.0
    assert sim.now == 10.0
    # Remaining event still queued.
    assert sim.peek() == 100.0


def test_run_until_past_queue_advances_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


@pytest.mark.parametrize("queued", [False, True], ids=["empty queue", "entry queued"])
def test_run_until_an_earlier_time_runs_nothing_and_keeps_the_clock(queued):
    sim = Simulator()
    ran = []
    if queued:
        sim.call_at(20.0, ran.append, "late")
    assert sim.run(until=10.0) == 10.0
    assert sim.run(until=5.0) == 10.0  # with an entry queued this rewound to 5.0
    assert sim.now == 10.0 and ran == []
    with pytest.raises(SimulationError):
        sim.call_at(7.0, ran.append, "in the past")
    assert sim.run() == (20.0 if queued else 10.0)
    assert ran == (["late"] if queued else [])


def test_cannot_schedule_in_past():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        sim.call_at(1.0, lambda: None)

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(2.0)
        return 42

    def parent(sim):
        value = yield sim.spawn(child(sim))
        results.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert results == [(2.0, 42)]


def test_waiting_on_finished_process_returns_immediately():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def parent(sim, proc):
        yield sim.timeout(5.0)
        value = yield proc
        results.append((sim.now, value))

    proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, proc))
    sim.run()
    assert results == [(5.0, "done")]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    class Boom(Exception):
        pass

    def child(sim):
        yield sim.timeout(1.0)
        raise Boom("bang")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except Boom as exc:
            caught.append(str(exc))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["bang"]


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    class Boom(Exception):
        pass

    def child(sim):
        yield sim.timeout(1.0)
        raise Boom()

    sim.spawn(child(sim))
    with pytest.raises(Boom):
        sim.run()


def test_defused_failure_does_not_raise():
    sim = Simulator()

    class Boom(Exception):
        pass

    def child(sim):
        yield sim.timeout(1.0)
        raise Boom()

    sim.spawn(child(sim)).defuse()
    sim.run()


def test_event_succeed_wakes_waiters():
    sim = Simulator()
    gate = sim.event()
    woken = []

    def waiter(sim, tag):
        value = yield gate
        woken.append((tag, sim.now, value))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.spawn(waiter(sim, "w1"))
    sim.spawn(waiter(sim, "w2"))
    sim.spawn(opener(sim))
    sim.run()
    assert woken == [("w1", 3.0, "open"), ("w2", 3.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_any_of_first_wins():
    sim = Simulator()
    results = []

    def proc(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(10.0, value="slow")
        outcome = yield sim.any_of([fast, slow])
        results.append((sim.now, list(outcome.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert results == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    results = []

    def proc(sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(5.0, value="b")
        outcome = yield sim.all_of([a, b])
        results.append((sim.now, sorted(outcome.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert results == [(5.0, ["a", "b"])]


def test_empty_conditions_trigger_immediately():
    sim = Simulator()
    assert AnyOf(sim, []).triggered
    assert AllOf(sim, []).triggered


def test_interrupt_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("overslept")
        except Interrupted as intr:
            log.append((sim.now, intr.cause))

    def killer(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(killer(sim, victim))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.spawn(quick(sim))
    sim.run()
    proc.interrupt("too late")  # must not raise
    sim.run()


def test_interrupted_escaping_terminates_process_with_cause():
    sim = Simulator()

    def stubborn(sim):
        yield sim.timeout(50.0)

    def killer(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt("killed")

    victim = sim.spawn(stubborn(sim))
    sim.spawn(killer(sim, victim))
    sim.run()
    assert victim.triggered and victim.ok
    assert victim.value == "killed"


def test_stale_wakeup_after_interrupt_is_ignored():
    """A process interrupted out of a wait must not be resumed again by
    the original event when it eventually fires."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
            log.append("timeout fired into process")
        except Interrupted:
            log.append("interrupted")
            yield sim.timeout(100.0)
            log.append("second sleep done")

    def killer(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    victim = sim.spawn(sleeper(sim))
    sim.spawn(killer(sim, victim))
    sim.run()
    assert log == ["interrupted", "second sleep done"]


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_non_event_recovery_continues_waiting():
    """A generator that catches the kernel's SimulationError and yields a
    fresh event must keep running on that event (the recovery yield used
    to be silently dropped, hanging the process forever)."""
    sim = Simulator()
    log = []

    def resilient(sim):
        try:
            yield "not an event"
        except SimulationError:
            log.append("caught")
            yield sim.timeout(3.0)
            log.append(sim.now)
        return "recovered"

    proc = sim.spawn(resilient(sim))
    sim.run()
    assert log == ["caught", 3.0]
    assert proc.triggered and proc.ok and proc.value == "recovered"


def test_yield_non_event_then_return_terminates_process():
    """A generator that catches the kernel's SimulationError and returns
    must terminate its process normally (the StopIteration used to escape
    into the event loop uncaught)."""
    sim = Simulator()

    def quitter(sim):
        try:
            yield object()
        except SimulationError:
            return "bailed"

    proc = sim.spawn(quitter(sim))
    sim.run()
    assert proc.triggered and proc.ok and proc.value == "bailed"


def test_cross_simulator_yield_recovery():
    """The same send/throw routing applies to the cross-simulator check."""
    sim, other = Simulator(), Simulator()
    log = []

    def resilient(sim):
        try:
            yield other.event()
        except SimulationError:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.spawn(resilient(sim))
    sim.run()
    assert log == [1.0]


def test_cross_simulator_event_rejected():
    sim1 = Simulator()
    sim2 = Simulator()

    def bad(sim):
        yield sim2.event()

    sim1.spawn(bad(sim1))
    with pytest.raises(SimulationError):
        sim1.run()


def test_nested_spawn_runs_in_order():
    sim = Simulator()
    order = []

    def inner(sim, tag):
        order.append(("start", tag, sim.now))
        yield sim.timeout(1.0)
        order.append(("end", tag, sim.now))

    def outer(sim):
        sim.spawn(inner(sim, "x"))
        sim.spawn(inner(sim, "y"))
        yield sim.timeout(0.5)
        order.append(("outer", "", sim.now))

    sim.spawn(outer(sim))
    sim.run()
    assert order == [
        ("start", "x", 0.0),
        ("start", "y", 0.0),
        ("outer", "", 0.5),
        ("end", "x", 1.0),
        ("end", "y", 1.0),
    ]


def test_run_is_not_reentrant():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.0)
        sim.run()

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


# -- a decided wait lets go (DESIGN §3.1 "who holds whom") ------------------
# Each case pins (Simulator.step() calls, final sim.now, outcome) at the
# numbers the kernel gave before conditions detached from their children.

def _drain(sim):
    steps = 0
    while sim.step():
        steps += 1
    return steps


def _heap_reaches(sim, kinds):
    """Instances of *kinds* reachable from the event heap."""
    seen, stack, found = set(), list(sim._queue), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_late_child_failure_after_any_of_decided_is_defused():
    sim = Simulator()
    late = sim.event()
    got = []

    def proc(sim):
        got.append((yield sim.any_of([sim.timeout(1.0, "first"), late])))

    sim.spawn(proc(sim))
    sim.call_at(2.0, lambda: late.fail(RuntimeError("too late")))
    assert (_drain(sim), sim.now) == (7, 2.0)  # run() would not have raised
    assert list(got[0].values()) == ["first"]
    assert late._defused


def test_late_child_failure_after_all_of_failed_fast_is_defused():
    sim = Simulator()
    first, late = sim.event(), sim.event()
    got = []

    def proc(sim):
        try:
            yield sim.all_of([first, late, sim.timeout(5.0)])
        except RuntimeError as err:
            got.append(str(err))

    sim.spawn(proc(sim))
    sim.call_at(1.0, lambda: first.fail(RuntimeError("first")))
    sim.call_at(2.0, lambda: late.fail(RuntimeError("late")))
    assert (_drain(sim), sim.now, got) == (9, 5.0, ["first"])


def test_decided_condition_is_not_reachable_from_its_pending_children():
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        yield sim.any_of([sim.timeout(1.0), never, sim.timeout(60.0)])
        yield sim.all_of([sim.timeout(1.0), sim.timeout(60.0)])  # undecided at t=3
        raise AssertionError("not reached by t=3")

    sim.spawn(proc(sim)).defuse()
    sim.run(until=3.0)
    assert [type(c) for c in _heap_reaches(sim, (AnyOf, AllOf))] == [AllOf]
    assert never._callbacks == [engine._late]


def test_failed_event_nobody_waited_on_still_raises_from_run():
    sim = Simulator()
    sim.call_at(1.0, lambda: sim.event().fail(KeyError("unobserved")))
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == 1.0


def test_one_exception_reaches_two_waiters_and_loses_its_frames_once_handled():
    sim = Simulator()
    shared = sim.event()
    boom = ValueError("boom")
    seen = []

    def waiter(sim, tag):
        try:
            yield shared
        except ValueError as err:
            # Each handler sees a traceback of its own generator's frames.
            seen.append((tag, err is boom, err.__traceback__ is not None))
            yield sim.timeout(1.0)

    sim.spawn(waiter(sim, "a"))
    sim.spawn(waiter(sim, "b"))
    sim.call_at(1.0, lambda: shared.fail(boom))
    assert (_drain(sim), sim.now) == (10, 2.0)
    assert seen == [("a", True, True), ("b", True, True)]
    assert boom.__traceback__ is None


def test_escaping_exception_keeps_its_traceback():
    sim = Simulator()
    shared = sim.event()

    def waiter(sim):
        yield shared

    proc = sim.spawn(waiter(sim))
    proc.defuse()
    sim.call_at(1.0, lambda: shared.fail(ValueError("boom")))
    assert (_drain(sim), sim.now) == (4, 1.0)
    assert not proc.ok and proc.value.__traceback__ is not None


def test_interrupted_process_is_not_pinned_by_the_event_it_left():
    sim = Simulator()
    never = sim.event()  # the test keeps the event; nothing else keeps the process

    def proc(sim):
        held = bytearray(16)  # stands for whatever the generator's locals hold
        try:
            yield never
        except Interrupted:
            return len(held)

    process = sim.spawn(proc(sim))
    sim.run(until=1.0)
    process.interrupt("stop")
    sim.run()
    ref = weakref.ref(process.generator)  # slotted SimProcess: its generator dies with it
    gc.disable()
    try:
        del process
        assert ref() is None  # by reference count alone: no gc.collect()
    finally:
        gc.enable()
    assert never._callbacks == [engine._late]


def test_interrupted_process_rewaiting_the_same_event_keeps_its_callback_slot():
    sim = Simulator()
    shared = sim.event()
    order = []

    def stubborn(sim):
        while True:
            try:
                order.append(("stubborn", (yield shared)))
                return
            except Interrupted:
                order.append("interrupted")

    def other(sim):
        order.append(("other", (yield shared)))

    process = sim.spawn(stubborn(sim))  # first in shared's callback list
    sim.spawn(other(sim))
    sim.call_at(1.0, lambda: process.interrupt())
    sim.call_at(2.0, lambda: shared.succeed("go"))
    assert (_drain(sim), sim.now) == (8, 2.0)
    assert order == ["interrupted", ("stubborn", "go"), ("other", "go")]
