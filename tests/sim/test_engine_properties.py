"""Property-based tests of the simulation kernel's core guarantees."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Interrupted, Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), max_size=40))
@settings(max_examples=60, deadline=None)
def test_determinism_same_schedule_same_order(delays):
    """Two runs of the same schedule produce identical event orders."""

    def run():
        sim = Simulator()
        order = []
        for i, delay in enumerate(delays):
            sim.call_at(delay, lambda i=i: order.append((sim.now, i)))
        sim.run()
        return order

    assert run() == run()


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), max_size=40))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotone(delays):
    sim = Simulator()
    times = []
    for delay in delays:
        sim.call_at(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert sim.now == (max(delays) if delays else 0.0)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                  st.integers(min_value=0, max_value=5)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_processes_sleep_exactly_their_delays(plan):
    """Each spawned process wakes at the cumulative sum of its sleeps."""
    sim = Simulator()
    results = {}

    def sleeper(sim, pid, naps):
        for nap in naps:
            yield sim.timeout(nap)
        results[pid] = sim.now

    expected = {}
    for pid, (nap, count) in enumerate(plan):
        naps = [nap] * count
        expected[pid] = sum(naps)
        sim.spawn(sleeper(sim, pid, naps))
    sim.run()
    assert results == expected


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_fifo_at_same_instant(n):
    """Same-time events fire in schedule order, regardless of count."""
    sim = Simulator()
    order = []
    for i in range(n):
        sim.call_at(5.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(n))


@given(st.lists(st.floats(min_value=0.001, max_value=50.0, allow_nan=False),
                min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_any_of_fires_at_minimum(delays):
    sim = Simulator()
    winner = []

    def proc(sim):
        events = [sim.timeout(d) for d in delays]
        yield sim.any_of(events)
        winner.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=max(delays) + 1)
    assert winner[0] == min(delays)


@given(st.lists(st.floats(min_value=0.001, max_value=50.0, allow_nan=False),
                min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_all_of_fires_at_maximum(delays):
    sim = Simulator()
    done = []

    def proc(sim):
        events = [sim.timeout(d) for d in delays]
        yield sim.all_of(events)
        done.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert done[0] == max(delays)


# -- dispatch order: the single-callback fast path is the batch path ----------
# The reference is the kernel this repo had before a heap entry became a call:
# a plain list for a queue, one closure per entry, and one closure over the
# whole callback batch per triggered event -- no fast path, no ``fn(*args)``.


class _RefEvent:
    def __init__(self, sim):
        self.sim, self.callbacks, self.triggered = sim, [], False
        self.ok, self.value, self.defused, self.cancelled = True, None, False, False

    def succeed(self, value=None):
        self._trigger(True, value)

    def fail(self, exc):
        self._trigger(False, exc)

    def defuse(self):
        self.defused = True

    def cancel(self):
        self.cancelled = self.cancelled or not self.triggered

    def _trigger(self, ok, value):
        assert not self.triggered
        self.triggered, self.ok, self.value = True, ok, value
        callbacks, self.callbacks = self.callbacks, None
        self.sim.batch(self, callbacks)

    def add_callback(self, fn):
        if self.callbacks is None:
            self.sim.batch(self, [fn])
        else:
            self.callbacks.append(fn)


class _RefKernel:
    """The list-based reference scheduler: ``min()`` over a list, a closure per entry."""

    def __init__(self):
        self.now, self._seq, self.queue = 0.0, 0, []

    def call_at(self, when, fn, *args, priority=1):
        assert when >= self.now
        self._seq += 1
        self.queue.append((when, priority, self._seq, lambda: fn(*args)))

    def batch(self, ev, callbacks):
        def run():
            if not ev.ok and not callbacks and not ev.defused:
                raise ev.value
            for cb in callbacks:
                cb(ev)

        self.call_at(self.now, run, priority=0)

    def event(self):
        return _RefEvent(self)

    def timeout(self, delay, value=None):
        ev = _RefEvent(self)
        self.call_at(self.now + delay, lambda: ev.cancelled or ev.succeed(value))
        return ev

    def spawn(self, generator):
        return _RefProcess(self, generator)

    def run(self):
        while self.queue:
            entry = min(self.queue, key=lambda e: e[:3])
            self.queue.remove(entry)
            self.now = entry[0]
            entry[3]()


class _RefProcess(_RefEvent):
    def __init__(self, sim, generator):
        super().__init__(sim)
        self.generator, self.waiting = generator, None
        sim.call_at(sim.now, self.step, None, None, priority=0)

    def step(self, value, exc):
        try:
            target = self.generator.throw(exc) if exc else self.generator.send(value)
        except StopIteration as stop:
            return self.succeed(stop.value)
        self.waiting = target
        target.add_callback(self.resume)

    def resume(self, ev):
        if self.waiting is ev:
            self.waiting = None
            value, exc = (ev.value, None) if ev.ok else (None, ev.value)
            self.step(value, exc)

    def interrupt(self, cause):
        if not self.triggered:
            self.sim.call_at(self.sim.now, self.interrupt_now, cause, priority=0)

    def interrupt_now(self, cause):
        if self.triggered:
            return
        waiting, self.waiting = self.waiting, None
        if waiting is None:
            return self.sim.call_at(self.sim.now, self.interrupt_now, cause)
        self.step(None, Interrupted(cause))
        if self.waiting is not waiting and waiting.callbacks is not None:
            waiting.callbacks[:] = [
                _ref_late if cb == self.resume else cb for cb in waiting.callbacks
            ]


def _ref_late(ev):
    """Keeps the abandoned slot, so the batch is as long as it was."""


def _play(kernel, program):
    """Run *program* on *kernel*; return everything observable about the order."""
    sim, log, waitable = kernel(), [], []

    def note(label, ev=None):
        log.append((sim.now, label) if ev is None else (sim.now, label, ev.ok, repr(ev.value)))

    def fire(ev, index, outcome):
        if outcome == "ok":
            ev.succeed(index)
        else:
            ev.fail(ValueError(index))
            if outcome == "fail+defuse":  # same instant, before the batch runs
                ev.defuse()

    def waiter(label, target, rewait):
        while True:
            try:
                return note(f"{label} got {(yield target)!r}")
            except Interrupted as stop:
                note(f"{label} interrupted by {stop.cause}")
                if not rewait:
                    return
                rewait = False
            except ValueError as err:
                return note(f"{label} thrown {err}")

    def start(label, target, rewait, interrupt_in):
        process = sim.spawn(waiter(label, target, rewait))
        if interrupt_in is not None:
            sim.call_at(sim.now + interrupt_in, process.interrupt, f"{label}!")

    for index, (kind, *op) in enumerate(program):
        label = f"{kind}{index}"
        if kind == "call":
            sim.call_at(op[0], note, label)
        elif kind == "event":
            at, n_callbacks, outcome, late_in = op
            ev = sim.event()
            for k in range(n_callbacks):
                ev.add_callback(partial(note, f"{label}.{k}"))
            if outcome == "fail" and n_callbacks == 0:
                outcome = "fail+defuse"  # unobserved and not defused raises: its own case below
            sim.call_at(at, fire, ev, index, outcome)
            if late_in is not None:  # add_callback after the trigger
                sim.call_at(at + late_in, ev.add_callback, partial(note, f"{label}.late"))
            waitable.append(ev)
        elif kind == "timeout":
            delay, n_callbacks, cancel_at = op
            ev = sim.timeout(delay, index)
            for k in range(n_callbacks):
                ev.add_callback(partial(note, f"{label}.{k}"))
            if cancel_at is not None:
                sim.call_at(cancel_at, ev.cancel)
            waitable.append(ev)
        elif waitable:  # "wait": a process on an earlier event, maybe interrupted
            at, which, rewait, interrupt_in = op
            sim.call_at(at, start, label, waitable[which % len(waitable)], rewait, interrupt_in)
    sim.run()
    return log, sim.now, sim._seq


_INSTANT = st.integers(min_value=0, max_value=4).map(float)
_FANOUT = st.sampled_from([0, 1, 3])
_OPS = st.one_of(
    st.tuples(st.just("call"), _INSTANT),
    st.tuples(st.just("event"), _INSTANT, _FANOUT,
              st.sampled_from(["ok", "fail", "fail+defuse"]), st.none() | _INSTANT),
    st.tuples(st.just("timeout"), _INSTANT, _FANOUT, st.none() | _INSTANT),
    st.tuples(st.just("wait"), _INSTANT, st.integers(min_value=0, max_value=7),
              st.booleans(), st.none() | _INSTANT),
)


@given(st.lists(_OPS, max_size=14))
@settings(max_examples=300, deadline=None)
def test_dispatch_order_is_the_reference_schedulers(program):
    assert _play(Simulator, program) == _play(_RefKernel, program)


@pytest.mark.parametrize("callbacks", [0, 1])
def test_a_failed_event_raises_from_run_only_when_nobody_observes_it(callbacks):
    sim, seen = Simulator(), []
    ev = sim.event()
    for _ in range(callbacks):
        ev.add_callback(seen.append)
    ev.fail(KeyError("boom"))
    if callbacks:
        sim.run()
        assert seen == [ev] and not ev.ok
    else:
        with pytest.raises(KeyError):
            sim.run()
