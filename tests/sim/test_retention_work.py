"""Counted retention: what a finished wait leaves behind, without a clock.

The gridbench workloads ``negotiate_scale`` and ``pool_backlog`` at their
smoke shapes (seed 7) run with the cyclic collector off, so whatever the
kernel leaves unreachable-but-cyclic is still there to be counted by one
``gc.collect()`` afterwards, and whatever it leaves *reachable* from a
dead deadline is there to be walked after every negotiation cycle.  The
simulation is deterministic, so the counts repeat exactly.

Before a decided wait let go (DESIGN §3.1 "who holds whom") the one
collect found 2 344 objects after ``negotiate_scale`` -- 24 per delivered
match: the ``AnyOf``, both its events, the connection pair with deques
and endpoints, the ``BrokenConnection`` with traceback and frames, the
``MatchNotify`` -- and some 4 200 after ``pool_backlog``.
"""

import gc
import types
from collections import Counter

import pytest

from benchmarks.gridbench.spans import SpanRecorder
from benchmarks.gridbench.workloads import negotiate_scale, pool_backlog
from repro.condor.daemons.matchmaker import Matchmaker
from repro.sim import engine
from repro.sim.engine import AnyOf, Simulator, Timeout
from repro.sim.network import Connection

SEED = 7

#: (Simulator.step() calls, final sim.now) of the two rounds at the parent
#: commit: letting go adds, removes and reorders no heap entry.
PARENT_SCHEDULE = {"negotiate_scale": (1387, 100000000), "pool_backlog": (1792, 90.006)}

#: What is left after ``pool_backlog`` is the application's own cycles
#: (starter <-> chirp proxy <-> listener: 330 objects), not the kernel's.
UNREACHABLE_BOUND = {"negotiate_scale": 0, "pool_backlog": 600}

_WAIT_DEBRIS = (AnyOf, Connection, types.TracebackType, types.FrameType)
_PRUNE = (Simulator, type, types.ModuleType, types.FunctionType)


def _decided_timeouts(sim):
    """Queued deadlines nobody waits for any more."""
    for entry in sim._queue:
        timer = getattr(entry[3], "__self__", None)  # a queued timer is its bound ``_fire``
        if isinstance(timer, Timeout) and (
            timer._cancelled or all(cb is engine._late for cb in timer._callbacks or ())
        ):
            yield timer


def _debris_behind(timers) -> Counter:
    """Wait debris reachable from *timers* (not through the simulator)."""
    seen, stack, found = set(), list(timers), Counter()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _PRUNE):
            continue
        seen.add(id(obj))
        if isinstance(obj, _WAIT_DEBRIS):
            found[type(obj).__name__] += 1
        stack.extend(gc.get_referents(obj))
    return found


@pytest.fixture(params=[negotiate_scale, pool_backlog], ids=lambda m: m.__name__.split(".")[-1])
def uncollected_round(request, monkeypatch):
    module = request.param
    name = module.__name__.rsplit(".", 1)[-1]
    rec = SpanRecorder(name, 0, False)
    seen = {"steps": 0, "cycles": 0, "dead timers": 0, "debris": Counter()}
    run_steps, run_cycle = Simulator.run_steps, Matchmaker.run_cycle

    def counted_steps(sim, *args, **kwargs):  # every entry runs under run_steps
        ran = run_steps(sim, *args, **kwargs)
        seen["steps"] += ran
        return ran

    def sampled_cycle(mm):
        yield from run_cycle(mm)
        timers = list(_decided_timeouts(mm.sim))
        seen["cycles"] += 1
        seen["dead timers"] += len(timers)
        seen["debris"] += _debris_behind(timers)

    monkeypatch.setattr(Simulator, "run_steps", counted_steps)
    monkeypatch.setattr(Matchmaker, "run_cycle", sampled_cycle)
    gc.collect()
    gc.disable()
    try:
        state = module.setup(SEED, True, rec, "")  # neither workload keeps files
        gc.collect()  # set-up's own garbage is not the run's
        module.run(state, rec)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        seen["unreachable"] = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    seen["sim"] = state["sim"] if "sim" in state else state["pool"].sim
    return name, state, seen


def test_a_finished_round_leaves_the_collector_nothing_of_the_kernels(uncollected_round):
    name, _, seen = uncollected_round
    unreachable = seen["unreachable"]
    assert sum(unreachable.values()) <= UNREACHABLE_BOUND[name], unreachable
    for kind in ("AnyOf", "BrokenConnection", "MatchNotify", "traceback", "frame"):
        assert kind not in unreachable


def test_a_dead_deadline_reaches_no_wait(uncollected_round):
    name, _, seen = uncollected_round
    assert seen["cycles"] >= 3
    if name == "negotiate_scale":  # one dead 60 s deadline per delivered match
        assert seen["dead timers"] >= 98
    assert seen["debris"] == Counter()


def test_letting_go_moves_no_heap_entry(uncollected_round):
    name, state, seen = uncollected_round
    assert (seen["steps"], seen["sim"].now) == PARENT_SCHEDULE[name]
    if name == "negotiate_scale":
        assert state["matchmaker"].matches_made == state["notifications"] == 98
