"""Counted dispatch: a heap entry is a call, not a closure (DESIGN §3.1).

The kernel queues ``(when, seq, fn, args)`` in its heap (a timer is its
own ``fn``, with ``args == ()``) and ``(fn, arg)`` in its lane of calls at
the current instant, and runs ``fn(*args)`` or ``fn(arg)``; one inner loop
(``Simulator.run_steps``) sits under ``run()`` and both ``run_until_done``.
None of that may add, remove or reorder an entry, so the gate is counts,
not a clock:

* the entries three scenarios run, and where their clocks stop, are the
  numbers the *parent* commit gave (there every entry was a ``step()``);
* a pool paused mid-run holds no closure and no ``lambda`` in its heap or
  its lane;
* the function objects alive at any pause of a pool run are the
  application's own -- the kernel creates none.
"""

import ast
import gc
import random
import types
from collections import Counter
from pathlib import Path

import pytest

from repro.campaign.fuzz import FuzzConfig, run_fuzz
from repro.campaign.spec import CampaignConfig
from repro.condor.pool import Pool, PoolConfig
from repro.harness import experiments as E
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.sim.engine import Simulator, Timeout

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: scenario -> (heap entries run, simulators built, sum of their final clocks)
#: at the parent commit (ef115cb), where the count was of ``Simulator.step()``
#: calls.  Entries are multiples of 256 because ``run_until_done`` polls.
PARENT_SCHEDULE = {
    "fig3": (3840, 5, 730.061),
    "churn": (17408, 3, 1741.041807),
    "fuzz24": (20736, 28, 2760.28),
}

SCENARIOS = {
    "fig3": lambda: E.EXPERIMENTS["fig3"](seed=7),
    "churn": lambda: E.EXPERIMENTS["churn"](seed=7),
    "fuzz24": lambda: run_fuzz(FuzzConfig(
        campaign=CampaignConfig(mode="naive", seed=7), budget_cells=24, batch_size=8)),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_schedule_is_the_parents(name, monkeypatch):
    seen = {"entries": 0, "sims": []}
    init, run_steps = Simulator.__init__, Simulator.run_steps

    def counted_init(sim):
        init(sim)
        seen["sims"].append(sim)

    def counted_steps(sim, *args, **kwargs):  # step() and run() go through it too
        ran = run_steps(sim, *args, **kwargs)
        seen["entries"] += ran
        return ran

    monkeypatch.setattr(Simulator, "__init__", counted_init)
    monkeypatch.setattr(Simulator, "run_steps", counted_steps)
    SCENARIOS[name]()
    clocks = round(sum(sim.now for sim in seen["sims"]), 6)
    assert (seen["entries"], len(seen["sims"]), clocks) == PARENT_SCHEDULE[name]


def _busy_pool() -> Pool:
    pool = Pool(PoolConfig(n_machines=16, seed=7))
    for job in make_workload(WorkloadSpec(n_jobs=40), random.Random(7), pool.home_fs):
        pool.submit(job)
    return pool


def _no_closure(fn, entry):
    function = getattr(fn, "__func__", fn)  # a bound method's function
    assert getattr(function, "__closure__", None) is None, entry
    assert getattr(function, "__name__", None) != "<lambda>", entry


def test_a_paused_pool_queues_calls_not_closures():
    pool = _busy_pool()
    sim = pool.sim
    pool.run(until=50)
    assert len(sim._queue) > 100 and not sim._lane  # run() pauses between instants
    for entry in sim._queue:
        when, _seq, fn, args = entry
        assert when >= 50 and isinstance(args, tuple)
        assert args == () if isinstance(fn, Timeout) else callable(fn), entry
        _no_closure(fn, entry)
    paused_in_an_instant = 0
    while not pool.schedd.all_terminal() and sim.run_steps(7):  # pauses inside instants
        paused_in_an_instant += bool(sim._lane)
        for entry in sim._lane:
            _no_closure(entry[0], entry)
    assert paused_in_an_instant > 10


#: Function objects alive above the pre-run baseline, per kind at its busiest
#: pause of a 16-machine x 40-job run: 33 -- the ``on_exit`` lambdas of
#: ``Startd._claim`` (27) and 6 compiled-ClassAd closures.  The parent had 343
#: more at whole-second pauses alone, one ``lambda`` per pending ``Timeout``,
#: plus a ``run`` closure per triggered event within each instant.
APPLICATION_FUNCTIONS_BOUND = 40


def _functions() -> dict:
    return {id(o): o for o in gc.get_objects() if type(o) is types.FunctionType}


def test_a_pool_run_creates_no_function_object_in_the_kernel():
    pool = _busy_pool()
    gc.collect()
    before = _functions()
    peak = Counter()
    # 97 entries a slice: pauses fall inside instants as well as between them.
    while not pool.schedd.all_terminal() and pool.sim.run_steps(97):
        created = Counter(
            f"{fn.__module__}.{fn.__qualname__}"
            for ident, fn in _functions().items()
            if ident not in before and fn.__module__ != __name__
        )
        for name, alive in created.items():
            peak[name] = max(peak[name], alive)
    assert pool.schedd.all_terminal() and len(pool.schedd.jobs) == 40
    assert not [name for name in peak if name.startswith("repro.sim.")], peak
    assert 0 < sum(peak.values()) <= APPLICATION_FUNCTIONS_BOUND, peak


def _calls(tree: ast.AST, *names: str):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in names):
            yield node


def test_there_is_one_dispatch_loop_and_no_lambda_is_scheduled():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = str(path.relative_to(SRC))
        for call in _calls(tree, "call_at", "call_in"):
            if any(isinstance(arg, ast.Lambda) for arg in call.args):
                offenders.append(f"{where}:{call.lineno} schedules a lambda")
        for call in _calls(tree, "step"):  # a per-entry loop outside the kernel
            if not call.args:
                offenders.append(f"{where}:{call.lineno} steps the simulator itself")
    assert offenders == []
    engine = (SRC / "sim" / "engine.py").read_text(encoding="utf-8")
    assert "_schedule_callbacks" not in engine
    assert engine.count("heappop") == 1  # the one in run_steps
    assert "lambda" not in engine
