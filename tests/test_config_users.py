"""Every option has a user: each field of the substrate's config classes,
and each defaulted parameter of the experiment runners and the substrate
callables below, is set somewhere a user path runs.

An option that no user path sets doubles the configurations the tests and
the benchmark claim to cover without any run needing it; such a value is
a module constant in the module that reads it instead (tests patch it).
This scans the user-path sources (``src/``, ``examples/``,
``benchmarks/gridbench/``) with :mod:`ast`.  A config field needs one of:
a keyword argument to its class, a keyword of a ``dict(...)`` call or a
string key of a dict literal (the harness passes config knobs as dicts),
or a positional argument to its class -- outside the module that defines
the class.  A defaulted parameter needs a keyword or a positional
argument in some call of its callable.  Calls count through a function
that forwards its ``**kwargs`` (the harness's ``_scoped_run`` ->
``_scoped_pool`` -> ``CondorConfig``), through ``functools.partial(f,
...)``, as ``cls(...)`` inside the class, and, for every registered
experiment, as the registry's ``fn(seed=seed)``.
"""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

from repro.chirp.proxy import ChirpProxy
from repro.condor.daemons.config import CondorConfig
from repro.condor.grid import Grid, GridConfig, GridPoolSpec
from repro.condor.pool import Pool, PoolConfig
from repro.harness.experiments import EXPERIMENTS
from repro.service.executor import ServiceExecutor
from repro.sim.machine import Machine
from repro.sim.network import Network

ROOT = Path(__file__).resolve().parents[1]
USER_PATHS = ("src", "examples", "benchmarks/gridbench")
REGISTRY = (ROOT / "src" / "repro" / "harness" / "experiments.py").resolve()

#: class -> the number of fields it keeps (the census this test pins)
CONFIGS = {CondorConfig: 15, PoolConfig: 6, GridConfig: 4, GridPoolSpec: 2}

#: callable -> the number of defaulted parameters it keeps: every
#: registered experiment runner (``seed``, and ``outages`` for nfs_mounts)
#: and the substrate callables whose unset parameters became constants.
CALLABLES = {
    **{fn: 0 if name in ("fig4", "time_scope") else 1 for name, fn in EXPERIMENTS.items()},
    Pool.run_until_done: 2,
    Grid.run_until_done: 2,
    Network: 1,
    Machine: 5,
    ChirpProxy: 1,
    ServiceExecutor.drain_forever: 0,
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@functools.cache
def _scan() -> tuple[list[tuple[Path, str, set[str], int]], dict[Path, set[str]], dict]:
    """One pass over the user paths: every call (file, callee, keyword
    names, positional count), every file's string dict-literal keys, and
    function name -> the callees it hands its own ``**kwargs`` to."""
    calls, dict_keys, forwards = [], {}, {}
    for root in USER_PATHS:
        for path in sorted((ROOT / root).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            path = path.resolve()
            keys = dict_keys.setdefault(path, set())
            tree = ast.parse(path.read_text(), filename=str(path))
            stack = [(tree, None, None)]
            while stack:
                node, kwarg_of, cls = stack.pop()
                if isinstance(node, ast.ClassDef):
                    cls = node.name
                elif isinstance(node, ast.FunctionDef):
                    kwarg_of = (node.name, node.args.kwarg.arg) if node.args.kwarg else None
                elif isinstance(node, ast.Dict):
                    keys |= {k.value for k in node.keys
                             if isinstance(k, ast.Constant) and isinstance(k.value, str)}
                elif isinstance(node, ast.Call):
                    callee, n_args = _callee(node), len(node.args)
                    if callee == "partial" and node.args:  # partial(f, *args, **kw) calls f
                        callee, n_args = _callee(ast.Call(node.args[0], [], [])), n_args - 1
                    elif callee == "cls":
                        callee = cls
                    calls.append((path, callee, {kw.arg for kw in node.keywords if kw.arg},
                                  n_args))
                    if kwarg_of and any(kw.arg is None and isinstance(kw.value, ast.Name)
                                        and kw.value.id == kwarg_of[1] for kw in node.keywords):
                        forwards.setdefault(kwarg_of[0], set()).add(callee)
                stack.extend((child, kwarg_of, cls) for child in ast.iter_child_nodes(node))
    return calls, dict_keys, forwards


def _forwarders(cls_name: str) -> set[str]:
    """*cls_name* and every function that passes its ``**kwargs`` on to
    it, directly or through another such function."""
    targets = {cls_name}
    grown = True
    while grown:
        grown = False
        for name, callees in _scan()[2].items():
            if name not in targets and callees & targets:
                targets.add(name)
                grown = True
    return targets


def _user_settings(cls: type) -> set[str]:
    """Every field name of *cls* some user path sets, outside its module."""
    defining = Path(__import__(cls.__module__, fromlist=["_"]).__file__).resolve()
    calls, dict_keys, _ = _scan()
    targets = _forwarders(cls.__name__) | {"dict"}
    fields = [f.name for f in dataclasses.fields(cls)]
    names: set[str] = set()
    for path, keys in dict_keys.items():
        if path != defining:
            names |= keys
    for path, callee, keywords, n_args in calls:
        if path != defining and callee in targets:
            names |= keywords
            if callee == cls.__name__:
                names |= set(fields[:n_args])
    return names


@pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda cls: cls.__name__)
def test_every_field_is_set_by_a_user_path(cls):
    fields = [f.name for f in dataclasses.fields(cls)]
    assert len(fields) == CONFIGS[cls], (
        f"{cls.__name__} has {len(fields)} fields, the census says {CONFIGS[cls]}: "
        "a new field needs a user path that sets it, and this count updated"
    )
    unset = [name for name in fields if name not in _user_settings(cls)]
    assert not unset, (
        f"{cls.__name__} fields no user path sets: {unset}; make each a module "
        "constant in the module that reads it"
    )


def _defaulted(fn) -> list[str]:
    """The parameters of *fn* (a class: its ``__init__``) that have defaults."""
    params = inspect.signature(fn).parameters.values()
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def _user_arguments(fn) -> set[str]:
    """Every parameter of *fn* some user-path call passes, by keyword or by
    position (a method's receiver is not a position)."""
    targets = _forwarders(fn.__name__)
    init = fn.__init__ if inspect.isclass(fn) else fn
    positional = [p for p in inspect.signature(init).parameters if p != "self"]
    passed: set[str] = set()
    for path, callee, keywords, n_args in _scan()[0]:
        # run_experiment_record calls each registered runner as fn(seed=seed)
        registry = callee == "fn" and path == REGISTRY and fn in EXPERIMENTS.values()
        if callee in targets or registry:
            passed |= keywords | set(positional[:n_args])
    return passed


@pytest.mark.parametrize("fn", list(CALLABLES), ids=lambda fn: fn.__qualname__)
def test_every_defaulted_parameter_is_passed_by_a_user_path(fn):
    defaulted = _defaulted(fn)
    assert len(defaulted) == CALLABLES[fn], (
        f"{fn.__qualname__} has {len(defaulted)} defaulted parameters, the census says "
        f"{CALLABLES[fn]}: a new one needs a user path that passes it, and this count updated"
    )
    unpassed = [name for name in defaulted if name not in _user_arguments(fn)]
    assert not unpassed, (
        f"{fn.__qualname__} parameters no user path passes: {unpassed}; make each a "
        "module constant in the module that reads it"
    )
