"""Every option has a user: each field of the substrate's config classes is
set somewhere a user path runs.

A field that no user path sets doubles the configurations the tests and
the benchmark claim to cover without any run needing it; such a value is
a module constant in the module that reads it instead.  This scans the
user-path sources (``src/``, ``examples/``, ``benchmarks/gridbench/``)
with :mod:`ast` and requires, for every field, one of: a keyword argument
to its class, a keyword of a ``dict(...)`` call or a string key of a dict
literal (the harness passes config knobs as dicts), or a positional
argument to its class -- outside the module that defines the class.  A
keyword to a function that forwards its ``**kwargs`` to the class (the
harness's ``_scoped_run`` -> ``_scoped_pool`` -> ``CondorConfig``) counts
as a keyword to the class.
"""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

from repro.condor.daemons.config import CondorConfig
from repro.condor.grid import GridConfig, GridPoolSpec
from repro.condor.pool import PoolConfig

ROOT = Path(__file__).resolve().parents[1]
USER_PATHS = ("src", "examples", "benchmarks/gridbench")

#: class -> the number of fields it keeps (the census this test pins)
CONFIGS = {CondorConfig: 15, PoolConfig: 6, GridConfig: 4, GridPoolSpec: 2}


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
            stack = [(tree, None)]
            while stack:
                node, kwarg_of = stack.pop()
                if isinstance(node, ast.FunctionDef):
                    kwarg_of = (node.name, node.args.kwarg.arg) if node.args.kwarg else None
                elif isinstance(node, ast.Dict):
                    keys |= {k.value for k in node.keys
                             if isinstance(k, ast.Constant) and isinstance(k.value, str)}
                elif isinstance(node, ast.Call):
                    callee = _callee(node)
                    calls.append((path, callee, {kw.arg for kw in node.keywords if kw.arg},
                                  len(node.args)))
                    if kwarg_of and any(kw.arg is None and isinstance(kw.value, ast.Name)
                                        and kw.value.id == kwarg_of[1] for kw in node.keywords):
                        forwards.setdefault(kwarg_of[0], set()).add(callee)
                stack.extend((child, kwarg_of) for child in ast.iter_child_nodes(node))
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
