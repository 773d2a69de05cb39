"""Public-API surface checks: imports, exports, and documentation."""

import importlib
import pkgutil

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.boundary",
    "repro.campaign",
    "repro.campaign.cli",
    "repro.campaign.corpus",
    "repro.campaign.coverage",
    "repro.campaign.engine",
    "repro.campaign.fuzz",
    "repro.campaign.report",
    "repro.campaign.shrink",
    "repro.campaign.spec",
    "repro.chirp",
    "repro.chirp.auth",
    "repro.chirp.client",
    "repro.chirp.protocol",
    "repro.chirp.proxy",
    "repro.condor",
    "repro.condor.classads",
    "repro.condor.classads.ad",
    "repro.condor.classads.compile",
    "repro.condor.classads.expr",
    "repro.condor.classads.lexer",
    "repro.condor.classads.parser",
    "repro.condor.daemons",
    "repro.condor.daemons.avoidance",
    "repro.condor.daemons.config",
    "repro.condor.daemons.match_index",
    "repro.condor.daemons.matchmaker",
    "repro.condor.daemons.schedd",
    "repro.condor.daemons.shadow",
    "repro.condor.daemons.startd",
    "repro.condor.daemons.starter",
    "repro.condor.grid",
    "repro.condor.job",
    "repro.condor.pool",
    "repro.condor.protocols",
    "repro.condor.submit",
    "repro.condor.tools",
    "repro.condor.userlog",
    "repro.core",
    "repro.core.classify",
    "repro.core.errors",
    "repro.core.interfaces",
    "repro.core.principles",
    "repro.core.propagation",
    "repro.core.result",
    "repro.core.scope",
    "repro.core.timescope",
    "repro.e2e",
    "repro.e2e.manager",
    "repro.e2e.validator",
    "repro.faults",
    "repro.faults.faults",
    "repro.faults.injector",
    "repro.harness",
    "repro.harness.experiments",
    "repro.harness.metrics",
    "repro.harness.parallel",
    "repro.harness.replicate",
    "repro.harness.report",
    "repro.harness.workloads",
    "repro.jvm",
    "repro.jvm.machine",
    "repro.jvm.program",
    "repro.jvm.throwables",
    "repro.jvm.wrapper",
    "repro.obs",
    "repro.obs.bus",
    "repro.obs.canonical",
    "repro.obs.console",
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.obs.signature",
    "repro.obs.span",
    "repro.obs.sqlite_store",
    "repro.obs.store",
    "repro.obs.store.ingest",
    "repro.obs.store.query",
    "repro.obs.summary",
    "repro.obs.web",
    "repro.pvm",
    "repro.pvm.program",
    "repro.remoteio",
    "repro.remoteio.rpc",
    "repro.remoteio.server",
    "repro.service",
    "repro.service.api",
    "repro.service.auth",
    "repro.service.client",
    "repro.service.errors",
    "repro.service.executor",
    "repro.service.server",
    "repro.service.specs",
    "repro.service.store",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.filesystem",
    "repro.sim.machine",
    "repro.sim.network",
    "repro.sim.process",
    "repro.sim.rng",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_is_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


def test_no_unlisted_public_modules():
    """Every importable repro module is in the list above (keeps the list
    honest as the package grows)."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # repro.bench is a one-name re-export shim for benchmarks/gridbench
        # (see test_old_import_paths_are_plain_re_exports), not public API.
        if "__main__" in info.name or info.name.startswith("repro.bench"):
            continue
        found.add(info.name)
    assert found == set(PUBLIC_MODULES)


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_all_exports_documented():
    """Every class/function exported at the top level has a docstring."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_old_import_paths_are_plain_re_exports():
    """One implementation per concept: the paths older callers (and
    ``benchmarks/gridbench``) import resolve to the very same objects."""
    from repro.bench import compare
    from repro.obs import canonical, export, sqlite_store, store
    from repro.service import store as run_store

    assert store.canonical_json is canonical.canonical_json
    assert compare.strip_wall is canonical.strip_wall
    assert export.to_jsonable is canonical.to_jsonable
    for module in (store, run_store):
        assert module.StoreSchemaError is sqlite_store.StoreSchemaError
        assert module.StoreDurabilityError is sqlite_store.StoreDurabilityError
        assert module.StoreOpenError is sqlite_store.StoreOpenError
    assert issubclass(store.ResultsStore, sqlite_store.SqliteStore)
    assert issubclass(run_store.RunStore, sqlite_store.SqliteStore)


def test_version():
    assert repro.__version__ == "1.0.0"
