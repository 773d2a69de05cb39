"""One boundary vocabulary: every error that leaves a ``main()`` or a route.

Structural half: every :class:`~repro.boundary.BoundaryError` is defined in
``repro/boundary.py`` and listed once in DESIGN's boundary table with its
code, exit status and HTTP status; every ``main()`` runs under
:func:`~repro.boundary.cli`; no ``main()`` module prints an error and
returns a status itself, and no library raises ``SystemExit(<message>)``.

Behavioural half: each command line below used to end in a traceback,
in a late failure after the work was done, or in a file a read created.
Each is now one ``error:`` line and exit 2, with empty stdout, no
traceback and no new file.
"""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.boundary import BoundaryError, cli
from repro.service.store import RunStore

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Every ``main()`` (module-level ``main`` / ``*_main`` not private), by file.
MAINS = {
    "campaign/cli.py": ["fuzz_main", "main"],
    "harness/__main__.py": ["main"],
    "obs/store/__main__.py": ["main"],
    "service/__main__.py": ["main"],
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _boundary_classes():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    return sorted(set(_subclasses(BoundaryError)), key=lambda cls: cls.__name__)


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


class TestOneVocabulary:
    def test_every_boundary_class_is_defined_in_the_boundary_module(self):
        classes = _boundary_classes()
        assert len(classes) >= 14
        assert [c.__name__ for c in classes if c.__module__ != "repro.boundary"] == []

    def test_old_import_paths_name_the_same_objects(self):
        from repro import boundary, campaign, harness, service
        from repro.campaign import spec
        from repro.harness import experiments, parallel
        from repro.obs import sqlite_store, store
        from repro.obs.store import ingest
        from repro.service import errors

        assert service.ServiceError is errors.ServiceError is BoundaryError
        for name in ("AuthError", "BadRequest", "NotFound", "QueueFull", "WrongTenant"):
            assert getattr(service, name) is getattr(errors, name) is getattr(boundary, name)
        assert harness.WorkerFailure is parallel.WorkerFailure is boundary.WorkerFailure
        assert experiments.UnknownExperiment is boundary.UnknownExperiment
        assert campaign.ConfigError is spec.ConfigError is boundary.ConfigError
        assert store.IngestError is ingest.IngestError is boundary.IngestError
        for name in ("StoreOpenError", "StoreSchemaError", "StoreDurabilityError"):
            assert getattr(store, name) is getattr(sqlite_store, name) is getattr(boundary, name)

    def test_design_lists_each_class_once_with_its_code_and_statuses(self):
        rows = re.findall(
            r"^\| `(\w+)` \| `([A-Z_]+)` \| (\d) \| (\d{3}) \|",
            (ROOT / "DESIGN.md").read_text(encoding="utf-8"),
            flags=re.MULTILINE,
        )
        names = [row[0] for row in rows]
        for cls in _boundary_classes():
            assert names.count(cls.__name__) == 1, cls.__name__
            (row,) = [row for row in rows if row[0] == cls.__name__]
            assert row[1:] == (cls.code, str(cls.exit_status), str(cls.http_status))
        assert sorted(names) == sorted(cls.__name__ for cls in _boundary_classes())

    def test_no_library_raises_a_message_as_an_exit(self):
        exits = [
            f"{name}:{node.lineno}"
            for name, tree in _trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SystemExit"
            # ``raise SystemExit(main())`` hands on a status, not a message
            and not (node.args and isinstance(node.args[0], ast.Call))
        ]
        assert exits == []

    def test_every_main_runs_under_the_wrapper(self):
        found = {}
        for name, tree in _trees():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and (
                    node.name == "main" or node.name.endswith("_main")
                ) and not node.name.startswith("_"):
                    found.setdefault(name, []).append(node.name)
                    assert [d.id for d in node.decorator_list] == ["cli"], (name, node.name)
        assert found == MAINS
        wrapper = cli(lambda argv: 0).__code__
        for name, mains in MAINS.items():
            module = importlib.import_module("repro." + name[:-3].replace("/", "."))
            for main in mains:
                assert getattr(module, main).__code__ is wrapper

    def test_no_main_module_prints_an_error_and_returns_a_status(self):
        """The wrapper is the one renderer.  Exempt by shape: the store
        CLI's per-file ``REJECTED`` loop goes on (no return) and the
        fail-fast stop prints its verdict on stdout."""
        for name, tree in _trees():
            if name not in MAINS:
                continue
            for handler in ast.walk(tree):
                if not isinstance(handler, ast.ExceptHandler):
                    continue
                body = [node for stmt in handler.body for node in ast.walk(stmt)]
                returns = any(isinstance(node, ast.Return) for node in body)
                to_stderr = any(
                    isinstance(node, ast.keyword) and node.arg == "file" for node in body
                )
                assert not (returns and to_stderr), f"{name}:{handler.lineno}"


def _notes(tmp_path):
    (tmp_path / "notes.db").write_text("meeting notes, not a results store\n")


def _unfinished_run(tmp_path):
    with RunStore(str(tmp_path / "runs.db")) as store:
        store.submit_run("experiment", "alice", {"experiment": "fig4", "seed": 0})


#: A reproducer the campaign emits (classic mode, seed 0): it replays "reproduced".
REPRODUCER = {
    "format": "repro-campaign-reproducer/1",
    "cell": "classic/s0/MisconfiguredJvm@exec000[t0-end]",
    "mode": "classic", "seed": 0, "n_jobs": 4, "n_machines": 3, "max_retries": 6,
    "max_time": 100000.0, "federation": False, "defenses": False,
    "injections": [{"kind": "MisconfiguredJvm", "site": "exec000", "job_index": None,
                    "at": 0.0, "until": None}],
    "expect": [{"principle": 1, "subject": subject, "description": (
        "environmental error of remote-resource scope presented as a valid program "
        "result (state=completed)")} for subject in ("1.0", "1.3")],
}


def _reproducer(**edit):
    """A set-up writing ``spec.json``: the reproducer with *edit* applied (an
    ``injection`` key edits its one injection)."""
    injection = {**REPRODUCER["injections"][0], **edit.pop("injection", {})}
    spec = {**REPRODUCER, "injections": [injection], **edit}
    return lambda tmp_path: (tmp_path / "spec.json").write_text(json.dumps(spec))


HARNESS = ("-m", "repro.harness")
STORE = ("-m", "repro.obs.store")
SERVICE = ("-m", "repro.service")

REPLAY = (*HARNESS, "campaign", "--replay", "spec.json")

#: (id, set-up, argv[, what the error line names]): each used to exit 0/1,
#: leave a traceback or a file, or replay a different cell as "reproduced".
CASES = [
    ("harness-results-db-not-a-store", _notes, [*HARNESS, "fig4", "--results-db", "notes.db"]),
    ("campaign-results-db-not-a-store", _notes,
     [*HARNESS, "campaign", "--kinds", "MachineCrash", "--results-db", "notes.db"]),
    ("fuzz-results-db-not-a-store", _notes,
     [*HARNESS, "campaign", "fuzz", "--budget-cells", "2", "--no-shrink",
      "--results-db", "notes.db"]),
    ("store-query-missing", None, [*STORE, "query", "--db", "missing.db"]),
    ("store-trend-missing", None, [*STORE, "trend", "--db", "nothere.db"]),
    ("store-diff-missing", None, [*STORE, "diff", "a", "b", "--db", "missing.db"]),
    ("store-gc-missing", None, [*STORE, "gc", "--db", "missing.db"]),
    ("replay-missing-store", None, [*SERVICE, "replay", "--db", "fresh.db", "1"]),
    ("replay-unfinished-run", _unfinished_run, [*SERVICE, "replay", "--db", "runs.db", "1"]),
    ("serve-missing-secret-file", None, [*SERVICE, "serve", "--secret-file", "missing.txt"]),
    ("serve-port-out-of-range", None, [*SERVICE, "serve", "--secret", "s", "--port", "99999"]),
    ("replay-federation-a-string", _reproducer(federation="false"), REPLAY, "'federation'"),
    ("replay-seed-a-float", _reproducer(seed=0.9), REPLAY, "'seed'"),
    ("replay-job-index-a-bool", _reproducer(injection={"kind": "CorruptProgramImage",
                                                       "site": None, "job_index": True}),
     REPLAY, "'job_index'"),
    ("replay-at-a-string", _reproducer(injection={"at": "0"}), REPLAY, "'at'"),
]


@pytest.mark.parametrize("setup, argv, needle",
                         [(setup, argv, "".join(needle)) for _, setup, argv, *needle in CASES],
                         ids=[case[0] for case in CASES])
def test_a_bad_command_line_is_one_error_line_and_exit_2(tmp_path, setup, argv, needle):
    if setup is not None:
        setup(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    (error,) = [line for line in done.stderr.splitlines() if "error:" in line]
    assert needle in error
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_the_reproducer_of_the_table_replays():
    from repro.campaign import replay

    assert replay(REPRODUCER)["reproduced"]
