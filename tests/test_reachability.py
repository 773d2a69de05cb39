"""Reachability census: which ``src/repro`` code a documented user path runs.

Every documented user path runs in a subprocess under a test-only
``sitecustomize`` that records each code object entered
(``sys.settrace`` / ``threading.settrace``, ``call`` events only) and
each module loaded, in that process and in its pool workers.  The
paths: ``harness all`` with the five output flags at the default
``--jobs`` and at ``--jobs 1``; ``campaign`` plain, with every flag
(``--federation --defenses --profile --order --jobs``, ``--fail-fast``,
``--list-kinds``) and ``--replay``; ``campaign fuzz`` as README runs it
and with ``--checkpoint``/``--resume``/``--batch-size``/``--order-max``;
every store subcommand with its flags (``--json``, ``--label``,
``--limit``, a ``diff`` of two runs of one workload); every
``examples/*.py``; ``python -m benchmarks.gridbench --smoke``; and a
service over two workers that takes a grid job, an experiment and a
campaign, serves their artifacts, ``/console`` and ``/v1/results``, then
``replay``s each run.

The test prints the per-package table of function lines reached and
unreached, and asserts three things: every ``src/repro`` module is
imported by some user path; every function in ``obs/console.py`` is
entered; and the functions no user path enters are exactly those on the
committed allowlist (``reachability_allowlist.txt``), each with one
reason -- ``oracle`` (a test compares production against it), ``api``
(exported from ``repro``, or named in README/THEORY), ``input`` (it
evaluates outside input the walk does not feed) or ``guard`` (an error
path).  Dunder methods are exempt.  A function's lines are the distinct
source lines its bytecode covers, so nested functions are not counted
twice.

Run:  PYTHONPATH=src python -m pytest -m slow tests/test_reachability.py -s
"""

import inspect
import json
import os
import signal
import socket
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.harness.report import Table

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "repro"
REFERENCE = ROOT / "benchmarks" / "gridbench" / "baseline" / "reference.json"
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
#: Modules the gate skips: ``harness/replicate.py`` has no user path yet,
#: and ROADMAP item 2 (claims over a seed panel) decides whether it gets
#: one or goes.
EXCLUDED = {"harness/replicate.py"}
#: Why a function no user path enters may stay (see the allowlist's header).
REASONS = {"oracle", "api", "input", "guard"}

HOOK = '''\
"""Census hook: the code objects entered and the modules loaded, per process."""
import atexit, multiprocessing.util, os, sys, threading, uuid

OUT, PKG = %r, %r
_entered = set()


def _trace(frame, event, arg):
    _entered.add(frame.f_code)


def _dump():
    sys.settrace(None)
    lines = [f"M {m.__file__}" for m in list(sys.modules.values())
             if (getattr(m, "__file__", None) or "").startswith(PKG)]
    lines += [f"E {c.co_filename}:{c.co_firstlineno}:{c.co_name}" for c in _entered
              if c.co_filename.startswith(PKG)]
    # A pid can be reused by a later process of the walk: never overwrite.
    with open(os.path.join(OUT, f"{os.getpid()}-{uuid.uuid4().hex}.txt"), "x") as fh:
        fh.write("\\n".join(lines))


sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
# A pool worker leaves by os._exit, past atexit: its finalizers run instead.
multiprocessing.util.register_after_fork(
    sys.modules[__name__], lambda _: multiprocessing.util.Finalize(None, _dump, exitpriority=0)
)
'''

CLIENT = '''\
import asyncio, sys
from repro.service import ServiceClient


async def main(port, token):
    client = ServiceClient("127.0.0.1", port, token=token)
    try:
        assert (await client.health())["ok"]
        runs = [await client.submit_job({"work": 20.0}),
                await client.submit_experiment({"experiment": "fig4", "seed": 7}),
                await client.submit_campaign({"mode": "naive", "kinds": ["MachineCrash"],
                                              "n_jobs": 2})]
        await client.queue()
        for run in runs:
            status = await client.wait(run["run_id"], timeout=120.0)
            assert status["state"] == "done", status
            for name in status["artifacts"]:
                await client.artifact(run["run_id"], name)
            print(run["run_id"])
        assert (await client.request("GET", "/console")).status == 200
        for route in ("summary", "runs", "trend?metric=run_s", "errors", "flame", "matrix"):
            assert (await client.request("GET", f"/v1/results/{route}")).status == 200
    finally:
        await client.close()


asyncio.run(main(int(sys.argv[1]), sys.argv[2]))
'''


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def walk_user_paths(work: Path, env: dict) -> None:
    def run(*argv, ok=(0,)):
        done = subprocess.run(
            [sys.executable, *argv], cwd=work, env=env, capture_output=True, text=True,
            timeout=1200,
        )
        assert done.returncode in ok, (argv, done.returncode, done.stderr[-2000:])
        return done

    db = str(work / "results.db")
    harness = ("-m", "repro.harness")
    outputs = ("--json", "h.json", "--trace", "t.jsonl", "--metrics", "m.json",
               "--profile", "p.json")
    run(*harness, "--list")
    run(*harness, "all", *outputs, "--results-db", db)
    run(*harness, "all", "--jobs", "1", *outputs)
    run(*harness, "campaign", "--list-kinds")
    run(*harness, "campaign", "--mode", "naive", "--kinds", "MemoryPressure,MachineCrash",
        "--json", "c.json", "--results-db", db)
    run(*harness, "campaign")
    run(*harness, "campaign", "--federation", "--defenses", "--profile", "--order", "2",
        "--jobs", "2")
    run(*harness, "campaign", "--mode", "naive", "--kinds", "MisconfiguredJvm", "--fail-fast",
        "--no-shrink", ok=(0, 1))
    cells = json.loads((work / "c.json").read_text(encoding="utf-8"))["cells"]
    spec = next(cell["reproducer"] for cell in cells if cell.get("reproducer"))
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    run(*harness, "campaign", "--replay", "spec.json")
    run(*harness, "campaign", "fuzz", "--budget-cells", "24", "--checkpoint", "ck.json",
        "--json", "f.json", "--results-db", db)
    run(*harness, "campaign", "fuzz", "--resume", "ck.json", "--json", "f2.json")
    run(*harness, "campaign", "fuzz", "--mode", "classic", "--seed", "7", "--budget-cells", "200")
    run(*harness, "campaign", "fuzz", "--budget-cells", "24", "--batch-size", "8",
        "--order-max", "3", "--jobs", "2", "--no-shrink")

    run("-m", "benchmarks.gridbench", "--smoke", "--json", "gb.json")
    store = ("-m", "repro.obs.store")
    run(*store, "ingest", str(REFERENCE), "--commit", "reference", "--db", db)
    run(*store, "ingest", "gb.json", "--commit", "work", "--db", db)
    run(*store, "ingest", "gb.json", "--commit", "again", "--db", db)
    run(*store, "query", "--db", db)
    run(*store, "query", "--strip-wall", "--db", db)
    run(*store, "query", "--kind", "gridbench", "--commit", "work", "--limit", "2", "--json",
        "--db", db)
    run(*store, "trend", "--db", db)
    run(*store, "trend", "--metric", "run_s", "--db", db, ok=(0, 1))
    run(*store, "trend", "--metric", "run_s", "--label", "harness", "--json", "--db", db,
        ok=(0, 1))
    run(*store, "diff", "reference", "work", "--db", db, ok=(0, 1))
    run(*store, "diff", "reference", "work", "--json", "--db", db, ok=(0, 1))
    run(*store, "diff", "work", "again", "--db", db)
    run(*store, "gc", "--keep", "1", "--dry-run", "--db", db)

    for script in sorted((ROOT / "examples").glob("*.py")):
        run(str(script))

    port = _free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", str(port),
         "--db", "runs.db", "--secret", "census", "--workers", "2", "--results-db", db],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        assert "listening" in server.stdout.readline()
        token = run("-m", "repro.service", "mint-token", "--secret", "census",
                    "--user", "census").stdout.strip()
        (work / "client.py").write_text(CLIENT, encoding="utf-8")
        run_ids = run("client.py", str(port), token).stdout.split()
    finally:
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=60)
    assert "stopped cleanly" in output
    for run_id in run_ids:  # one run of each kind: job, experiment, campaign
        run("-m", "repro.service", "replay", "--db", "runs.db", run_id)
    run(*store, "gc", "--keep", "1", "--db", db)


def functions(path: Path):
    """Every named function defined in *path*, as code objects."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    yield const


def _lines(code: types.CodeType) -> int:
    return len({line for _, _, line in code.co_lines() if line is not None})


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def allowlist() -> dict[str, str]:
    """``module::qualname`` -> reason, as committed in :data:`ALLOWLIST`."""
    entries = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            reason, name = line.split()
            assert name not in entries, f"{name} is on the allowlist twice"
            entries[name] = reason
    return entries


def test_every_allowlist_entry_names_a_function_with_one_reason():
    """Tier-1 half of the gate: no walk, so a deleted or renamed function,
    an exempt one or an unknown reason fails before the slow census runs."""
    defined = {
        f"{path.relative_to(PKG).as_posix()}::{code.co_qualname}"
        for path in PKG.rglob("*.py") if path.relative_to(PKG).as_posix() not in EXCLUDED
        for code in functions(path) if not _dunder(code.co_name)
    }
    entries = allowlist()
    assert sorted(set(entries) - defined) == [], "allowlisted, but no such function"
    assert {reason for reason in entries.values()} <= REASONS


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """(modules loaded, functions entered) over every user path."""
    work = tmp_path_factory.mktemp("census")
    hook, out = work / "hook", work / "out"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK % (str(out), str(PKG)), encoding="utf-8")
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": os.pathsep.join([str(hook), str(SRC), str(ROOT)]),
    }
    walk_user_paths(work, env)
    modules, entered = set(), set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text(encoding="utf-8").splitlines():
            kind, _, what = line.partition(" ")
            (modules if kind == "M" else entered).add(what)
    return modules, entered


@pytest.mark.slow
def test_census_table_and_every_module_has_a_user_path(census):
    modules, entered = census
    table = Table(
        ["package", "functions", "reached", "lines reached", "lines unreached"],
        title="functions under src/repro reached by a documented user path",
    )
    totals: dict[str, list[int]] = {}
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG)
        package = rel.parts[0] if len(rel.parts) > 1 else "(top)"
        row = totals.setdefault(package, [0, 0, 0, 0])
        for code in functions(path):
            reached = f"{path}:{code.co_firstlineno}:{code.co_name}" in entered
            row[0] += 1
            row[1] += reached
            row[2 if reached else 3] += _lines(code)
    for package, row in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        table.add_row([package, *row])
    sums = [sum(row[i] for row in totals.values()) for i in range(4)]
    table.add_footer("total: {} functions, {} reached, {} lines reached, {} unreached".format(*sums))
    print()
    print(table.render())
    unimported = [str(p.relative_to(SRC)) for p in sorted(PKG.rglob("*.py"))
                  if str(p) not in modules]
    assert unimported == [], f"modules no user path imports: {unimported}"


@pytest.mark.slow
def test_unreached_functions_equal_the_allowlist(census):
    """Every function no user path enters is on the allowlist with its
    reason, and every allowlist entry is still unreached: what only tests
    reach is deleted (with its tests), not left behind."""
    _, entered = census
    unreached = set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel in EXCLUDED:
            continue
        for code in functions(path):
            if (not _dunder(code.co_name)
                    and f"{path}:{code.co_firstlineno}:{code.co_name}" not in entered):
                unreached.add(f"{rel}::{code.co_qualname}")
    allowed = set(allowlist())
    assert sorted(unreached - allowed) == [], "unreached and not on the allowlist"
    assert sorted(allowed - unreached) == [], "on the allowlist but reached (or gone)"


@pytest.mark.slow
def test_every_console_function_is_entered(census):
    _, entered = census
    console = PKG / "obs" / "console.py"
    missed = [code.co_name for code in functions(console)
              if f"{console}:{code.co_firstlineno}:{code.co_name}" not in entered]
    assert missed == [], f"obs/console.py functions no user path enters: {missed}"
