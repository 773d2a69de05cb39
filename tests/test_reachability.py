"""Reachability census: which ``src/repro`` code a documented user path runs.

Every documented user path runs in a subprocess under a test-only
``sitecustomize`` that records each code object entered
(``sys.settrace`` / ``threading.settrace``, ``call`` events only) and
each module loaded, in that process and in its pool workers.  The
paths: ``harness all`` with the five output flags, campaign and fuzz
with ``--checkpoint``/``--resume``/``--replay``,
the store CLI, every ``examples/*.py``, ``python -m benchmarks.gridbench
--smoke`` and a service round trip that GETs ``/console``.

The test prints the per-package table of function lines reached and
unreached, and asserts two things: every ``src/repro`` module is
imported by some user path, and every function in ``obs/console.py`` is
entered.  A function's lines are the distinct source lines its bytecode
covers, so nested functions are not counted twice.

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

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "repro"
REFERENCE = ROOT / "benchmarks" / "gridbench" / "baseline" / "reference.json"

HOOK = '''\
"""Census hook: the code objects entered and the modules loaded, per process."""
import atexit, multiprocessing.util, os, sys, threading

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
    with open(os.path.join(OUT, f"{os.getpid()}.txt"), "w") as fh:
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
        run = await client.submit_job({"work": 20.0})
        status = await client.wait(run["run_id"], timeout=120.0)
        assert status["state"] == "done", status
        for name in status["artifacts"]:
            await client.artifact(run["run_id"], name)
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
    run(*harness, "--list")
    run(*harness, "all", "--json", "h.json", "--trace", "t.jsonl", "--metrics", "m.json",
        "--profile", "p.json", "--results-db", db)
    run(*harness, "campaign", "--mode", "naive", "--kinds", "MemoryPressure,MachineCrash",
        "--json", "c.json", "--results-db", db)
    cells = json.loads((work / "c.json").read_text(encoding="utf-8"))["cells"]
    spec = next(cell["reproducer"] for cell in cells if cell.get("reproducer"))
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    run(*harness, "campaign", "--replay", "spec.json")
    run(*harness, "campaign", "fuzz", "--budget-cells", "24", "--checkpoint", "ck.json",
        "--json", "f.json", "--results-db", db)
    run(*harness, "campaign", "fuzz", "--resume", "ck.json", "--json", "f2.json")

    run("-m", "benchmarks.gridbench", "--smoke", "--json", "gb.json")
    store = ("-m", "repro.obs.store")
    run(*store, "ingest", str(REFERENCE), "--commit", "reference", "--db", db)
    run(*store, "ingest", "gb.json", "--commit", "work", "--db", db)
    run(*store, "query", "--db", db)
    run(*store, "query", "--strip-wall", "--db", db)
    run(*store, "trend", "--db", db)
    run(*store, "trend", "--metric", "run_s", "--db", db, ok=(0, 1))
    run(*store, "diff", "reference", "work", "--db", db, ok=(0, 1))
    run(*store, "gc", "--keep", "1", "--dry-run", "--db", db)

    for script in sorted((ROOT / "examples").glob("*.py")):
        run(str(script))

    port = _free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", str(port),
         "--db", "runs.db", "--secret", "census", "--results-db", db],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        assert "listening" in server.stdout.readline()
        token = run("-m", "repro.service", "mint-token", "--secret", "census",
                    "--user", "census").stdout.strip()
        (work / "client.py").write_text(CLIENT, encoding="utf-8")
        run("client.py", str(port), token)
    finally:
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=60)
    assert "stopped cleanly" in output
    run("-m", "repro.service", "replay", "--db", "runs.db", "1")


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


def test_every_console_function_is_entered(census):
    _, entered = census
    console = PKG / "obs" / "console.py"
    missed = [code.co_name for code in functions(console)
              if f"{console}:{code.co_firstlineno}:{code.co_name}" not in entered]
    assert missed == [], f"obs/console.py functions no user path enters: {missed}"
