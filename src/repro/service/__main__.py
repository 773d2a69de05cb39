"""Service entrypoint: ``python -m repro.service``.

Subcommands::

    serve       run the HTTP edge (default command)
    mint-token  mint a bearer token for a user
    replay      re-execute a stored run and verify byte-identity

Examples::

    python -m repro.service serve --port 8071 --db runs.db --secret s3cret
    python -m repro.service mint-token --secret s3cret --user alice
    python -m repro.service replay --db runs.db 7

``serve`` installs SIGINT/SIGTERM handlers for a clean shutdown: stop
accepting, cancel the drain task, close the store, exit 0 -- the CI
smoke job asserts exactly this.  Also reachable as
``python -m repro.harness serve ...``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
import time

from repro.harness.parallel import positive_worker_count
from repro.service.api import ServiceApi, ServiceConfig
from repro.service.auth import mint_token
from repro.service.executor import ServiceExecutor, replay_run
from repro.service.server import ServiceServer
from repro.service.store import RunStore

__all__ = ["main"]


def _secret_from(args: argparse.Namespace) -> str:
    if args.secret_file:
        with open(args.secret_file, encoding="utf-8") as fh:
            secret = fh.read().strip()
    else:
        secret = args.secret or ""
    if not secret:
        raise SystemExit("a service secret is required: pass --secret or --secret-file")
    return secret


async def _serve(args: argparse.Namespace, secret: str) -> int:
    store = RunStore(args.db)
    # Only here, before the drain exists: any other open (replay, a
    # second process) would steal runs this server is executing.
    recovered = store.requeue_running()
    api = ServiceApi(
        store,
        ServiceConfig(
            secret=secret,
            queue_limit=args.queue_limit,
            results_db=None if args.results_db == "none" else args.results_db,
        ),
    )
    executor = ServiceExecutor(
        store,
        workers=args.workers,
        batch_machines=args.machines,
        batch_seed=args.batch_seed,
    )
    server = ServiceServer(api, executor=executor, host=args.host, port=args.port)
    await server.start()
    console = "off" if api.results_web is None else f"/console <- {args.results_db}"
    print(
        f"repro.service listening on http://{server.host}:{server.port} "
        f"(db={args.db}, workers={args.workers}, queue_limit={args.queue_limit}, "
        f"console={console}, recovered={recovered})",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stopping.set)
    await stopping.wait()
    await server.stop()
    store.close()
    print("repro.service stopped cleanly", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Grid-as-a-service edge over the deterministic reproduction.",
    )
    commands = parser.add_subparsers(dest="command")

    serve = commands.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8071)
    serve.add_argument("--db", default="repro-service.db",
                       help="SQLite run store path (':memory:' for ephemeral)")
    serve.add_argument("--secret", default=None, help="service secret (or --secret-file)")
    serve.add_argument("--secret-file", default=None,
                       help="file containing the service secret")
    serve.add_argument("--workers", type=positive_worker_count, default=1, metavar="N",
                       help="worker processes for accepted runs (1 = in-process)")
    serve.add_argument("--queue-limit", type=int, default=1000, metavar="N",
                       help="max active (submitted+running) runs before "
                            "submissions are rejected with QUEUE_FULL")
    serve.add_argument("--machines", type=int, default=8, metavar="N",
                       help="pool size for grid-job batches")
    serve.add_argument("--batch-seed", type=int, default=0, metavar="SEED",
                       help="seed for grid-job batch pools")
    serve.add_argument("--results-db", default="repro-results.db", metavar="PATH",
                       help="results store backing /console and /v1/results "
                            "(default: repro-results.db; 'none' disables)")

    mint = commands.add_parser("mint-token", help="mint a bearer token")
    mint.add_argument("--secret", default=None)
    mint.add_argument("--secret-file", default=None)
    mint.add_argument("--user", required=True)
    mint.add_argument("--ttl", type=int, default=3600, metavar="SECONDS",
                      help="token lifetime from now")

    replay = commands.add_parser(
        "replay", help="re-execute a stored run; verify artifacts byte-identical"
    )
    replay.add_argument("--db", required=True)
    replay.add_argument("run_id", type=int)

    args = parser.parse_args(argv or ["serve"])
    if args.command == "mint-token":
        print(mint_token(_secret_from(args), args.user, int(time.time()) + args.ttl))
        return 0
    if args.command == "replay":
        with RunStore(args.db) as store:
            verdict = replay_run(store, args.run_id)
        for name, ok in sorted(verdict["checked"].items()):
            print(f"replay run {args.run_id} [{verdict['kind']}] "
                  f"{name}: {'byte-identical' if ok else 'MISMATCH'}")
        return 0 if verdict["match"] else 1
    if args.queue_limit < 1:
        serve.error(f"--queue-limit must be >= 1, got {args.queue_limit}")
    return asyncio.run(_serve(args, _secret_from(args)))


if __name__ == "__main__":
    sys.exit(main())
