"""Process-parallel fan-out with a deterministic, seed-ordered merge.

The determinism contract (DESIGN.md §6) makes per-seed experiment runs
independent: every stream of randomness is derived from the seed alone
(:mod:`repro.sim.rng`), so ``run(seed)`` touches no state shared with
``run(other_seed)``.  That independence is what makes fan-out safe: this
module shards a seed list across a :class:`~concurrent.futures.ProcessPoolExecutor`,
runs each shard in its own worker process, and merges the per-seed rows
back **in canonical seed order**, so parallel output is bit-identical to
serial output.

Worker failure policy follows the paper's P1/P2 ("a program must not
generate an implicit error as a result of receiving an explicit error"):
a worker that crashes, hangs past its per-seed budget, or raises, always
surfaces as an explicit :class:`WorkerFailure` naming the seeds it was
responsible for -- never as a silently shorter sample array.  When the
pool itself cannot start (no forking allowed, function not picklable),
the runner falls back to a plain serial loop, which is always correct.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import pickle
import time
from collections.abc import Callable, Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ItemResult",
    "ParallelRunner",
    "WorkerFailure",
    "positive_worker_count",
    "shard_items",
]


def positive_worker_count(text: str) -> int:
    """Argparse type for ``--jobs``/``--workers``: an integer >= 1.

    Shared by every CLI that fans work over :class:`ParallelRunner`, so
    ``--jobs 0``, negatives, and non-integers all fail at argument
    parsing with one clear message instead of falling through to a
    confusing executor failure later.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid worker count {text!r}: must be an integer >= 1"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid worker count {value}: must be >= 1 (use 1 for serial)"
        )
    return value


class WorkerFailure(RuntimeError):
    """A worker crashed, hung, or raised: explicit, never silent (P1/P2).

    ``items`` names exactly the work the failed worker was responsible
    for (for seed replication, the seeds), so the caller knows which
    samples are missing rather than receiving a shorter array.
    """

    def __init__(self, message: str, items: Sequence[Any] = (), cause: str = ""):
        super().__init__(message)
        self.items = tuple(items)
        self.cause = cause

    @property
    def seeds(self) -> tuple:
        """Alias for ``items`` when the work units are seeds."""
        return self.items

    def __reduce__(self):
        # Exceptions pickle by re-calling __init__ with .args; carry the
        # extra attributes across the process boundary explicitly.
        return (type(self), (self.args[0] if self.args else "", self.items, self.cause))


@dataclass(frozen=True)
class ItemResult:
    """One work unit's outcome: the item, its value, and its wall clock."""

    item: Any
    value: Any
    seconds: float


def shard_items(items: Sequence[Any], n_shards: int) -> list[list[Any]]:
    """Split *items* into at most *n_shards* contiguous, balanced shards.

    Contiguity keeps the merge trivially order-preserving and keeps
    neighbouring seeds (often similar cost) spread across workers.
    """
    items = list(items)
    n_shards = max(1, min(int(n_shards), len(items)))
    base, extra = divmod(len(items), n_shards)
    shards, start = [], 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(items[start:start + size])
        start += size
    return shards


def _run_shard(fn: Callable[[Any], Any], items: list[Any]) -> list[tuple[Any, Any, float]]:
    """Worker-side loop: run *fn* over *items*, timing each call.

    A failure inside *fn* is converted here, in the worker, into a
    :class:`WorkerFailure` naming the precise item -- the parent then
    re-raises it as-is instead of guessing which item of the shard died.
    """
    out = []
    for item in items:
        started = time.perf_counter()
        try:
            value = fn(item)
        except Exception as exc:
            raise WorkerFailure(
                f"worker failed on {item!r}: {exc!r}", [item], cause=repr(exc)
            ) from exc
        out.append((item, value, time.perf_counter() - started))
    return out


class ParallelRunner:
    """Fan ``fn(item)`` calls out over processes; merge in canonical order.

    Parameters
    ----------
    fn:
        A picklable callable of one argument (typically ``run(seed)``).
        Non-picklable callables silently take the serial path.
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``workers <= 1``
        runs serially (no pool, no overhead).
    timeout:
        Optional per-item wall-clock budget in seconds.  A shard gets
        ``timeout * len(shard)``; exceeding it raises :class:`WorkerFailure`
        naming the shard's items.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int | None = None,
        timeout: float | None = None,
    ):
        self.fn = fn
        self.workers = (os.cpu_count() or 1) if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        #: Used as a context manager, the runner keeps one process pool
        #: alive across ``map`` calls -- batched drivers (the fuzzer's
        #: batch loop) would otherwise pay pool start-up per batch.
        self._persistent = False
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None

    # -- persistent-pool session ----------------------------------------
    def __enter__(self) -> ParallelRunner:
        self._persistent = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._persistent = False
        self._discard_executor(wait=True)

    def _discard_executor(self, wait: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    # -- public ----------------------------------------------------------
    def map(self, items: Sequence[Any]) -> list[ItemResult]:
        """Run ``fn`` over *items*; results come back in *items* order."""
        items = list(items)
        if not items:
            return []
        if self.workers <= 1 or len(items) == 1 or not self._can_fan_out():
            return self._serial(items)
        return self._parallel(items)

    # -- serial path -----------------------------------------------------
    def _serial(self, items: list[Any]) -> list[ItemResult]:
        return [
            ItemResult(item, value, seconds)
            for item, value, seconds in _run_shard(self.fn, items)
        ]

    # -- parallel path ---------------------------------------------------
    def _can_fan_out(self) -> bool:
        """The pool needs a picklable callable; fall back serial otherwise."""
        try:
            pickle.dumps(self.fn)
        except Exception:
            return False
        return True

    def _parallel(self, items: list[Any]) -> list[ItemResult]:
        shards = shard_items(items, self.workers)
        try:
            if self._persistent:
                if self._executor is None:
                    self._executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=self.workers
                    )
                executor = self._executor
            else:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=len(shards)
                )
        except (OSError, ValueError, RuntimeError):
            # The pool cannot start (fork refused, resource limits):
            # serial is always a correct answer.
            return self._serial(items)
        collected: dict[Any, tuple[Any, float]] = {}
        try:
            futures = [(executor.submit(_run_shard, self.fn, shard), shard) for shard in shards]
            for future, shard in futures:
                budget = None if self.timeout is None else self.timeout * len(shard)
                try:
                    rows = future.result(timeout=budget)
                except WorkerFailure:
                    raise
                except concurrent.futures.TimeoutError:
                    raise WorkerFailure(
                        f"worker exceeded its {self.timeout}s/seed budget "
                        f"while running {shard!r}",
                        shard,
                        cause="timeout",
                    ) from None
                except BrokenProcessPool as exc:
                    # The break lands on every unfinished future and the pool
                    # cannot say whose worker died: name all of them, never
                    # just whichever shard was being waited on.
                    lost = [
                        item
                        for other, items_of in futures
                        if not other.done() or other.exception() is not None
                        for item in items_of
                    ]
                    raise WorkerFailure(
                        f"worker process died while running {lost!r}", lost,
                        cause=repr(exc),
                    ) from exc
                for item, value, seconds in rows:
                    collected[item] = (value, seconds)
        except WorkerFailure:
            # Do not block on still-running siblings of a failed worker;
            # a persistent pool is discarded too (it may be broken).
            if self._persistent:
                self._discard_executor(wait=False)
            else:
                executor.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            if not self._persistent:
                executor.shutdown(wait=True)
        # Canonical-order merge; any hole is an explicit error, never a
        # silently shorter result list.
        missing = [item for item in items if item not in collected]
        if missing:
            raise WorkerFailure(
                f"workers returned no result for {missing!r}", missing,
                cause="missing results",
            )
        return [ItemResult(item, *collected[item]) for item in items]
