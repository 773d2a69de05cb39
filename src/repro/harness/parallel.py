"""Process-parallel fan-out with a deterministic, seed-ordered merge.

The determinism contract (DESIGN.md §6) makes per-seed experiment runs
independent: every stream of randomness is derived from the seed alone
(:mod:`repro.sim.rng`), so ``run(seed)`` touches no state shared with
``run(other_seed)``.  That independence is what makes fan-out safe: this
module hands a seed list, one seed at a time, to the worker processes of a
:class:`~concurrent.futures.ProcessPoolExecutor` as they come free, and
merges the per-seed rows back **in canonical seed order**, so parallel
output is bit-identical to serial output.

Worker failure policy follows the paper's P1/P2 ("a program must not
generate an implicit error as a result of receiving an explicit error"):
a worker that crashes, hangs past its per-seed budget, or raises, always
surfaces as an explicit :class:`WorkerFailure` naming the seeds it was
responsible for -- never as a silently shorter sample array.  When the
pool itself cannot start (no forking allowed, function not picklable),
the runner falls back to a plain serial loop, which is always correct.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
from collections.abc import Callable, Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.boundary import WorkerFailure

__all__ = [
    "ItemResult",
    "ParallelRunner",
    "WorkerFailure",
    "shard_items",
    "usable_cores",
]


def usable_cores() -> int:
    """The CPUs this process may run on (its affinity), not the host's count."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent off Linux
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@dataclass(frozen=True)
class ItemResult:
    """One work unit's outcome: the item, its value, and its wall clock."""

    item: Any
    value: Any
    seconds: float


def shard_items(items: Sequence[Any], n_shards: int) -> list[Sequence[Any]]:
    """Split *items* into at most *n_shards* contiguous, balanced, non-empty
    slices (the first ones one longer), each of *items*' own type."""
    n = max(1, min(int(n_shards), len(items)))
    size, extra = divmod(len(items), n)
    return [items[i * size + min(i, extra):(i + 1) * size + min(i + 1, extra)] for i in range(n)]


def _run_item(fn: Callable[[Any], Any], item: Any) -> tuple[Any, float]:
    """``fn(item)`` and its wall clock.

    A failure inside *fn* is converted here, in the worker, into a
    :class:`WorkerFailure` naming the item -- the parent re-raises it as-is.
    """
    started = time.perf_counter()
    try:
        value = fn(item)
    except Exception as exc:
        raise WorkerFailure(
            f"worker failed on {item!r}: {exc!r}", [item], cause=repr(exc)
        ) from exc
    return value, time.perf_counter() - started


class ParallelRunner:
    """Fan ``fn(item)`` calls out over processes; merge in canonical order.

    Parameters
    ----------
    fn:
        A picklable callable of one argument (typically ``run(seed)``).
        Non-picklable callables silently take the serial path.
    workers:
        Process count; ``None`` means :func:`usable_cores`.  ``workers <= 1``
        runs serially (no pool, no overhead).
    timeout:
        Optional per-item wall-clock budget in seconds; exceeding it raises
        :class:`WorkerFailure` naming the item.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int | None = None,
        timeout: float | None = None,
    ):
        self.fn = fn
        self.workers = usable_cores() if workers is None else int(workers)
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
            self._executor.shutdown(wait=wait, cancel_futures=True)
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
        return [ItemResult(item, *_run_item(self.fn, item)) for item in items]

    # -- parallel path ---------------------------------------------------
    def _can_fan_out(self) -> bool:
        """The pool needs a picklable callable; fall back serial otherwise."""
        try:
            pickle.dumps(self.fn)
        except Exception:
            return False
        return True

    def _parallel(self, items: list[Any]) -> list[ItemResult]:
        try:
            if self._persistent:
                if self._executor is None:
                    self._executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=self.workers
                    )
                executor = self._executor
            else:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(self.workers, len(items))
                )
        except (OSError, ValueError, RuntimeError):
            # The pool cannot start (fork refused, resource limits):
            # serial is always a correct answer.
            return self._serial(items)
        # One item per task: a worker that comes free takes the next item,
        # so uneven items balance over the workers.
        futures = [executor.submit(_run_item, self.fn, item) for item in items]
        results: list[ItemResult] = []
        try:
            for item, future in zip(items, futures, strict=True):
                try:
                    results.append(ItemResult(item, *future.result(timeout=self.timeout)))
                except WorkerFailure:
                    raise
                except concurrent.futures.TimeoutError:
                    raise WorkerFailure(
                        f"worker exceeded its {self.timeout}s/seed budget "
                        f"while running {item!r}",
                        [item],
                        cause="timeout",
                    ) from None
                except BrokenProcessPool as exc:
                    # The break lands on every unfinished future, the pool
                    # cannot say whose worker died, and the map returns
                    # nothing: name every item, never just the one waited on.
                    raise WorkerFailure(
                        f"worker process died while running one of {items!r}", items,
                        cause=repr(exc),
                    ) from exc
        except WorkerFailure:
            # Cancel what has not started.  Without a budget every running
            # sibling ends, so wait for it (its side effects are over before
            # the caller cleans up); with one, a sibling may hang.
            if self._persistent:
                self._discard_executor(wait=self.timeout is None)
            else:
                executor.shutdown(wait=self.timeout is None, cancel_futures=True)
            raise
        if not self._persistent:
            executor.shutdown(wait=True)
        return results
