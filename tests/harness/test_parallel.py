"""Tests for the process-parallel harness: determinism and failure policy.

The worker functions live at module level so they pickle across the
process boundary; anything non-picklable must take the serial fallback.
"""

import os
import pickle
import time

import pytest

from repro.harness.parallel import (
    ItemResult,
    ParallelRunner,
    WorkerFailure,
    shard_items,
)
from repro.harness.replicate import replicate
from repro.sim.rng import RngRegistry


def _deterministic_run(seed):
    rng = RngRegistry(seed).stream("parallel-test")
    return {"a": rng.random(), "b": rng.gauss(0.0, 1.0), "c": float(seed)}


def _raising_run(seed):
    if seed == 2:
        raise RuntimeError("seed two is cursed")
    return {"x": float(seed)}


def _crashing_run(seed):
    if seed == 3:
        os._exit(13)
    if seed == 0:
        time.sleep(1.0)
    return {"x": float(seed)}


def _sleepy_run(seed):
    time.sleep(3.0)
    return {"x": float(seed)}


class TestShardItems:
    def test_contiguous_and_balanced(self):
        assert shard_items([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert shard_items(list(range(8)), 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_more_shards_than_items(self):
        assert shard_items([1, 2], 5) == [[1], [2]]

    def test_concatenation_preserves_order(self):
        items = [9, 3, 7, 1, 5, 2]
        shards = shard_items(items, 4)
        assert [x for shard in shards for x in shard] == items


class TestRunnerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(_deterministic_run, workers=0)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(_deterministic_run, workers=2, timeout=0.0)

    def test_empty_items(self):
        assert ParallelRunner(_deterministic_run, workers=2).map([]) == []


class TestDeterministicMerge:
    def test_parallel_matches_serial_order(self):
        seeds = [7, 1, 5, 3, 9, 0]
        serial = ParallelRunner(_deterministic_run, workers=1).map(seeds)
        parallel = ParallelRunner(_deterministic_run, workers=3).map(seeds)
        assert [r.item for r in parallel] == seeds
        assert [r.value for r in parallel] == [r.value for r in serial]

    def test_each_result_carries_timing(self):
        results = ParallelRunner(_deterministic_run, workers=2).map([1, 2, 3])
        assert all(isinstance(r, ItemResult) and r.seconds >= 0.0 for r in results)

    def test_replicate_parallel_bit_identical_to_serial(self):
        """The acceptance contract: workers=4 samples == workers=1 samples."""
        seeds = list(range(8))
        serial = replicate(_deterministic_run, seeds, workers=1)
        parallel = replicate(_deterministic_run, seeds, workers=4)
        assert parallel.seeds == serial.seeds
        assert list(parallel.samples) == list(serial.samples)
        for name, values in serial.samples.items():
            assert values == parallel.samples[name], name

    def test_replicate_records_timings(self):
        rep = replicate(_deterministic_run, [1, 2, 3], workers=2)
        assert len(rep.seed_seconds) == 3
        assert rep.wall_seconds > 0.0
        assert "wall clock" in rep.table("timed").render()


class TestWorkerFailurePolicy:
    """P1/P2: a broken worker is an explicit error naming its seeds,
    never a silently shorter sample array."""

    def test_raising_worker_names_the_seed(self):
        with pytest.raises(WorkerFailure) as info:
            ParallelRunner(_raising_run, workers=2).map([1, 2, 3, 4])
        assert info.value.seeds == (2,)
        assert "cursed" in str(info.value)

    def test_raising_worker_serial_path_names_the_seed(self):
        with pytest.raises(WorkerFailure) as info:
            ParallelRunner(_raising_run, workers=1).map([1, 2, 3])
        assert info.value.seeds == (2,)

    def test_crashed_worker_names_its_shard(self):
        # Whether the innocent shard [1, 2] finished before seed 3 took the
        # pool down is a race; the crasher's own shard is named either way.
        for _ in range(10):
            with pytest.raises(WorkerFailure) as info:
                ParallelRunner(_crashing_run, workers=2).map([1, 2, 3, 4])
            assert info.value.seeds in ((3, 4), (1, 2, 3, 4))

    def test_crash_names_every_unfinished_shard_not_the_first_inspected(self):
        # Seed 0 outlives the crash, so its future (inspected first) carries
        # the same BrokenProcessPool as the shard whose worker really died.
        with pytest.raises(WorkerFailure) as info:
            ParallelRunner(_crashing_run, workers=2).map([0, 2, 3, 4])
        assert info.value.seeds == (0, 2, 3, 4)

    def test_hung_worker_hits_timeout(self):
        with pytest.raises(WorkerFailure) as info:
            ParallelRunner(_sleepy_run, workers=2, timeout=0.25).map([0, 1])
        assert info.value.cause == "timeout"
        assert info.value.seeds in ((0,), (1,))

    def test_worker_failure_pickles_with_seeds(self):
        err = WorkerFailure("boom on 7", [7], cause="RuntimeError('x')")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, WorkerFailure)
        assert clone.seeds == (7,) and clone.cause == "RuntimeError('x')"


class TestSerialFallback:
    def test_non_picklable_fn_falls_back_to_serial(self):
        local = {"calls": 0}

        def run(seed):
            local["calls"] += 1
            return {"x": float(seed)}

        results = ParallelRunner(run, workers=4).map([1, 2, 3])
        assert [r.value["x"] for r in results] == [1.0, 2.0, 3.0]
        assert local["calls"] == 3  # ran in-process, not in workers

    def test_pool_start_failure_falls_back_to_serial(self, monkeypatch):
        import repro.harness.parallel as parallel_mod

        def refuse(*args, **kwargs):
            raise OSError("no forking today")

        monkeypatch.setattr(
            parallel_mod.concurrent.futures, "ProcessPoolExecutor", refuse
        )
        results = ParallelRunner(_deterministic_run, workers=4).map([1, 2])
        assert [r.item for r in results] == [1, 2]
        assert results[0].value == _deterministic_run(1)
