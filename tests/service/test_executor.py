"""Executor bridge: deterministic batches, the drain cycle, replay."""

import json

import pytest

from repro.obs.canonical import canonical_json, pretty_json
from repro.service.executor import (
    ServiceExecutor,
    execute_batch,
    execute_item,
    replay_run,
)
from repro.service.specs import build_batch_spec
from repro.service.store import RunStore


@pytest.fixture
def store():
    s = RunStore(":memory:")
    yield s
    s.close()


def make_executor(store, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("batch_machines", 2)
    return ServiceExecutor(store, **kwargs)


def batch_of(specs, n_machines=2, seed=0):
    entries = [
        {"run_id": i + 1, "tenant": owner, "spec": spec}
        for i, (owner, spec) in enumerate(specs)
    ]
    return build_batch_spec(entries, n_machines=n_machines, seed=seed, max_time=1e6)


class TestExecuteBatch:
    def test_same_spec_twice_is_identical(self):
        batch = batch_of([
            ("alice", {"work": 10.0}),
            ("bob", {"work": 5.0, "exception": "SegmentationFault"}),
            ("alice", {"work": 2.0, "exit_code": 3}),
        ])
        first = execute_batch(batch)
        second = execute_batch(batch)
        assert pretty_json(first) == pretty_json(second)

    def test_outcomes_match_workload_expectations(self):
        batch = batch_of([
            ("alice", {"work": 10.0}),
            ("bob", {"work": 5.0, "exception": "SegmentationFault"}),
        ])
        result = execute_batch(batch)
        assert result["schema"] == "repro-service-batch-result/1"
        assert result["owners"] == ["alice", "bob"]
        by_run = {record["run_id"]: record for record in result["jobs"]}
        assert by_run[1]["job_state"] == "COMPLETED"
        assert by_run[2]["job_state"] == "COMPLETED"  # a *result*, not a grid error
        assert all(record["matches_expected"] for record in result["jobs"])

    def test_unknown_item_kind_is_a_failure_record(self):
        outcome = execute_item(canonical_json({"kind": "mystery"}))
        assert outcome["ok"] is False
        assert "mystery" in outcome["error"]


class TestDrainCycle:
    def test_drain_once_finishes_mixed_pending_runs(self, store):
        job = store.submit_run("job", "alice", {"work": 5.0})
        exp = store.submit_run(
            "experiment", "alice", {"experiment": "time_scope", "seed": 0}
        )
        assert make_executor(store).drain_once() == 2
        assert store.run_status(job)["state"] == "done"
        assert store.run_status(job)["detail"] == "COMPLETED"
        assert store.artifact_names(job) == ["batch", "result"]
        assert store.run_status(exp)["state"] == "done"
        assert store.artifact_names(exp) == ["metrics", "result", "table", "trace"]
        # Journal shows the full lifecycle, and nothing is left pending.
        assert [state for state, _ in store.event_journal(job)] == [
            "submitted", "running", "done",
        ]
        assert store.pending_runs() == []
        assert make_executor(store).drain_once() == 0

    def test_experiment_result_uses_cli_json_envelope(self, store):
        exp = store.submit_run(
            "experiment", "alice", {"experiment": "time_scope", "seed": 4}
        )
        make_executor(store).drain_once()
        result = json.loads(store.get_artifact(exp, "result"))
        assert result["seed"] == 4
        assert list(result["experiments"]) == ["time_scope"]

    def test_forged_bad_spec_fails_the_run_not_the_drain(self, store):
        # Bypass API validation: a row the normalizers would have refused.
        bad = store.submit_run("experiment", "alice", {"experiment": "nope", "seed": 0})
        good = store.submit_run(
            "experiment", "alice", {"experiment": "time_scope", "seed": 0}
        )
        finished = make_executor(store).drain_once()
        assert finished == 2  # both runs reached a terminal state
        assert store.run_status(bad)["state"] == "failed"
        # the library's typed lookup error, not a CLI exit
        assert store.run_status(bad)["detail"].startswith(
            "UnknownExperiment: unknown experiment 'nope'; try one of"
        )
        assert store.run_status(good)["state"] == "done"

    def test_campaign_run_produces_report(self, store):
        run = store.submit_run("campaign", "alice", {
            "mode": "scoped", "seed": 0, "max_order": 1,
            "kinds": ["MachineCrash"], "n_jobs": 2, "n_machines": 2,
        })
        make_executor(store).drain_once()
        assert store.run_status(run)["state"] == "done"
        report = json.loads(store.get_artifact(run, "report"))
        assert report["campaign"]["mode"] == "scoped"


class TestReplay:
    def test_replay_matches_for_done_runs(self, store):
        job = store.submit_run("job", "alice", {"work": 5.0})
        make_executor(store).drain_once()
        verdict = replay_run(store, job)
        assert verdict == {
            "run_id": job, "kind": "job",
            "checked": {"result": True}, "match": True,
        }

    def test_replay_detects_tampered_artifact(self, store):
        job = store.submit_run("job", "alice", {"work": 5.0})
        make_executor(store).drain_once()
        store.put_artifact(job, "result", b'{"doctored": true}\n')
        assert replay_run(store, job)["match"] is False

    def test_replay_refuses_unfinished_runs(self, store):
        pending = store.submit_run("job", "alice", {"work": 5.0})
        with pytest.raises(ValueError):
            replay_run(store, pending)
