"""Tests for seed replication, including the headline shape across seeds."""

import pytest

from repro.harness.replicate import Replication, replicate


class TestReplicateMechanics:
    def test_aggregation(self):
        rep = replicate(lambda seed: {"x": float(seed), "y": 2.0}, seeds=[1, 2, 3])
        assert rep.mean("x") == 2.0
        assert rep.min("x") == 1.0 and rep.max("x") == 3.0
        assert rep.std("y") == 0.0

    def test_single_seed_std_zero(self):
        rep = replicate(lambda seed: {"x": 5.0}, seeds=[7])
        assert rep.std("x") == 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda seed: {"x": 1.0}, seeds=[])

    def test_inconsistent_metrics_rejected(self):
        def run(seed):
            return {"a": 1.0} if seed == 1 else {"b": 1.0}

        with pytest.raises(ValueError):
            replicate(run, seeds=[1, 2])

    def test_metric_insertion_order_is_not_significant(self):
        """Parallel workers cannot guarantee dict insertion order; rows
        reporting the same metric *set* in any order must aggregate, with
        the first row's order as the canonical one."""

        def run(seed):
            if seed % 2:
                return {"b": 2.0, "a": float(seed)}
            return {"a": float(seed), "b": 2.0}

        rep = replicate(run, seeds=[0, 1, 2, 3])
        assert list(rep.samples) == ["a", "b"]
        assert rep.max("a") == 3.0
        assert rep.mean("b") == 2.0
        assert list(rep.samples["a"]) == [0.0, 1.0, 2.0, 3.0]

    def test_extra_metric_still_rejected(self):
        def run(seed):
            row = {"a": 1.0}
            if seed == 2:
                row["extra"] = 9.0
            return row

        with pytest.raises(ValueError):
            replicate(run, seeds=[1, 2])

    def test_always_predicate(self):
        rep = replicate(lambda seed: {"x": float(seed)}, seeds=[1, 2, 3])
        assert rep.always(lambda row: row["x"] >= 1.0)
        assert not rep.always(lambda row: row["x"] >= 2.0)

    def test_table_renders(self):
        rep = replicate(lambda seed: {"metric": float(seed)}, seeds=[1, 2])
        text = rep.table("demo").render()
        assert "demo (n=2 seeds)" in text and "metric" in text


class TestHeadlineShapeAcrossSeeds:
    def test_scoped_beats_naive_for_every_seed(self):
        """The §2.3-vs-§4 shape is not a seed artifact."""
        from repro.harness import experiments as E

        def run(seed):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(E, "NAIVE_JOBS", 12)
                patch.setattr(E, "NAIVE_MACHINES", 4)
                result = E.run_naive_vs_scoped(seed=seed)
            return {
                "naive_incidental": float(result.naive.user_visible_incidental),
                "scoped_incidental": float(result.scoped.user_visible_incidental),
                "naive_p1": float(result.naive_violations[1]),
                "scoped_p1": float(result.scoped_violations[1]),
            }

        rep = replicate(run, seeds=[0, 1, 2])
        assert rep.always(
            lambda row: row["scoped_incidental"] < row["naive_incidental"]
        )
        assert rep.always(lambda row: row["scoped_p1"] == 0.0)
        assert rep.mean("naive_p1") > 0.0
