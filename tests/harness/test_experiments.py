"""Tests for the per-figure experiment runners.

These assert the *shape* of each result -- who wins, what collapses, where
behaviour flips -- which is what the reproduction owes the paper.
"""

import pytest

from repro.core.scope import ErrorScope
from repro.harness import experiments as E


def sized(run, **constants):
    """*run()* with some of the experiments' scenario constants replaced."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(E, name, value)
        return run()


class TestFig1:
    def test_kernel_wiring(self):
        result = sized(E.run_fig1_kernel, FIG1_JOBS=4, FIG1_MACHINES=2)
        assert result.completed == 4
        assert result.matches == 4
        assert result.claims_granted == 4
        assert result.shadows_spawned == 4
        assert result.ads_sent > 0
        assert "FIG1" in result.table().render()


class TestFig2:
    def test_two_hop_io(self):
        result = E.run_fig2_java_universe()
        assert result.completed
        assert result.output_written
        assert result.chirp_requests == result.rpc_requests == 5
        assert result.bytes_exec_to_submit > 0
        assert result.bytes_submit_to_exec > 0


class TestFig3:
    def test_every_scope_lands_correctly(self):
        result = E.run_fig3_scopes()
        assert all(row.correct for row in result.rows)
        scopes = [row.expected_scope for row in result.rows]
        assert scopes == [
            ErrorScope.PROGRAM,
            ErrorScope.VIRTUAL_MACHINE,
            ErrorScope.REMOTE_RESOURCE,
            ErrorScope.LOCAL_RESOURCE,
            ErrorScope.JOB,
        ]


class TestFig4:
    def test_paper_rows_reproduced(self):
        result = E.run_fig4_result_codes()
        # Paper column: 0, x, 1, 1, 1, 1, 1.
        assert [row.bare_code for row in result.rows] == [0, 5, 1, 1, 1, 1, 1]

    def test_ambiguity_then_recovery(self):
        result = E.run_fig4_result_codes()
        # Five distinct failures collapse onto code 1...
        assert [row.bare_code for row in result.rows].count(1) == 5
        # ...but the wrapper tells all seven apart.
        assert len({row.wrapper_report for row in result.rows}) == 7

    def test_wrapper_reports_name_scopes(self):
        result = E.run_fig4_result_codes()
        text = result.table().render()
        for scope in ("virtual-machine", "remote-resource", "local-resource", "job"):
            assert scope in text


class TestNaiveVsScoped:
    @pytest.fixture(scope="class")
    def result(self):
        return sized(E.run_naive_vs_scoped, NAIVE_JOBS=20)

    def test_scoped_shields_users(self, result):
        """'the hailstorm of error messages abated' (§4)."""
        assert result.scoped.user_visible_incidental < result.naive.user_visible_incidental
        assert result.scoped.user_visible_incidental <= 1

    def test_scoped_delivers_more_correct_results(self, result):
        assert result.scoped.correct_results > result.naive.correct_results

    def test_naive_violates_p1_scoped_does_not(self, result):
        assert result.naive_violations[1] > 0
        assert result.scoped_violations[1] == 0

    def test_naive_violates_p2_p4_scoped_does_not(self, result):
        assert result.naive_violations[2] > 0
        assert result.naive_violations[4] > 0
        assert result.scoped_violations[2] == 0
        assert result.scoped_violations[4] == 0

    def test_scoped_pays_in_retries_not_aggravation(self, result):
        """The cost moves from the human to the system (§7)."""
        assert result.scoped.wasted_attempts >= result.naive.wasted_attempts
        assert result.scoped.postmortems_required < result.naive.postmortems_required

    def test_no_jobs_lost(self, result):
        assert result.naive.unfinished == 0
        assert result.scoped.unfinished == 0


class TestBlackHole:
    @pytest.fixture(scope="class")
    def result(self):
        return sized(E.run_black_hole, BLACK_HOLE_JOBS=12)

    def test_all_defenses_complete_everything(self, result):
        assert all(row.completed == 12 for row in result.rows)

    def test_undefended_pool_wastes_work(self, result):
        """§5: 'continuous waste of CPU and network capacity.'"""
        assert result.row("none").wasted_attempts > 0

    def test_self_test_eliminates_waste(self, result):
        """'the startd simply declines to advertise its Java capability.'"""
        assert result.row("self-test").wasted_attempts == 0

    def test_avoidance_bounds_waste(self, result):
        """Avoidance pays threshold-many failures per black hole, then stops."""
        none_waste = result.row("none").wasted_attempts
        avoid_waste = result.row("avoidance").wasted_attempts
        assert avoid_waste < none_waste
        assert avoid_waste <= 2 * 2  # threshold x black holes

    def test_network_cost_ordering(self, result):
        assert result.row("self-test").network_bytes < result.row("none").network_bytes


class TestNfs:
    @pytest.fixture(scope="class")
    def result(self):
        return E.run_nfs_mounts()

    def _row(self, result, outage, mode):
        for row in result.rows:
            if row.outage == outage and row.mode == mode:
                return row
        raise KeyError((outage, mode))

    def test_short_outage_everyone_fine(self, result):
        for mode in ("hard", "soft", "per-op deadline"):
            assert self._row(result, 5.0, mode).outcome == "completed"

    def test_hard_mount_hides_long_outage(self, result):
        """Hard: completes eventually, having hidden a 10-minute hang."""
        row = self._row(result, 600.0, "hard")
        assert row.outcome == "completed"
        assert row.elapsed >= 600.0

    def test_soft_mount_exposes_medium_outage(self, result):
        row = self._row(result, 60.0, "soft")
        assert row.outcome == "error ETIMEDOUT"
        assert row.elapsed < 60.0

    def test_per_op_deadline_splits_the_difference(self, result):
        """The paper's wished-for per-program criterion: ride out medium
        outages, fail on long ones."""
        assert self._row(result, 60.0, "per-op deadline").outcome == "completed"
        assert self._row(result, 600.0, "per-op deadline").outcome == "error ETIMEDOUT"


class TestTimeScope:
    def test_escalation_matches_truth(self):
        result = E.run_time_scope()
        assert all(row.correct for row in result.rows)

    def test_short_blips_stay_process_scope(self):
        result = sized(E.run_time_scope, TIME_SCOPE_OUTAGES=(1.0, 10.0))
        assert all(row.assigned == "process" for row in result.rows)

    def test_persistent_outage_escalates(self):
        result = sized(E.run_time_scope, TIME_SCOPE_OUTAGES=(900.0,))
        assert result.rows[0].assigned == "remote-resource"
        assert result.rows[0].decided_after >= 60.0


class TestPrinciples:
    def test_table_mentions_all_principles(self):
        result = sized(E.run_principles, PRINCIPLES_JOBS=10, PRINCIPLES_MACHINES=4)
        text = result.table().render()
        for p in ("P1", "P2", "P3", "P4"):
            assert p in text

    def test_scoped_violates_none_of_what_naive_violates(self):
        result = E.run_principles(seed=0)
        assert result.naive[1] > 0  # implicit errors from explicit errors
        assert result.naive[4] > 0  # the generic IOException interface
        assert all(result.scoped[p] == 0 for p in (1, 2, 3, 4))


class TestEndToEndExperiment:
    def test_layer_catches_what_bare_delivers(self):
        result = sized(E.run_end_to_end, E2E_JOBS=8, E2E_CORRUPTION_PROBABILITY=0.3)
        bare = result.row("no end-to-end layer")
        layered = result.row("end-to-end layer")
        assert bare.wrong_outputs_delivered > 0
        assert layered.wrong_outputs_delivered == 0
        assert layered.final_valid_outputs == 8
        assert layered.resubmits > 0

    def test_nothing_below_the_layer_notices(self):
        result = E.run_end_to_end()
        assert result.row("no end-to-end layer").implicit_errors_caught == 0
        assert result.row("end-to-end layer").final_valid_outputs == 12


class TestCheckpointExperiment:
    def test_checkpointing_reduces_reexecution(self):
        result = sized(E.run_checkpoint_ablation, CKPT_JOBS=4, CKPT_STEPS=20)
        assert result.row(True).reexecuted_steps < result.row(False).reexecuted_steps
        assert result.row(True).completed == result.row(False).completed == 4

    def test_checkpointing_never_costs_makespan(self):
        result = E.run_checkpoint_ablation()
        assert result.row(True).makespan <= result.row(False).makespan


class TestFairShareExperiment:
    def test_small_user_unblocked(self):
        result = E.run_fair_share()
        assert result.row(True).small_user_done_at < result.row(False).small_user_done_at

    def test_the_flooding_user_pays_modestly(self):
        fair, unfair = (E.run_fair_share().row(flag) for flag in (True, False))
        assert fair.small_user_mean_turnaround < unfair.small_user_mean_turnaround
        assert fair.flood_user_mean_turnaround >= unfair.flood_user_mean_turnaround


class TestRetrySweepExperiment:
    def test_knee_exists(self):
        result = sized(E.run_retry_sweep, RETRY_BUDGETS=(0, 4))
        assert result.row(0).held > 0
        assert result.row(4).completed == result.n_jobs

    def test_completions_are_monotone_in_budget_and_saturate(self):
        result = E.run_retry_sweep()
        completions = [row.completed for row in result.rows]
        assert completions == sorted(completions)
        assert result.rows[-1].completed == result.n_jobs and result.rows[-1].held == 0


class TestPreemptionExperiment:
    def test_preemption_serves_the_owner(self):
        result = E.run_preemption()
        none = result.row("no preemption")
        ckpt = result.row("preemption + checkpointing")
        raw = result.row("preemption, no checkpointing")
        assert ckpt.boss_turnaround < none.boss_turnaround
        assert ckpt.peon_steps_executed < raw.peon_steps_executed
        assert none.evictions == 0 and ckpt.evictions >= 1

    def test_preemption_slashes_the_wait_with_or_without_checkpoints(self):
        result = E.run_preemption()
        none = result.row("no preemption")
        assert result.row("preemption + checkpointing").boss_turnaround < none.boss_turnaround / 3
        assert result.row("preemption, no checkpointing").evictions >= 1


class TestChurnExperiment:
    def test_backoff_beats_permanent_beats_none(self):
        result = E.run_churn()
        none = result.row("none")
        permanent = result.row("permanent")
        backoff = result.row("backoff")
        # Everyone finishes the workload eventually...
        assert none.completed == permanent.completed == backoff.completed
        # ...but the undefended pool wastes the most executions probing
        # the black hole, and the permanent blacklist never gets the
        # repaired machine back, so backoff wins on makespan.
        assert none.wasted_attempts > backoff.wasted_attempts
        assert backoff.makespan < permanent.makespan < none.makespan
        assert backoff.goodput_rate > permanent.goodput_rate

    def test_every_defense_finishes_the_whole_workload(self):
        assert [row.completed for row in E.run_churn().rows] == [24, 24, 24]

    def test_only_backoff_readmits_the_healed_site(self):
        result = E.run_churn()
        assert result.row("backoff").readmitted
        assert not result.row("permanent").readmitted

    def test_churn_actually_happened(self):
        result = E.run_churn()
        for row in result.rows:
            assert row.churn_leaves > 0
            assert row.churn_joins > 0


class TestFlockingExperiment:
    def test_flocking_recruits_the_remote_pool(self):
        result = E.run_flocking()
        solitary = result.row("no flocking")
        flocked = result.row("flocking")
        assert solitary.jobs_flocked == 0 and solitary.remote_completions == 0
        assert flocked.jobs_flocked > 0 and flocked.remote_completions > 0
        assert flocked.completed == solitary.completed
        assert flocked.makespan < solitary.makespan

    def test_link_outage_recovers_between_the_extremes(self):
        result = E.run_flocking()
        outage = result.row("flocking + link outage")
        assert outage.flock_links_down >= 1  # the outage was detected
        assert outage.jobs_flocked > 0  # and survived via backoff re-probe
        assert (result.row("flocking").makespan
                < outage.makespan
                < result.row("no flocking").makespan)
