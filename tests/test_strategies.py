"""Tests for the simple chain checkpointing strategies."""

import pytest

from repro.baselines.strategies import (
    checkpoint_all_chain,
    checkpoint_every_k_chain,
    checkpoint_none_chain,
    daly_period_chain,
    evaluate_chain_strategies,
)
from repro.workflows.chain import LinearChain
from repro.workflows.generators import uniform_random_chain


class TestCheckpointAll:
    def test_positions(self, small_chain):
        result = checkpoint_all_chain(small_chain, 0.2, 0.05)
        assert result.checkpoint_after == (0, 1, 2, 3)

    def test_value_matches_schedule(self, small_chain):
        result = checkpoint_all_chain(small_chain, 0.2, 0.05)
        assert result.to_schedule().expected_makespan(0.2, 0.05) == pytest.approx(
            result.expected_makespan
        )


class TestCheckpointNone:
    def test_final_checkpoint_by_default(self, small_chain):
        result = checkpoint_none_chain(small_chain, 0.2, 0.05)
        assert result.checkpoint_after == (3,)

    def test_truly_none(self, small_chain):
        result = checkpoint_none_chain(small_chain, 0.2, 0.05, final_checkpoint=False)
        assert result.checkpoint_after == ()


class TestCheckpointEveryK:
    def test_every_two(self, uniform_chain):
        result = checkpoint_every_k_chain(uniform_chain, 2, 0.1, 0.02)
        assert result.checkpoint_after == (1, 3, 5)

    def test_every_four_adds_final(self, uniform_chain):
        result = checkpoint_every_k_chain(uniform_chain, 4, 0.1, 0.02)
        assert result.checkpoint_after == (3, 5)

    def test_k_one_is_checkpoint_all(self, uniform_chain):
        every_one = checkpoint_every_k_chain(uniform_chain, 1, 0.1, 0.02)
        everything = checkpoint_all_chain(uniform_chain, 0.1, 0.02)
        assert every_one.checkpoint_after == everything.checkpoint_after

    def test_rejects_zero_k(self, uniform_chain):
        with pytest.raises(ValueError):
            checkpoint_every_k_chain(uniform_chain, 0, 0.1, 0.02)


class TestDalyPeriodChain:
    def test_positions_follow_period(self):
        chain = LinearChain.uniform(10, work=10.0, checkpoint_cost=1.0)
        result = daly_period_chain(chain, 0.0, 0.005)
        # Period ~ sqrt(2*1/0.005) ~ 20, so roughly every 2 tasks.
        assert result.num_checkpoints >= 4
        assert result.checkpoint_after[-1] == 9

    def test_free_checkpoints_checkpoint_everywhere(self):
        chain = LinearChain.uniform(5, work=1.0, checkpoint_cost=0.0)
        result = daly_period_chain(chain, 0.0, 0.01)
        assert result.checkpoint_after == (0, 1, 2, 3, 4)

    def test_rare_failures_single_checkpoint(self):
        chain = LinearChain.uniform(5, work=1.0, checkpoint_cost=1.0)
        result = daly_period_chain(chain, 0.0, 1e-9)
        assert result.checkpoint_after == (4,)

    def test_rare_failures_no_final_checkpoint(self):
        # The chain's total work (3.0) stays below the Daly period, so the
        # placement is empty and no final checkpoint cost is charged.
        chain = LinearChain.uniform(3, work=1.0, checkpoint_cost=0.5)
        result = daly_period_chain(chain, 0.1, 1e-4, final_checkpoint=False)
        assert result.checkpoint_after == ()
        none = checkpoint_none_chain(chain, 0.1, 1e-4, final_checkpoint=False)
        assert none.checkpoint_after == ()
        assert result.expected_makespan == none.expected_makespan
        assert result.to_schedule().failure_free_time() == chain.total_work()

    def test_young_variant_runs(self):
        chain = LinearChain.uniform(8, work=5.0, checkpoint_cost=1.0)
        result = daly_period_chain(chain, 0.0, 0.01, use_higher_order=False)
        assert result.num_checkpoints >= 1


class TestEvaluateChainStrategies:
    def test_contains_expected_keys(self, uniform_chain):
        results = evaluate_chain_strategies(uniform_chain, 0.2, 0.02)
        for key in ("optimal_dp", "checkpoint_all", "checkpoint_none", "daly_period",
                    "young_period", "every_2", "every_5"):
            assert key in results

    def test_optimal_dominates_all_strategies(self):
        chain = uniform_random_chain(30, seed=55)
        for rate in (1e-4, 1e-2, 0.1):
            results = evaluate_chain_strategies(chain, 0.3, rate)
            optimal = results["optimal_dp"].expected_makespan
            for name, result in results.items():
                assert result.expected_makespan >= optimal - 1e-9, name

    def test_every_k_skipped_when_longer_than_chain(self):
        chain = LinearChain.uniform(3, work=1.0, checkpoint_cost=0.1)
        results = evaluate_chain_strategies(chain, 0.1, 0.01, every_k=(2, 10))
        assert "every_2" in results
        assert "every_10" not in results

    def test_checkpoint_none_wins_when_failures_negligible(self):
        chain = LinearChain.uniform(10, work=1.0, checkpoint_cost=2.0)
        results = evaluate_chain_strategies(chain, 0.0, 1e-9)
        optimal = results["optimal_dp"]
        none = results["checkpoint_none"]
        assert optimal.expected_makespan == pytest.approx(none.expected_makespan, rel=1e-9)
        assert results["checkpoint_all"].expected_makespan > none.expected_makespan

    def test_checkpoint_all_wins_when_failures_frequent(self):
        chain = LinearChain.uniform(10, work=10.0, checkpoint_cost=0.01)
        results = evaluate_chain_strategies(chain, 0.0, 0.5)
        optimal = results["optimal_dp"]
        everything = results["checkpoint_all"]
        assert optimal.expected_makespan == pytest.approx(
            everything.expected_makespan, rel=1e-9
        )
        assert results["checkpoint_none"].expected_makespan > everything.expected_makespan
