"""Tests for the paired simulation campaign runner."""

import pytest

from repro.core.chain_dp import optimal_chain_checkpoints
from repro.core.schedule import Schedule
from repro.failures.distributions import ExponentialFailure, WeibullFailure
from repro.simulation.campaign import CampaignRunner
from repro.workflows.generators import uniform_random_chain


@pytest.fixture
def chain():
    return uniform_random_chain(10, work_range=(3.0, 8.0), checkpoint_range=(0.5, 1.0), seed=300)


@pytest.fixture
def schedules(chain):
    optimal = optimal_chain_checkpoints(chain, 0.5, 0.02)
    return {
        "optimal": optimal.to_schedule(),
        "all": Schedule.for_chain(chain, range(chain.n)),
        "none": Schedule.for_chain(chain, [chain.n - 1]),
    }


class TestCampaignRunner:
    def test_all_strategies_share_each_trace(self, schedules):
        # One schedule under two names: the two sample lists are identical
        # only if every strategy replays the same trace on every round.
        twins = {"first": schedules["optimal"], "second": schedules["optimal"]}
        runner = CampaignRunner(
            twins, WeibullFailure.from_mtbf(40.0, shape=0.7), downtime=0.5
        )
        for engine in ("scalar", "vectorized"):
            result = runner.run(60, seed=10, chunk_size=25, engine=engine)
            assert result.makespans["first"] == result.makespans["second"], engine
            assert len(set(result.makespans["first"])) > 1, engine

    def test_generated_traces_give_paired_samples(self, schedules):
        runner = CampaignRunner(
            schedules, ExponentialFailure(rate=0.02), downtime=0.5
        )
        result = runner.run(50, seed=1)
        assert result.num_runs == 50
        for samples in result.makespans.values():
            assert len(samples) == 50

    def test_means_track_analytic_ranking(self, schedules):
        runner = CampaignRunner(
            schedules, ExponentialFailure(rate=0.05), downtime=0.5
        )
        result = runner.run(300, seed=2)
        # With an MTBF of 20 against ~55 units of work, the single-checkpoint
        # strategy must lose clearly; the optimal placement must rank first or
        # tie with checkpoint-all within noise.
        ranking = result.ranking()
        assert ranking[-1] == "none"
        assert result.mean("optimal") <= result.mean("all") * 1.05

    def test_paired_difference_interval(self, schedules):
        runner = CampaignRunner(schedules, ExponentialFailure(rate=0.05), downtime=0.5)
        result = runner.run(200, seed=3)
        paired = result.paired_difference("none", "optimal")
        assert paired["mean_difference"] > 0.0
        assert paired["ci95_low"] <= paired["mean_difference"] <= paired["ci95_high"]

    def test_unknown_strategy_raises(self, schedules):
        runner = CampaignRunner(schedules, ExponentialFailure(rate=0.02), downtime=0.0)
        result = runner.run(5, seed=4)
        with pytest.raises(KeyError):
            result.mean("missing")
        with pytest.raises(KeyError):
            result.paired_difference("missing", "optimal")

    def test_to_table(self, schedules):
        runner = CampaignRunner(schedules, ExponentialFailure(rate=0.03), downtime=0.2)
        table = runner.run(40, seed=5).to_table(baseline="optimal")
        assert len(table) == 3
        assert "strategy" in table.columns
        names = table.column("strategy")
        assert set(names) == {"optimal", "all", "none"}

    def test_weibull_law_supported(self, schedules):
        law = WeibullFailure.from_mtbf(80.0, shape=0.7)
        runner = CampaignRunner(schedules, law, num_processors=4, downtime=0.5)
        result = runner.run(20, seed=6)
        assert all(len(v) == 20 for v in result.makespans.values())

    def test_requires_law_or_traces(self, schedules):
        with pytest.raises(TypeError, match="failure_law"):
            CampaignRunner(schedules, downtime=0.0)

    def test_rejects_empty_schedules(self):
        with pytest.raises(ValueError):
            CampaignRunner({}, ExponentialFailure(rate=0.1))

    def test_reproducible_with_seed(self, schedules):
        runner = CampaignRunner(schedules, ExponentialFailure(rate=0.02), downtime=0.1)
        a = runner.run(20, seed=9)
        b = runner.run(20, seed=9)
        assert a.makespans["optimal"] == b.makespans["optimal"]
