"""Integration tests: full pipelines from workflow generation to simulation."""

import importlib

import numpy as np
import pytest

from repro import (
    CheckpointPlan,
    LinearChain,
    MonteCarloEstimator,
    Platform,
    Schedule,
    WeibullFailure,
    evaluate_chain_strategies,
    exhaustive_dag_schedule,
    montage_like,
    optimal_chain_checkpoints,
    schedule_dag,
    schedule_independent_tasks,
    simulate_schedule,
    uniform_random_chain,
    work_maximization_chain,
)


class TestAnalyticVsSimulation:
    """The analytic evaluator and the simulator must agree on expectations."""

    def test_chain_dp_schedule_expectation_matches_simulation(self):
        rng = np.random.default_rng(7)
        chain = uniform_random_chain(10, work_range=(2.0, 8.0), checkpoint_range=(0.5, 1.5), rng=rng)
        downtime, rate = 0.5, 0.02
        result = optimal_chain_checkpoints(chain, downtime, rate)
        schedule = result.to_schedule()
        estimator = MonteCarloEstimator(schedule, rate, downtime)
        estimate = estimator.estimate(8000, seed=7)
        assert estimate.relative_error(result.expected_makespan) < 0.05
        assert estimate.contains(result.expected_makespan, level=0.99)

    def test_independent_heuristic_expectation_matches_simulation(self):
        rng = np.random.default_rng(8)
        works = list(rng.uniform(2.0, 10.0, size=8))
        downtime, rate = 0.2, 0.03
        result = schedule_independent_tasks(works, 1.0, 1.0, downtime, rate)
        schedule = result.to_schedule()
        estimator = MonteCarloEstimator(schedule, rate, downtime)
        estimate = estimator.estimate(6000, seed=8)
        assert estimate.relative_error(result.expected_makespan) < 0.05

    def test_dag_schedule_expectation_matches_simulation(self):
        workflow = montage_like(4, checkpoint_cost=0.4)
        downtime, rate = 0.3, 0.02
        result = schedule_dag(workflow, downtime, rate, seed=9)
        schedule = result.to_schedule()
        estimator = MonteCarloEstimator(schedule, rate, downtime)
        estimate = estimator.estimate(6000, seed=9)
        assert estimate.relative_error(result.expected_makespan) < 0.05


class TestOptimalityEndToEnd:
    def test_dp_placement_beats_baselines_in_simulation(self):
        """The DP's superiority must also show up in simulated makespans."""
        rng = np.random.default_rng(10)
        chain = uniform_random_chain(20, work_range=(3.0, 9.0), checkpoint_range=(0.5, 1.0), rng=rng)
        downtime, rate = 0.5, 0.05
        strategies = evaluate_chain_strategies(chain, downtime, rate)
        simulated = {}
        for name in ("optimal_dp", "checkpoint_all", "checkpoint_none"):
            schedule = strategies[name].to_schedule()
            estimator = MonteCarloEstimator(schedule, rate, downtime)
            simulated[name] = estimator.estimate(3000, seed=10).mean
        assert simulated["optimal_dp"] <= simulated["checkpoint_all"] * 1.02
        assert simulated["optimal_dp"] <= simulated["checkpoint_none"] * 1.02

    def test_exhaustive_dag_at_least_as_good_as_any_manual_schedule(self, diamond_workflow):
        downtime, rate = 0.1, 0.05
        exact = exhaustive_dag_schedule(diamond_workflow, downtime, rate)
        for order in diamond_workflow.all_topological_orders():
            for positions in ([3], [0, 3], [1, 3], [2, 3], [0, 1, 2, 3]):
                plan = CheckpointPlan.from_positions(4, positions)
                manual = Schedule(diamond_workflow, order, plan).expected_makespan(downtime, rate)
                assert exact.expected_makespan <= manual + 1e-9


class TestNonExponentialPipeline:
    def test_weibull_pipeline_runs_and_ranks_strategies(self):
        rng = np.random.default_rng(11)
        chain = uniform_random_chain(12, work_range=(4.0, 10.0), checkpoint_range=(0.5, 1.0), rng=rng)
        law = WeibullFailure.from_mtbf(120.0, shape=0.7)
        platform = Platform(num_processors=1, failure_law=law, downtime=0.5)

        placements = {
            "work_max": work_maximization_chain(chain, law).checkpoint_after,
            "none": (chain.n - 1,),
        }
        means = {}
        for name, positions in placements.items():
            schedule = Schedule.for_chain(chain, positions)
            estimator = MonteCarloEstimator(schedule, platform, 0.5)
            means[name] = estimator.estimate(800, seed=11).mean
        # With an MTBF comparable to the total work, saving work must beat
        # never checkpointing.
        assert means["work_max"] < means["none"]


class TestSimulatorInvariants:
    def test_work_conservation_across_many_runs(self):
        rng = np.random.default_rng(12)
        chain = uniform_random_chain(8, seed=12)
        schedule = Schedule.for_chain(chain, [3, 7])
        expected_useful = schedule.failure_free_time()
        for _ in range(50):
            result = simulate_schedule(schedule, 0.03, 0.5, rng=rng)
            assert result.useful_time == pytest.approx(expected_useful)
            assert result.makespan == pytest.approx(result.useful_time + result.wasted_time)
            assert result.wasted_time >= 0.0

    def test_more_failures_mean_longer_makespans_on_average(self):
        chain = uniform_random_chain(10, seed=13)
        schedule = Schedule.for_chain(chain, [4, 9])
        low_rate = MonteCarloEstimator(schedule, 1e-4, 0.5).estimate(500, seed=13)
        high_rate = MonteCarloEstimator(schedule, 5e-2, 0.5).estimate(500, seed=13)
        assert high_rate.mean > low_rate.mean
        assert high_rate.mean_failures > low_rate.mean_failures


class TestPublicApi:
    def test_version_string(self):
        import repro

        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "package",
        ["repro"] + [
            f"repro.{name}" for name in (
                "analysis", "baselines", "core", "devtools", "experiments", "failures",
                "models", "obs", "runtime", "service", "simulation", "workflows",
            )
        ],
    )
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_quickstart_snippet_from_module_docstring(self):
        chain = LinearChain(
            works=[10.0, 4.0, 7.0],
            checkpoint_costs=[1.0, 0.5, 2.0],
            recovery_costs=[1.0, 0.5, 2.0],
        )
        result = optimal_chain_checkpoints(chain, downtime=0.5, rate=0.01)
        assert result.expected_makespan > 0
        assert result.checkpoint_after
