"""Tests for the parallel campaign runtime (backends, cache, scenarios).

The load-bearing guarantee is backend equivalence: for a given seed, the
chunked execution path produces bit-identical results whether it runs
serially, on 2 workers, or on 4 workers, and a warm disk cache replays the
same numbers without simulating.
"""

import json

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.experiments.registry import run_experiment
from repro.experiments.sweep import map_sweep, parameter_grid
from repro.failures.distributions import ExponentialFailure, WeibullFailure
from repro.runtime import (
    ChainSpec,
    FailureSpec,
    ProcessPoolBackend,
    ResultCache,
    ScenarioSpec,
    SerialBackend,
    expand_scenarios,
    plan_chunks,
    resolve_backend,
    run_scenarios,
    scenarios_table,
    spawn_chunk_seeds,
    stable_hash,
)
from repro.simulation.campaign import CampaignRunner
from repro.simulation.monte_carlo import MonteCarloEstimator
from repro.workflows.generators import uniform_random_chain


@pytest.fixture
def schedule():
    chain = uniform_random_chain(6, seed=77)
    return Schedule.for_chain(chain, [2, 5])


@pytest.fixture
def estimator(schedule):
    return MonteCarloEstimator(schedule, 0.05, 0.5)


def _double(x: float) -> float:
    """Module-level so process pools can pickle it."""
    return 2.0 * x


def _combine(rate: float, n: int) -> str:
    return f"{rate}:{n}"


class TestChunking:
    def test_plan_is_deterministic_and_complete(self):
        plan = plan_chunks(1000, 256)
        assert sum(plan.sizes) == 1000
        assert plan.sizes == (256, 256, 256, 232)
        assert plan == plan_chunks(1000, 256)

    def test_plan_default_chunk_size(self):
        plan = plan_chunks(10)
        assert plan.sizes == (10,)

    def test_plan_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_chunks(0)
        with pytest.raises(ValueError):
            plan_chunks(10, 0)

    def test_seeds_are_independent_and_reproducible(self):
        seeds_a = spawn_chunk_seeds(42, 4)
        seeds_b = spawn_chunk_seeds(42, 4)
        states_a = [s.generate_state(2).tolist() for s in seeds_a]
        states_b = [s.generate_state(2).tolist() for s in seeds_b]
        assert states_a == states_b
        assert len({tuple(s) for s in states_a}) == 4

    def test_seed_sequence_root_is_not_advanced(self):
        # spawn() advances its root: the same SeedSequence passed twice
        # used to give the second call the root's next children.
        root = np.random.SeedSequence(7)
        first = [s.generate_state(2).tolist() for s in spawn_chunk_seeds(root, 3)]
        again = [s.generate_state(2).tolist() for s in spawn_chunk_seeds(root, 3)]
        fresh = np.random.SeedSequence(7).spawn(3)
        assert first == again == [s.generate_state(2).tolist() for s in fresh]
        assert root.n_children_spawned == 0
        # Children the caller spawned earlier do not shift the chunk seeds.
        root.spawn(2)
        assert [s.generate_state(2).tolist() for s in spawn_chunk_seeds(root, 3)] == first

    def test_seed_sequence_runs_repeat(self, schedule, estimator):
        runner = CampaignRunner(
            {"dp": schedule}, WeibullFailure.from_mtbf(30.0, shape=0.7), downtime=0.5
        )
        root = np.random.SeedSequence(7)
        for engine in ("scalar", "vectorized"):
            first = runner.run(300, seed=root, chunk_size=100, engine=engine)
            second = runner.run(300, seed=root, chunk_size=100, engine=engine)
            assert first.makespans == second.makespans
            assert first.makespans == runner.run(
                300, seed=np.random.SeedSequence(7), chunk_size=100, engine=engine
            ).makespans
        first = estimator.estimate(300, seed=root, chunk_size=100)
        assert estimator.estimate(300, seed=root, chunk_size=100) == first


class TestStableHash:
    def test_stable_across_calls_and_key_order(self):
        assert stable_hash({"a": 1, "b": 2.5}) == stable_hash({"b": 2.5, "a": 1})

    def test_distinguishes_values_and_types(self):
        assert stable_hash({"x": 1.0}) != stable_hash({"x": 2.0})
        law_a = WeibullFailure.from_mtbf(100.0, shape=0.7)
        law_b = WeibullFailure.from_mtbf(100.0, shape=0.9)
        assert stable_hash(law_a) != stable_hash(law_b)

    def test_distinguishes_dataclass_types_with_same_fields(self):
        # Two laws that coincidentally share field values must not collide.
        assert stable_hash(ExponentialFailure(rate=0.5)) != stable_hash({"rate": 0.5})

    def test_handles_numpy_and_specials(self):
        assert stable_hash(np.float64(1.5)) == stable_hash(1.5)
        assert stable_hash(float("inf")) != stable_hash(float("nan"))

    def test_rejects_unhashable_objects(self):
        with pytest.raises(TypeError):
            stable_hash(lambda: None)


class TestResultCache:
    def test_roundtrip_with_arrays(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"kind": "test", "x": 1})
        samples = np.linspace(0.0, 1.0, 17)
        cache.put(key, {"note": "hello"}, {"samples": samples})
        meta, arrays = cache.get(key)
        assert meta["note"] == "hello"
        np.testing.assert_array_equal(arrays["samples"], samples)

    def test_miss_and_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 32) is None
        assert len(cache) == 0
        key = cache.key_for({"x": 2})
        cache.put(key, {"v": 1})
        assert len(cache) == 1
        assert key in cache
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_torn_entry_counts_as_miss(self, tmp_path):
        from repro.runtime.cache import CACHE_VERSION

        cache = ResultCache(tmp_path)
        key = cache.key_for({"x": 3})
        cache.put(key, {"v": 1})
        meta_path = (
            tmp_path / f"v{CACHE_VERSION}" / "results" / key[:2] / f"{key}.json"
        )
        meta_path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_readonly_cache_never_writes(self, tmp_path):
        cache = ResultCache(tmp_path, readonly=True)
        key = cache.key_for({"x": 4})
        assert cache.put(key, {"v": 1}) is None
        assert cache.get(key) is None

    def test_namespaces_are_isolated(self, tmp_path):
        a = ResultCache(tmp_path, namespace="a")
        b = a.with_namespace("b")
        key = a.key_for({"x": 5})
        a.put(key, {"v": 1})
        assert a.get(key) is not None
        assert b.get(key) is None

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        cache = ResultCache()
        assert cache.root == tmp_path / "custom"


class TestBackends:
    def test_resolve_backend_spellings(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)
        pool = resolve_backend(3)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.num_workers == 3
        assert resolve_backend(pool) is pool
        with pytest.raises(ValueError):
            resolve_backend("threads")
        with pytest.raises(TypeError):
            resolve_backend(True)

    def test_serial_map_preserves_order(self):
        assert SerialBackend().map(_double, [1.0, 2.0, 3.0]) == [2.0, 4.0, 6.0]

    def test_pool_map_preserves_order(self):
        with ProcessPoolBackend(2) as pool:
            assert pool.map(_double, list(map(float, range(8)))) == [
                2.0 * i for i in range(8)
            ]

    def test_pool_map_empty(self):
        with ProcessPoolBackend(2) as pool:
            assert pool.map(_double, []) == []


class TestBackendEquivalence:
    """Monte-Carlo results are identical for the same seed on any backend."""

    def test_estimates_identical_serial_vs_2_vs_4_workers(self, estimator):
        serial = estimator.estimate(120, seed=9, backend=SerialBackend(), chunk_size=20)
        with ProcessPoolBackend(2) as two:
            workers2 = estimator.estimate(120, seed=9, backend=two, chunk_size=20)
        with ProcessPoolBackend(4) as four:
            workers4 = estimator.estimate(120, seed=9, backend=four, chunk_size=20)
        assert serial == workers2
        assert serial == workers4

    def test_campaign_identical_serial_vs_pool(self, schedule):
        chain = uniform_random_chain(6, seed=77)
        schedules = {
            "optimal": schedule,
            "all": Schedule.for_chain(chain, range(chain.n)),
        }
        runner = CampaignRunner(
            schedules, WeibullFailure.from_mtbf(80.0, shape=0.7), downtime=0.5
        )
        serial = runner.run(40, seed=3, backend=SerialBackend(), chunk_size=10)
        with ProcessPoolBackend(2) as pool:
            parallel = runner.run(40, seed=3, backend=pool, chunk_size=10)
        assert serial.makespans == parallel.makespans

    def test_worker_count_does_not_leak_into_chunking(self, estimator):
        # Same seed, different chunk size => different streams (documented);
        # same chunk size on any backend => same streams.
        a = estimator.estimate(60, seed=1, backend=SerialBackend(), chunk_size=15)
        b = estimator.estimate(60, seed=1, backend=SerialBackend(), chunk_size=30)
        assert a != b

    def test_flagless_estimate_matches_pool(self, estimator):
        # No backend, cache or engine: one seed still gives one answer.
        flagless = estimator.estimate(600, seed=9)
        with ProcessPoolBackend(2) as pool:
            pooled = estimator.estimate(600, seed=9, backend=pool)
        assert flagless == pooled

    def test_flagless_campaign_matches_pool(self, schedule):
        runner = CampaignRunner(
            {"optimal": schedule}, WeibullFailure.from_mtbf(80.0, shape=0.7),
            downtime=0.5,
        )
        flagless = runner.run(300, seed=3)
        with ProcessPoolBackend(2) as pool:
            pooled = runner.run(300, seed=3, backend=pool)
        assert flagless.makespans == pooled.makespans

    def test_flagless_experiment_matches_pool(self):
        flagless = run_experiment("E1", num_runs=500, seed=3)
        pooled = run_experiment("E1", num_runs=500, seed=3, backend=2)
        assert flagless.rows == pooled.rows


class TestCachedExecution:
    def test_warm_cache_replays_estimate_bit_for_bit(self, estimator, tmp_path):
        cache = ResultCache(tmp_path)
        cold = estimator.estimate(90, seed=4, cache=cache, chunk_size=30)
        warm = estimator.estimate(90, seed=4, cache=cache, chunk_size=30)
        assert cold == warm
        store = cache.with_namespace("monte_carlo")
        assert store.hits >= 0  # namespace views have their own counters
        # And the cached value matches a fresh chunked run without a cache.
        fresh = estimator.estimate(90, seed=4, backend=SerialBackend(), chunk_size=30)
        assert fresh == cold

    def test_cache_key_sensitive_to_parameters(self, schedule, tmp_path):
        cache = ResultCache(tmp_path)
        est_a = MonteCarloEstimator(schedule, 0.05, 0.5)
        est_b = MonteCarloEstimator(schedule, 0.07, 0.5)
        est_a.estimate(40, seed=4, cache=cache, chunk_size=20)
        est_b.estimate(40, seed=4, cache=cache, chunk_size=20)
        assert len(cache.with_namespace("monte_carlo")) == 2

    def test_cache_requires_seed(self, estimator, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            estimator.estimate(50, cache=ResultCache(tmp_path))

    def test_cache_rejects_factory_models(self, schedule, tmp_path):
        def factory(rng):
            return 0.05

        estimator = MonteCarloEstimator(
            schedule, failure_model_factory=factory, downtime=0.0
        )
        with pytest.raises(ValueError, match="factory"):
            estimator.estimate(50, seed=1, cache=ResultCache(tmp_path))

    def test_campaign_warm_cache_replays(self, schedule, tmp_path):
        runner = CampaignRunner(
            {"optimal": schedule}, ExponentialFailure(rate=0.02), downtime=0.5
        )
        cache = ResultCache(tmp_path)
        cold = runner.run(30, seed=8, cache=cache, chunk_size=10)
        warm = runner.run(30, seed=8, cache=cache, chunk_size=10)
        assert cold.makespans == warm.makespans


class TestScenarioSpec:
    @pytest.fixture
    def spec(self):
        return ScenarioSpec(
            name="demo",
            chain=ChainSpec(n=8, seed=42),
            failure=FailureSpec(kind="weibull", mtbf=80.0, shape=0.7),
            strategies=("optimal_dp", "checkpoint_all", "checkpoint_none"),
            num_runs=30,
            downtime=0.5,
            seed=9,
        )

    def test_json_roundtrip(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert json.loads(spec.to_json())["failure"]["kind"] == "weibull"

    def test_from_dict_without_strategies_uses_default(self):
        spec = ScenarioSpec.from_dict({
            "name": "minimal",
            "chain": {"n": 4, "seed": 1},
            "failure": {"kind": "exponential", "mtbf": 50.0},
        })
        assert spec.strategies == ScenarioSpec.__dataclass_fields__["strategies"].default

    def test_cache_key_excludes_name(self, spec):
        import dataclasses

        renamed = dataclasses.replace(spec, name="other")
        assert renamed.cache_key() == spec.cache_key()
        changed = dataclasses.replace(spec, num_runs=31)
        assert changed.cache_key() != spec.cache_key()

    def test_build_schedules_and_unknown_strategy(self, spec):
        schedules = spec.build_schedules()
        assert set(schedules) == set(spec.strategies)
        import dataclasses

        bad = dataclasses.replace(spec, strategies=("no_such_strategy",))
        with pytest.raises(KeyError, match="no_such_strategy"):
            bad.build_schedules()

    def test_run_is_backend_independent(self, spec):
        serial = spec.run(chunk_size=10)
        with ProcessPoolBackend(2) as pool:
            parallel = spec.run(backend=pool, chunk_size=10)
        assert {k: list(v) for k, v in serial.makespans.items()} == {
            k: list(v) for k, v in parallel.makespans.items()
        }

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seeds_must_be_non_negative_ints(self, spec, seed):
        import dataclasses

        error = ValueError if seed == -1 else TypeError
        with pytest.raises(error, match="seed"):
            dataclasses.replace(spec, seed=seed)
        with pytest.raises(error, match="seed"):
            ChainSpec(n=8, seed=seed)
        with pytest.raises(error, match="seed"):
            ScenarioSpec.from_dict(dict(spec.to_dict(), seed=seed))

    def test_failure_spec_validation(self):
        with pytest.raises(ValueError):
            FailureSpec(kind="weibull", mtbf=10.0)  # missing shape
        with pytest.raises(ValueError):
            FailureSpec(kind="gamma", mtbf=10.0)

    def test_expand_and_run_scenarios(self, spec):
        sweep = expand_scenarios(
            spec,
            failure=[
                FailureSpec(kind="exponential", mtbf=80.0),
                FailureSpec(kind="weibull", mtbf=80.0, shape=0.7),
            ],
            num_runs=[10],
        )
        assert [s.name for s in sweep] == ["demo[0]", "demo[1]"]
        results = run_scenarios(sweep, chunk_size=10)
        table = scenarios_table(results)
        assert len(table) == 2 * len(spec.strategies)
        assert set(table.column("scenario")) == {"demo[0]", "demo[1]"}

    def test_expand_rejects_unknown_axis(self, spec):
        with pytest.raises(ValueError, match="sweepable"):
            expand_scenarios(spec, not_a_field=[1, 2])


class TestSweepFanOut:
    def test_parameter_grid_order(self):
        grid = parameter_grid(rate=[0.1, 0.2], n=[1, 2])
        assert grid == [
            {"rate": 0.1, "n": 1},
            {"rate": 0.1, "n": 2},
            {"rate": 0.2, "n": 1},
            {"rate": 0.2, "n": 2},
        ]
        assert parameter_grid() == [{}]

    def test_parameter_grid_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            parameter_grid(rate=[])

    def test_parameter_grid_accepts_iterators(self):
        # Generators must be materialised once, not drained by validation.
        grid = parameter_grid(rate=iter([0.1, 0.2]), n=(k for k in (1, 2)))
        assert len(grid) == 4
        assert grid[0] == {"rate": 0.1, "n": 1}

    def test_map_sweep_serial_and_pool_agree(self):
        grid = parameter_grid(rate=[0.1, 0.2], n=[1, 2])
        serial = map_sweep(_combine, grid)
        with ProcessPoolBackend(2) as pool:
            parallel = map_sweep(_combine, grid, backend=pool)
        assert serial == parallel == ["0.1:1", "0.1:2", "0.2:1", "0.2:2"]


class TestExperimentsWithRuntime:
    def test_e6_parallel_and_cached_match_serial(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = run_experiment("E6", n=12, seed=3)
        parallel = run_experiment("E6", n=12, seed=3, backend=SerialBackend())
        cached_cold = run_experiment("E6", n=12, seed=3, cache=cache)
        cached_warm = run_experiment("E6", n=12, seed=3, cache=cache)
        assert parallel.rows == serial.rows
        assert cached_cold.rows == serial.rows
        assert cached_warm.rows == serial.rows

    def test_e1_runtime_path_still_validates_prop1(self, tmp_path):
        table = run_experiment(
            "E1", num_runs=2000, seed=3, backend=SerialBackend(), chunk_size=500,
            cache=ResultCache(tmp_path),
        )
        assert len(table) > 0
        assert all(row["rel_error"] < 0.1 for row in table.rows)

    def test_analytic_experiments_ignore_runtime_kwargs(self):
        # E2 has no backend parameter; the registry must not forward it.
        table = run_experiment("E2", backend=SerialBackend())
        assert len(table) > 0
