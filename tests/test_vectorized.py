"""Tests for the vectorized batch simulation engine.

The load-bearing guarantees, mirroring the contracts documented in
:mod:`repro.simulation.vectorized`:

* **exact equivalence** on the memoryless (Poisson) fast path: for the same
  seed and chunk plan, ``engine="scalar"`` and ``engine="vectorized"``
  produce bit-identical samples (they share one engine-neutral delay plan),
  and therefore identical estimates and cache entries;
* **statistical equivalence** on the renewal laws (Weibull, log-normal) and
  on trace-driven campaigns, pinned by two-sample Kolmogorov-Smirnov tests;
* **determinism**: the vectorized engine is bit-identical across backends
  and worker counts for a given seed, and a warm disk cache replays a
  vectorized run bit-for-bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.schedule import Schedule, Segment
from repro.failures.distributions import (
    ExponentialFailure,
    LogNormalFailure,
    WeibullFailure,
)
from repro.failures.platform import Platform
from repro.failures.traces import FailureEvent, FailureTrace, generate_trace
from repro.runtime import (
    ChainSpec,
    FailureSpec,
    ProcessPoolBackend,
    ResultCache,
    ScenarioSpec,
    resolve_backend,
    resolve_engine,
)
from repro.simulation.campaign import CampaignRunner
from repro.simulation.engine import TraceFailureSource
from repro.simulation.executor import simulate_segments
from repro.simulation.monte_carlo import MonteCarloEstimator, _estimate_chunk
from repro.simulation.vectorized import (
    PlannedExponentialDelays,
    PlannedPoissonSource,
    generate_trace_times_batch,
    replay_traces_batch,
    simulate_poisson_batch,
    simulate_poisson_batch_lockstep,
)
from repro.workflows.generators import uniform_random_chain


def ks_2sample_pvalue(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value (asymptotic), NumPy only.

    Standard Numerical-Recipes formulation: D is the supremum distance
    between the two empirical CDFs and the p-value comes from the
    Kolmogorov distribution with the usual small-sample correction.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, pooled, side="right") / n1
    cdf2 = np.searchsorted(b, pooled, side="right") / n2
    d = float(np.abs(cdf1 - cdf2).max())
    n_eff = math.sqrt(n1 * n2 / (n1 + n2))
    lam = (n_eff + 0.12 + 0.11 / n_eff) * d
    total = 0.0
    for k in range(1, 101):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return max(0.0, min(1.0, 2.0 * total))


@pytest.fixture
def schedule():
    chain = uniform_random_chain(8, seed=77)
    return Schedule.for_chain(chain, [2, 5, 7])


@pytest.fixture
def poisson_estimator(schedule):
    return MonteCarloEstimator(schedule, 0.05, 0.5)


class TestPoissonExactEquivalence:
    """Same seed, same chunk plan => bit-identical engines (memoryless models)."""

    def test_estimates_identical_for_rate_model(self, poisson_estimator):
        scalar = poisson_estimator.estimate(400, seed=9, engine="scalar", chunk_size=100)
        vectorized = poisson_estimator.estimate(
            400, seed=9, engine="vectorized", chunk_size=100
        )
        assert scalar == vectorized

    def test_estimates_identical_for_exponential_platform(self, schedule):
        platform = Platform(num_processors=4, failure_law=ExponentialFailure(rate=0.02))
        estimator = MonteCarloEstimator(schedule, platform, 0.5)
        scalar = estimator.estimate(300, seed=4, engine="scalar", chunk_size=150)
        vectorized = estimator.estimate(300, seed=4, engine="vectorized", chunk_size=150)
        assert scalar == vectorized

    def test_chunk_samples_identical(self, poisson_estimator):
        seed = np.random.SeedSequence(21)
        scalar = _estimate_chunk((poisson_estimator, seed, 200, "scalar", None))
        vectorized = _estimate_chunk(
            (poisson_estimator, seed, 200, "vectorized", None)
        )
        for s_arr, v_arr in zip(scalar, vectorized):
            np.testing.assert_array_equal(s_arr, v_arr)

    def test_batch_engine_matches_event_loop_on_shared_plan(self, schedule):
        rate, downtime, count = 0.08, 0.3, 64
        rng = np.random.default_rng(5)
        plan = PlannedExponentialDelays(
            rng, 1.0 / rate, count, first_rounds=len(schedule.segments()) + 4
        )
        batch = simulate_poisson_batch(
            schedule.segments(), rate, downtime, rng, count, plan=plan
        )
        for index in range(count):
            source = PlannedPoissonSource(plan, index)
            result = simulate_segments(schedule.segments(), source, downtime)
            assert result.makespan == batch.makespans[index]
            assert result.num_failures == batch.num_failures[index]
            assert result.wasted_time == batch.wasted_times[index]
            assert result.useful_time == batch.useful_times[index]
            assert result.num_recovery_attempts == batch.recovery_attempts[index]

    def test_engines_share_cache_entries_on_fast_path(self, poisson_estimator, tmp_path):
        cache = ResultCache(tmp_path)
        scalar = poisson_estimator.estimate(
            150, seed=8, engine="scalar", cache=cache, chunk_size=50
        )
        store = cache.with_namespace("monte_carlo")
        assert len(store) == 1
        vectorized = poisson_estimator.estimate(
            150, seed=8, engine="vectorized", cache=cache, chunk_size=50
        )
        # The vectorized request replayed the scalar-warmed entry: same key,
        # no second entry, identical numbers.
        assert len(store) == 1
        assert scalar == vectorized

    def test_vectorized_identical_across_worker_counts(self, poisson_estimator):
        serial = poisson_estimator.estimate(
            120, seed=6, engine="vectorized", chunk_size=30
        )
        with ProcessPoolBackend(2) as pool:
            pooled = poisson_estimator.estimate(
                120, seed=6, backend=pool, engine="vectorized", chunk_size=30
            )
        assert serial == pooled


def _checkpoint_all_segments(n: int, seed: int):
    """A length-``n`` checkpoint-all chain: one segment per task."""
    chain = uniform_random_chain(
        n, work_range=(2.0, 9.0), checkpoint_range=(0.3, 1.2),
        rng=np.random.default_rng(seed),
    )
    return Schedule.for_chain(chain, range(n)).segments()


def _batch_fields(batch):
    return (
        batch.makespans, batch.num_failures, batch.wasted_times,
        batch.useful_times, batch.recovery_attempts,
    )


class TestPoissonSegmentJumping:
    """The jump kernel: bit-identical to lock-step and the scalar event loop.

    ``simulate_poisson_batch`` now advances each replication by whole runs
    of successful segment attempts per round (seeded-``cumsum`` prefix sums
    over the shared delay plan) instead of one attempt per lock-step round;
    these tests pin the exactness contract across failure regimes, window
    splits, checkpoint-boundary ties, and the automatic lockstep fallback.
    """

    REGIMES = [
        # (chain length, rate, downtime, batch size) -- from rare-failure
        # long chains (the jump kernel's target) to dense-failure instances
        # (delegated to lock-step) and zero-downtime edge cases.
        (6, 0.02, 0.5, 40),
        (40, 0.004, 0.0, 32),
        (120, 0.002, 0.3, 24),
        (12, 0.35, 1.0, 16),
    ]

    @pytest.mark.parametrize("n,rate,downtime,count", REGIMES)
    def test_jump_matches_lockstep_and_scalar(self, n, rate, downtime, count):
        segments = _checkpoint_all_segments(n, seed=n)

        def plan():
            return PlannedExponentialDelays(
                np.random.default_rng(91), 1.0 / rate, count, first_rounds=n + 4
            )

        jump = simulate_poisson_batch(
            segments, rate, downtime, None, count, plan=plan(), method="jump"
        )
        lock = simulate_poisson_batch_lockstep(
            segments, rate, downtime, None, count, plan=plan()
        )
        auto = simulate_poisson_batch(segments, rate, downtime, None, count, plan=plan())
        for jump_arr, lock_arr, auto_arr in zip(
            _batch_fields(jump), _batch_fields(lock), _batch_fields(auto)
        ):
            np.testing.assert_array_equal(jump_arr, lock_arr)
            np.testing.assert_array_equal(jump_arr, auto_arr)
        shared = plan()
        for index in range(count):
            result = simulate_segments(
                segments, PlannedPoissonSource(shared, index), downtime
            )
            assert result.makespan == jump.makespans[index]
            assert result.num_failures == jump.num_failures[index]
            assert result.wasted_time == jump.wasted_times[index]
            assert result.useful_time == jump.useful_times[index]
            assert result.num_recovery_attempts == jump.recovery_attempts[index]

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_window_splits_are_bit_identical(self, window):
        # Splitting the jump windows splits the addition chain without
        # re-associating it, so every window cap gives the same bits.
        segments = _checkpoint_all_segments(25, seed=3)
        rate, downtime, count = 0.01, 0.4, 48

        def plan():
            return PlannedExponentialDelays(
                np.random.default_rng(17), 1.0 / rate, count, first_rounds=29
            )

        reference = simulate_poisson_batch(
            segments, rate, downtime, None, count, plan=plan(), method="jump"
        )
        capped = simulate_poisson_batch(
            segments, rate, downtime, None, count, plan=plan(), window=window
        )
        for ref_arr, cap_arr in zip(_batch_fields(reference), _batch_fields(capped)):
            np.testing.assert_array_equal(ref_arr, cap_arr)

    def test_auto_window_tracks_expected_failures(self):
        from repro.simulation.vectorized import _auto_window

        # Rare failures: the window covers the whole chain in one sweep.
        assert _auto_window(256, 0.0) == 257
        # Moderate failures (the ROADMAP regime note): about one
        # failure-to-failure run of segments.
        assert _auto_window(300, 0.5) == int(300 / 1.5 + 1.0)
        # More failures -> shorter windows, with a floor that keeps the jump
        # kernel from degenerating into lock-step rounds...
        assert _auto_window(16, 10.0) == 8
        # ...and a ceiling bounding the sliding-window views.
        assert _auto_window(10_000_000, 0.0) == 65536

    def test_method_is_validated(self):
        segments = _checkpoint_all_segments(3, seed=1)
        with pytest.raises(ValueError, match="unknown method"):
            simulate_poisson_batch(
                segments, 0.1, 0.0, np.random.default_rng(0), 4, method="warp"
            )

    def test_checkpoint_boundary_ties_are_successes_in_every_engine(self):
        # A delay exactly equal to work+checkpoint completes the segment (the
        # executor's `delay >= duration`), and a delay exactly equal to the
        # recovery cost completes the recovery.  Poke the shared plan so both
        # ties occur and check the engines agree bit-for-bit on them.
        segments = [
            Segment(tasks=("a",), work=3.0, checkpoint_cost=1.0,
                    recovery_cost=2.0, checkpointed=True),
            Segment(tasks=("b",), work=2.0, checkpoint_cost=0.5,
                    recovery_cost=1.5, checkpointed=True),
        ]
        count = 3

        def poked_plan():
            plan = PlannedExponentialDelays(
                np.random.default_rng(5), 10.0, count, first_rounds=8
            )
            rows = plan.rows(6)
            rows[:, :] = 100.0  # huge delays: attempts succeed by default
            rows[0, 0] = 4.0    # replication 0: tie on segment 0's attempt
            rows[0, 1] = 3.999  # replication 1: failure during segment 0...
            rows[1, 1] = 2.0    # ...then a tie on its recovery
            return plan

        jump = simulate_poisson_batch(
            segments, 0.1, 0.25, None, count, plan=poked_plan(), method="jump"
        )
        lock = simulate_poisson_batch_lockstep(
            segments, 0.1, 0.25, None, count, plan=poked_plan()
        )
        for jump_arr, lock_arr in zip(_batch_fields(jump), _batch_fields(lock)):
            np.testing.assert_array_equal(jump_arr, lock_arr)
        shared = poked_plan()
        for index in range(count):
            result = simulate_segments(
                segments, PlannedPoissonSource(shared, index), 0.25
            )
            assert result.makespan == jump.makespans[index]
            assert result.num_failures == jump.num_failures[index]
        # The tie semantics themselves: replication 0 committed the boundary
        # attempt (no failure), replication 1 failed once and its exact-cost
        # recovery committed on the first attempt.
        assert jump.num_failures[0] == 0
        assert jump.num_failures[1] == 1
        assert jump.recovery_attempts[1] == 1
        np.testing.assert_allclose(jump.makespans[0], 6.5)

    def test_bit_identity_across_chunk_plans_on_a_long_chain(self):
        schedule = Schedule.for_chain(
            uniform_random_chain(64, seed=13), range(64)
        )
        # Rare-failure long chain: the auto dispatch picks the jump kernel.
        estimator = MonteCarloEstimator(schedule, 0.001, 0.5)
        for chunk_size in (17, 64, 200):
            scalar = estimator.estimate(
                120, seed=29, engine="scalar", chunk_size=chunk_size
            )
            vectorized = estimator.estimate(
                120, seed=29, engine="vectorized", chunk_size=chunk_size
            )
            assert scalar == vectorized

    def test_exponential_platform_rejuvenation_flag_is_exact_and_irrelevant(
        self, schedule
    ):
        # An Exponential platform takes the memoryless fast path whatever its
        # rejuvenate_all_on_failure flag says: rejuvenating a memoryless
        # processor changes nothing, so both flag values and both engines
        # must produce the same samples for the same seed.
        law = ExponentialFailure(rate=0.02)
        flagged = Platform(
            num_processors=4, failure_law=law, rejuvenate_all_on_failure=True
        )
        plain = Platform(num_processors=4, failure_law=law)
        estimates = {
            (name, engine): MonteCarloEstimator(schedule, platform, 0.5).estimate(
                200, seed=31, engine=engine, chunk_size=50
            )
            for name, platform in (("flagged", flagged), ("plain", plain))
            for engine in ("scalar", "vectorized")
        }
        reference = estimates[("plain", "scalar")]
        for value in estimates.values():
            assert value == reference

    def test_plan_rows_matches_scalar_view_and_draw_schedule_is_partition_free(self):
        # The value behind entry (j, i) is a pure function of the rng state
        # and the column count: neither first_rounds nor the materialisation
        # order (bulk rows() vs incremental delay()) may change it.
        bulk = PlannedExponentialDelays(
            np.random.default_rng(23), 2.0, 5, first_rounds=3
        )
        incremental = PlannedExponentialDelays(
            np.random.default_rng(23), 2.0, 5, first_rounds=40
        )
        rows = bulk.rows(30)
        assert rows.shape[0] >= 30
        for round_index in (0, 7, 19, 29):
            for replication in range(5):
                assert rows[round_index, replication] == incremental.delay(
                    replication, round_index
                )
        assert bulk.rounds_drawn >= 30

    def test_jump_engine_renewal_path_still_agrees_by_ks(self, schedule):
        # The renewal batch path is untouched by the jump kernel, but the
        # Poisson fast path feeds the same estimator plumbing; a KS check
        # against the scalar engine on an Exponential law guards the
        # distributional contract end to end (different seeds on purpose).
        estimator = MonteCarloEstimator(schedule, 0.05, 0.5)
        scalar = estimator.estimate(400, seed=101, engine="scalar", chunk_size=100)
        vectorized = estimator.estimate(400, seed=202, engine="vectorized", chunk_size=100)
        assert abs(scalar.mean - vectorized.mean) <= 4 * math.hypot(scalar.sem, vectorized.sem)


class TestRenewalStatisticalEquivalence:
    """Weibull/log-normal renewal: engines agree in distribution, not bit-wise."""

    @pytest.mark.parametrize(
        "law",
        [
            WeibullFailure.from_mtbf(60.0, shape=0.7),
            LogNormalFailure.from_mtbf(60.0, sigma=1.0),
        ],
        ids=["weibull", "lognormal"],
    )
    def test_ks_agreement(self, schedule, law):
        platform = Platform(num_processors=2, failure_law=law)
        estimator = MonteCarloEstimator(schedule, platform, 0.5)
        scalar = _estimate_chunk(
            (estimator, np.random.SeedSequence(1), 1500, "scalar", None)
        )
        vectorized = _estimate_chunk(
            (estimator, np.random.SeedSequence(2), 1500, "vectorized", None)
        )
        assert ks_2sample_pvalue(scalar[0], vectorized[0]) > 0.01

    def test_vectorized_renewal_deterministic(self, schedule):
        platform = Platform(
            num_processors=2, failure_law=WeibullFailure.from_mtbf(60.0, shape=0.7)
        )
        estimator = MonteCarloEstimator(schedule, platform, 0.5)
        a = estimator.estimate(200, seed=5, engine="vectorized", chunk_size=100)
        b = estimator.estimate(200, seed=5, engine="vectorized", chunk_size=100)
        assert a == b

    def test_renewal_engines_get_distinct_cache_entries(self, schedule, tmp_path):
        platform = Platform(
            num_processors=1, failure_law=WeibullFailure.from_mtbf(60.0, shape=0.7)
        )
        estimator = MonteCarloEstimator(schedule, platform, 0.5)
        cache = ResultCache(tmp_path)
        estimator.estimate(80, seed=2, engine="scalar", cache=cache, chunk_size=40)
        estimator.estimate(80, seed=2, engine="vectorized", cache=cache, chunk_size=40)
        assert len(cache.with_namespace("monte_carlo")) == 2


class TestCampaignEngines:
    @pytest.fixture
    def runner(self):
        chain = uniform_random_chain(8, seed=42)
        schedules = {
            "optimal": Schedule.for_chain(chain, [3, 7]),
            "all": Schedule.for_chain(chain, range(chain.n)),
        }
        return CampaignRunner(
            schedules, WeibullFailure.from_mtbf(50.0, shape=0.7), downtime=0.5
        )

    def test_statistical_agreement_per_strategy(self, runner):
        scalar = runner.run(800, seed=3, engine="scalar", chunk_size=400)
        vectorized = runner.run(800, seed=4, engine="vectorized", chunk_size=400)
        for name in scalar.makespans:
            p = ks_2sample_pvalue(scalar.makespans[name], vectorized.makespans[name])
            assert p > 0.01, f"KS rejected engine agreement for {name!r} (p={p:.4f})"
        assert scalar.ranking() == vectorized.ranking()

    def test_vectorized_campaign_deterministic_across_backends(self, runner):
        serial = runner.run(60, seed=7, engine="vectorized", chunk_size=30)
        with ProcessPoolBackend(2) as pool:
            pooled = runner.run(
                60, seed=7, backend=pool, engine="vectorized", chunk_size=30
            )
        assert serial.makespans == pooled.makespans

    def test_vectorized_backend_with_cache_replays_bit_identically(
        self, runner, tmp_path
    ):
        cache = ResultCache(tmp_path)
        cold = runner.run(50, seed=9, cache=cache, engine="vectorized", chunk_size=25)
        warm = runner.run(50, seed=9, cache=cache, engine="vectorized", chunk_size=25)
        assert cold.makespans == warm.makespans
        # And the replay really came from disk: a fresh cacheless run matches.
        fresh = runner.run(50, seed=9, engine="vectorized", chunk_size=25)
        assert {k: list(v) for k, v in fresh.makespans.items()} == {
            k: list(v) for k, v in cold.makespans.items()
        }

    def test_campaign_engines_get_distinct_cache_entries(self, runner, tmp_path):
        cache = ResultCache(tmp_path)
        runner.run(40, seed=1, engine="scalar", cache=cache, chunk_size=20)
        runner.run(40, seed=1, engine="vectorized", cache=cache, chunk_size=20)
        assert len(cache.with_namespace("campaign")) == 2


class TestScenarioSpecEngine:
    @pytest.fixture
    def spec(self):
        return ScenarioSpec(
            name="vec-demo",
            chain=ChainSpec(n=6, seed=12),
            failure=FailureSpec(kind="weibull", mtbf=60.0, shape=0.7),
            strategies=("optimal_dp", "checkpoint_none"),
            num_runs=40,
            downtime=0.5,
            seed=3,
        )

    def test_engine_field_roundtrips(self, spec):
        vec = dataclasses.replace(spec, engine="vectorized")
        assert ScenarioSpec.from_json(vec.to_json()) == vec
        # Legacy payloads without the field still load (engine defaults None).
        payload = spec.to_dict()
        payload.pop("engine")
        assert ScenarioSpec.from_dict(payload) == spec

    def test_engine_validated(self, spec):
        with pytest.raises(ValueError, match="engine"):
            dataclasses.replace(spec, engine="gpu")

    def test_cache_key_distinguishes_engines_only_when_results_differ(self, spec):
        scalar = dataclasses.replace(spec, engine="scalar")
        vectorized = dataclasses.replace(spec, engine="vectorized")
        # None and "scalar" run the same executor: same key (legacy compat).
        assert spec.cache_key() == scalar.cache_key()
        # The vectorized engine draws its traces differently: its own key.
        assert vectorized.cache_key() != spec.cache_key()

    def test_vectorized_spec_runs_deterministically(self, spec):
        vec = dataclasses.replace(spec, engine="vectorized")
        a = vec.run(chunk_size=20)
        b = vec.run(chunk_size=20)
        assert {k: list(v) for k, v in a.makespans.items()} == {
            k: list(v) for k, v in b.makespans.items()
        }


class TestTraceReplayBatch:
    def _reference(self, segment_lists, times, downtime, horizon):
        reference = np.empty((len(segment_lists), times.shape[0]))
        for trace_index in range(times.shape[0]):
            finite = times[trace_index][np.isfinite(times[trace_index])]
            trace = FailureTrace(
                events=tuple(FailureEvent(time=float(t)) for t in finite),
                horizon=horizon,
                num_processors=1,
            )
            for strat_index, segments in enumerate(segment_lists):
                result = simulate_segments(
                    segments, TraceFailureSource(trace), downtime
                )
                reference[strat_index, trace_index] = result.makespan
        return reference

    @pytest.mark.parametrize("downtime", [0.0, 0.5])
    @pytest.mark.parametrize("num_processors", [1, 3])
    def test_replay_matches_scalar_executor(self, downtime, num_processors):
        chain = uniform_random_chain(10, seed=9)
        segment_lists = [
            Schedule.for_chain(chain, [4, 9]).segments(),
            Schedule.for_chain(chain, range(chain.n)).segments(),
            Schedule.for_chain(chain, [chain.n - 1]).segments(),
        ]
        law = WeibullFailure.from_mtbf(40.0, shape=0.7)
        horizon = 600.0
        times = generate_trace_times_batch(
            law, horizon, num_processors, np.random.default_rng(2), 80
        )
        batch = replay_traces_batch(segment_lists, times, downtime)
        reference = self._reference(segment_lists, times, downtime, horizon)
        # The prefix-sum jumps re-associate additions: agreement to rounding.
        np.testing.assert_allclose(batch, reference, rtol=1e-9)

    def test_generated_times_are_sorted_padded_and_plausible(self):
        law = ExponentialFailure(rate=0.05)
        horizon = 400.0
        times = generate_trace_times_batch(
            law, horizon, 2, np.random.default_rng(11), 300
        )
        finite_mask = np.isfinite(times)
        with np.errstate(invalid="ignore"):
            gaps = np.diff(times, axis=1)
        assert np.all(gaps[~np.isnan(gaps)] >= 0)  # inf-inf padding gaps are nan
        assert np.all(times[finite_mask] < horizon)
        # Every row keeps at least one +inf sentinel for replay cursors.
        assert np.all(~finite_mask[:, -1])
        # Expected event count: 2 processors at rate 0.05 over 400 time units.
        counts = finite_mask.sum(axis=1)
        assert abs(counts.mean() - 2 * 0.05 * horizon) < 3.0

    def test_generated_times_deterministic(self):
        law = WeibullFailure.from_mtbf(40.0, shape=0.7)
        a = generate_trace_times_batch(law, 200.0, 1, np.random.default_rng(3), 50)
        b = generate_trace_times_batch(law, 200.0, 1, np.random.default_rng(3), 50)
        np.testing.assert_array_equal(a, b)

    def test_event_exactly_at_completion_instant_is_skipped(self):
        # An event landing on the very instant an attempt completes must be
        # skipped, exactly as TraceFailureSource does at its next query --
        # probability zero under continuous laws, but reachable with explicit
        # integer-valued traces.
        from repro.core.schedule import Segment

        segments = [
            Segment(tasks=("a",), work=9.0, checkpoint_cost=1.0,
                    recovery_cost=1.0, checkpointed=True),
            Segment(tasks=("b",), work=5.0, checkpoint_cost=0.0,
                    recovery_cost=1.0, checkpointed=False),
        ]
        horizon = 100.0
        event_times = [10.0]  # == completion instant of the first segment
        times = np.array([event_times + [np.inf]])
        batch = replay_traces_batch([segments], times, 0.5)
        trace = FailureTrace(
            events=tuple(FailureEvent(time=t) for t in event_times),
            horizon=horizon,
        )
        scalar = simulate_segments(segments, TraceFailureSource(trace), 0.5)
        assert batch[0, 0] == scalar.makespan == 15.0


class TestEngineSpellings:
    """Engine and backend spellings: the engine comes only from ``engine=``."""

    def test_resolve_backend_vectorized(self):
        # The engine is chosen by engine=, never by the backend spec.
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("vectorized")

    def test_resolve_engine_spellings(self):
        assert resolve_engine(None) == "scalar"
        assert resolve_engine("Vectorized") == "vectorized"
        assert resolve_engine(" scalar ") == "scalar"
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("gpu")
        with pytest.raises(TypeError):
            resolve_engine(3)

    def test_estimate_rejects_unknown_engine(self, poisson_estimator):
        with pytest.raises(ValueError, match="unknown engine"):
            poisson_estimator.estimate(10, seed=0, engine="bogus")


class TestTraceModelDispatch:
    """Trace models reach the estimator only through a factory, which the
    vectorized engine cannot batch: it falls back to the scalar loop."""

    def test_factory_models_still_fall_back_to_scalar(self, schedule):
        law = WeibullFailure.from_mtbf(25.0, shape=0.7)

        def factory(rng):
            return generate_trace(law, horizon=600.0, rng=rng)

        estimator = MonteCarloEstimator(
            schedule, failure_model_factory=factory, downtime=0.5
        )
        assert estimator._vector_mode() == (None, None)
        scalar = estimator.estimate(60, seed=1, engine="scalar", chunk_size=30)
        vectorized = estimator.estimate(60, seed=1, engine="vectorized", chunk_size=30)
        assert scalar == vectorized  # both ran the scalar event loop


class TestRejuvenateAllPlatformField:
    """Platform.rejuvenate_all_on_failure reaches both engines."""

    @pytest.fixture
    def rejuvenating_platform(self):
        return Platform(
            num_processors=3,
            failure_law=WeibullFailure.from_mtbf(60.0, shape=0.7),
            rejuvenate_all_on_failure=True,
        )

    def test_engines_agree_with_rejuvenation(self, schedule, rejuvenating_platform):
        estimator = MonteCarloEstimator(schedule, rejuvenating_platform, 0.5)
        scalar = _estimate_chunk(
            (estimator, np.random.SeedSequence(1), 1500, "scalar", None)
        )
        vectorized = _estimate_chunk(
            (estimator, np.random.SeedSequence(2), 1500, "vectorized", None)
        )
        assert ks_2sample_pvalue(scalar[0], vectorized[0]) > 0.01

    def test_rejuvenation_changes_the_distribution(self, schedule):
        # Infant-mortality Weibull: rejuvenating every processor after each
        # failure exposes the platform to more infant mortality, so failures
        # must become more frequent -- the effect the paper criticises [12].
        law = WeibullFailure.from_mtbf(60.0, shape=0.5)
        base = Platform(num_processors=3, failure_law=law)
        rejuvenating = dataclasses.replace(base, rejuvenate_all_on_failure=True)
        keep = MonteCarloEstimator(schedule, base, 0.5).estimate(
            600, seed=3, engine="vectorized"
        )
        renew = MonteCarloEstimator(schedule, rejuvenating, 0.5).estimate(
            600, seed=3, engine="vectorized"
        )
        assert renew.mean_failures > keep.mean_failures

    def test_scalar_source_inherits_the_field(self, rejuvenating_platform):
        from repro.simulation.engine import RenewalPlatformFailureSource, failure_source_for

        source = failure_source_for(rejuvenating_platform, np.random.default_rng(0))
        assert isinstance(source, RenewalPlatformFailureSource)
        # After a failure every processor restarts its clock from the failure
        # time; with the field off only the failed one does.
        keeping = RenewalPlatformFailureSource(
            dataclasses.replace(rejuvenating_platform, rejuvenate_all_on_failure=False),
            np.random.default_rng(0),
        )
        first = source.time_to_next_failure(0.0)
        assert keeping.time_to_next_failure(0.0) == first
        survivors = set(sorted(source._next_failures)[1:])
        source.register_failure(first)
        keeping.register_failure(first)
        assert survivors <= set(keeping._next_failures)
        assert not survivors & set(source._next_failures)

    def test_platform_failure_times_inherits_the_field(self, rejuvenating_platform):
        keeping = dataclasses.replace(
            rejuvenating_platform, rejuvenate_all_on_failure=False
        )
        rejuvenated = rejuvenating_platform.platform_failure_times(
            np.random.default_rng(7), 500.0
        )
        kept = keeping.platform_failure_times(np.random.default_rng(7), 500.0)
        # Same initial draws, so the first failure agrees; renewing every
        # processor after it changes the rest of the sequence.
        assert rejuvenated[0] == kept[0]
        assert rejuvenated != kept

    def test_field_is_validated_and_defaults_off(self):
        assert Platform().rejuvenate_all_on_failure is False
        with pytest.raises(TypeError, match="rejuvenate_all_on_failure"):
            Platform(rejuvenate_all_on_failure=1)
