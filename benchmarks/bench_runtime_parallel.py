"""Runtime -- scalar vs vectorized vs process-pool execution of a Weibull campaign.

Measures the wall-clock effect of the two orthogonal runtime levers
(:mod:`repro.runtime` backends and the :mod:`repro.simulation.vectorized`
batch engine) on the kind of workload they were built for: a paired
simulation campaign under Weibull failures (no closed form exists, so every
data point is earned by replication).  The benchmark

* times the same 600-round campaign on the scalar serial backend, on a
  process pool sized to the machine, and on the vectorized engine (single
  core),
* times the scalar engine against the per-run event loop it replaced
  (``generate_trace`` + ``simulate_segments`` per round and strategy) in
  interleaved pairs, asserting bit-identical samples and a median speedup
  of at least 3x,
* times the vectorized engine against the scalar engine, both in 50-run
  chunks, in interleaved pairs: the vectorized campaign replays
  consecutive chunks in one kernel call, so it must stay at least 1.25x
  faster (median) and bit-identical to replaying one chunk at a time,
* asserts that scalar results are bit-identical across worker counts and
  that vectorized results are bit-identical across backends (the runtime's
  core guarantee: placement changes wall-clock time, never numbers),
* asserts the two engines agree statistically (same strategy ranking, means
  within a few percent) -- they cannot agree bit-wise on a trace-driven
  campaign because the vectorized engine batches its trace draws,
* demonstrates the *exact* engine contract where it holds: on a Poisson
  (memoryless) Monte-Carlo estimate the scalar and vectorized engines are
  bit-identical for the same seed,
* measures the segment-jumping Poisson kernel against the PR 2 lock-step
  kernel on its target regime (a long checkpoint-all chain with rare
  failures), asserting the two are bit-identical while the jump kernel is
  the faster array program, and
* asserts a warm disk cache replays the campaign without simulating.

Every one of these checks raises an ``AssertionError`` naming its row, so a
script-mode run (``--quick`` in CI) exits non-zero on any mismatch.  The
vectorized pool row also guards the replay tables that a vectorized
campaign pickles into its chunk tasks.

Pool speedup is hardware-dependent (approaches Nx on N cores, hovers around
1x on the single-core containers this repo is often benchmarked in); the
vectorized speedup is per-core: about 2x the scalar engine on the
600-round campaign, whose block-drawn traces and plain-float replay run
about 7x faster than the per-run event loop.  Run as a script to print the
measured timings::

    PYTHONPATH=src python benchmarks/bench_runtime_parallel.py
    PYTHONPATH=src python benchmarks/bench_runtime_parallel.py --quick --json out.json
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time

import numpy as np
import pytest
from harness import paired_trials

from repro.core.schedule import Schedule
from repro.experiments.reporting import ResultTable
from repro.failures.traces import generate_trace
from repro.runtime import (
    ChainSpec,
    FailureSpec,
    ProcessPoolBackend,
    ResultCache,
    ScenarioSpec,
    SerialBackend,
)
from repro.runtime.chunking import plan_chunks
from repro.simulation.engine import TraceFailureSource
from repro.simulation.executor import simulate_segments
from repro.simulation.monte_carlo import MonteCarloEstimator
from repro.simulation.vectorized import (
    PlannedExponentialDelays,
    generate_trace_times_batch,
    replay_traces_batch,
    simulate_poisson_batch,
    simulate_poisson_batch_lockstep,
)

#: The campaign under test: a 30-task chain under platform Weibull failures
#: with infant mortality (shape < 1, as reported by the field studies the
#: paper cites), three strategies per shared trace.
SCENARIO = ScenarioSpec(
    name="bench-weibull-campaign",
    chain=ChainSpec(n=30, work_range=(5.0, 15.0), checkpoint_range=(1.0, 2.0), seed=5),
    failure=FailureSpec(kind="weibull", mtbf=150.0, shape=0.7),
    strategies=("optimal_dp", "checkpoint_all", "checkpoint_none"),
    num_runs=600,
    downtime=0.5,
    seed=11,
)

CHUNK_SIZE = 50


def _best_of(repeats, fn):
    best_seconds = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return result, best_seconds


def _check(row: str, ok: bool, label: str) -> str:
    """The check cell of ``row``: ``label`` if ``ok``, else an AssertionError naming the row."""
    if not ok:
        raise AssertionError(f"{row}: {label!r} check failed")
    return label


def per_run_event_loop(runner, num_runs: int, seed: int, chunk_size: int):
    """The scalar campaign as one event loop per round and strategy.

    Built from public functions only: per chunk, ``generate_trace`` draws one
    trace at a time and ``simulate_segments`` replays each strategy through a
    ``TraceFailureSource``.  ``CampaignRunner.run(engine=None)`` must return
    these samples bit for bit.
    """
    schedules = runner.schedules
    segments = {name: schedule.segments() for name, schedule in schedules.items()}
    horizon = runner.horizon_factor * max(s.failure_free_time() for s in schedules.values())
    plan = plan_chunks(num_runs, chunk_size)
    makespans = {name: [] for name in segments}
    for chunk_seed, size in zip(plan.seeds(seed), plan.sizes):
        rng = np.random.default_rng(chunk_seed)
        for _ in range(size):
            trace = generate_trace(runner.failure_law, horizon,
                                   num_processors=runner.num_processors, rng=rng)
            for name, segs in segments.items():
                result = simulate_segments(segs, TraceFailureSource(trace),
                                           runner.downtime, rng=rng)
                makespans[name].append(result.makespan)
    return makespans


def chunk_at_a_time_replay(runner, num_runs: int, seed: int, chunk_size: int):
    """The vectorized campaign as one replay call per chunk.

    Built from public functions only: per chunk, ``generate_trace_times_batch``
    draws the chunk's traces from its own seed and ``replay_traces_batch``
    replays every strategy against them.
    ``CampaignRunner.run(engine="vectorized")`` must return these samples
    bit for bit, however it groups chunks into tasks.
    """
    names = list(runner.schedules)
    segment_lists = [runner.schedules[name].segments() for name in names]
    horizon = runner.horizon_factor * max(
        s.failure_free_time() for s in runner.schedules.values())
    plan = plan_chunks(num_runs, chunk_size)
    makespans = {name: [] for name in names}
    for chunk_seed, size in zip(plan.seeds(seed), plan.sizes):
        times = generate_trace_times_batch(runner.failure_law, horizon,
                                           runner.num_processors,
                                           np.random.default_rng(chunk_seed), size)
        stacked = replay_traces_batch(segment_lists, times, runner.downtime)
        for row, name in enumerate(names):
            makespans[name].extend(stacked[row].tolist())
    return makespans


def measure(num_runs: int = 600, num_workers: int | None = None,
            repeats: int = 3) -> ResultTable:
    """Time the campaign per engine/backend and cross-check the guarantees.

    The campaign runner is built once (its DP solves are shared setup, not
    simulation) and each row times :meth:`CampaignRunner.run` -- best of
    ``repeats`` so one-off scheduler noise does not pollute the comparison.
    """
    if num_workers is None:
        num_workers = os.cpu_count() or 1
    spec = dataclasses.replace(SCENARIO, num_runs=num_runs)
    runner = spec.runner()
    table = ResultTable(
        title=f"Runtime benchmark: Weibull campaign, {num_runs} paired rounds",
        columns=["mode", "seconds", "speedup_vs_scalar_serial", "check"],
    )

    # Single-core rows first, before any process pool exists: worker start-up
    # and teardown would otherwise steal the core from what is being timed.
    serial_result, serial_seconds = _best_of(
        repeats,
        lambda: runner.run(num_runs, seed=spec.seed, backend=SerialBackend(),
                           chunk_size=CHUNK_SIZE),
    )
    table.add_row(mode="scalar serial", seconds=serial_seconds,
                  speedup_vs_scalar_serial=1.0, check="baseline")

    # The scalar engine against the per-run event loop it replaced, on the
    # full SCENARIO whatever --quick says, so CI gates the same measurement
    # as a full run; the samples must be bit-identical.
    loop_runs = SCENARIO.num_runs
    loop_trials = max(repeats, 3)
    loop_timing = paired_trials(
        "scalar campaign chunk vs per-run event loop",
        lambda: per_run_event_loop(runner, loop_runs, SCENARIO.seed, CHUNK_SIZE),
        lambda: runner.run(loop_runs, seed=SCENARIO.seed, chunk_size=CHUNK_SIZE),
        lambda reference, fast: reference == dict(fast.makespans),
        trials=loop_trials,
    )
    if loop_timing.ratio < 3.0:
        raise AssertionError(
            f"scalar campaign chunk median speedup {loop_timing.ratio:.2f}x over "
            f"{loop_trials} paired trials is below the 3.0x gate"
        )
    table.add_row(
        mode=f"per-run event loop ({loop_runs} rounds)",
        seconds=loop_timing.reference_seconds, speedup_vs_scalar_serial=None,
        check="generate_trace + simulate_segments per round",
    )
    table.add_row(
        mode=f"scalar campaign chunk ({loop_runs} rounds)",
        seconds=loop_timing.fast_seconds,
        speedup_vs_scalar_serial=loop_timing.ratio,
        check="bit-identical to the per-run loop",
    )

    # Both engines in small chunks, on the full SCENARIO like the row
    # above.  Replayed one chunk at a time, the vectorized engine paid a
    # tail of nearly empty lock-step rounds per chunk and was slower than
    # the scalar engine here (0.6-0.8x); its tasks replay up to 2,000 runs
    # of consecutive chunks in one kernel call.
    small_expected = chunk_at_a_time_replay(runner, loop_runs, SCENARIO.seed, CHUNK_SIZE)
    small_timing = paired_trials(
        f"vectorized vs scalar engine in {CHUNK_SIZE}-run chunks",
        lambda: runner.run(loop_runs, seed=SCENARIO.seed, chunk_size=CHUNK_SIZE),
        lambda: runner.run(loop_runs, seed=SCENARIO.seed, chunk_size=CHUNK_SIZE,
                           engine="vectorized"),
        lambda _, fast: dict(fast.makespans) == small_expected,
        trials=loop_trials,
    )
    if small_timing.ratio < 1.25:
        raise AssertionError(
            f"vectorized engine in {CHUNK_SIZE}-run chunks: median speedup "
            f"{small_timing.ratio:.2f}x over the scalar engine in "
            f"{loop_trials} paired trials is below the 1.25x gate"
        )
    table.add_row(
        mode=f"vectorized, {CHUNK_SIZE}-run chunks ({loop_runs} rounds)",
        seconds=small_timing.fast_seconds,
        speedup_vs_scalar_serial=small_timing.ratio,
        check="bit-identical to chunk-at-a-time replay",
    )

    # Vectorized engine, single core: one chunk = the whole batch.
    runner.run(num_runs, seed=spec.seed, engine="vectorized",
               chunk_size=num_runs)  # warm-up (NumPy dispatch caches)
    vec_result, vec_seconds = _best_of(
        repeats,
        lambda: runner.run(num_runs, seed=spec.seed, engine="vectorized",
                           chunk_size=num_runs),
    )
    # The engines draw their traces differently, so agreement is
    # statistical: per-strategy means within 4 combined standard errors (a
    # fixed-percentage tolerance false-alarms at --quick sample sizes).
    close_means = all(
        abs(vec_result.mean(name) - serial_result.mean(name))
        <= 4.0 * (
            (vec_result.std(name) ** 2 / vec_result.num_runs)
            + (serial_result.std(name) ** 2 / serial_result.num_runs)
        ) ** 0.5 + 1e-12
        for name in serial_result.makespans
    )
    table.add_row(
        mode="vectorized serial",
        seconds=vec_seconds,
        speedup_vs_scalar_serial=serial_seconds / vec_seconds,
        check=_check("vectorized serial", close_means, "statistically equivalent"),
    )

    with ProcessPoolBackend(num_workers) as pool:
        pool_result, pool_seconds = _best_of(
            1,
            lambda: runner.run(num_runs, seed=spec.seed, backend=pool,
                               chunk_size=CHUNK_SIZE),
        )
    table.add_row(
        mode=f"scalar pool({num_workers})",
        seconds=pool_seconds,
        speedup_vs_scalar_serial=serial_seconds / pool_seconds,
        check=_check(
            f"scalar pool({num_workers})",
            dict(pool_result.makespans) == dict(serial_result.makespans),
            "bit-identical to serial",
        ),
    )

    with ProcessPoolBackend(2) as vec_pool:
        vec_pool_result, vec_pool_seconds = _best_of(
            1,
            lambda: runner.run(num_runs, seed=spec.seed, backend=vec_pool,
                               engine="vectorized",
                               chunk_size=max(num_runs // 2, 1)),
        )
    vec_half = runner.run(num_runs, seed=spec.seed, engine="vectorized",
                          chunk_size=max(num_runs // 2, 1))
    table.add_row(
        mode="vectorized pool(2)",
        seconds=vec_pool_seconds,
        speedup_vs_scalar_serial=serial_seconds / vec_pool_seconds,
        check=_check(
            "vectorized pool(2)",
            dict(vec_pool_result.makespans) == dict(vec_half.makespans),
            "bit-identical across backends",
        ),
    )

    # Warm disk cache: replays the campaign without simulating at all.
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        runner.run(num_runs, seed=spec.seed, engine="vectorized",
                   chunk_size=num_runs, cache=cache)
        warm_result, warm_seconds = _best_of(
            1,
            lambda: runner.run(num_runs, seed=spec.seed, engine="vectorized",
                               chunk_size=num_runs, cache=cache),
        )
    table.add_row(
        mode="warm cache (vectorized)",
        seconds=warm_seconds,
        speedup_vs_scalar_serial=serial_seconds / warm_seconds,
        check=_check(
            "warm cache (vectorized)",
            dict(warm_result.makespans) == dict(vec_result.makespans),
            "bit-identical replay",
        ),
    )

    # Where exact equivalence holds: Poisson (memoryless) Monte-Carlo
    # estimation is bit-identical across engines for the same seed.
    chain = spec.chain.build()
    from repro.baselines.strategies import evaluate_chain_strategies

    schedule = evaluate_chain_strategies(
        chain, spec.downtime, spec.failure.rate_equivalent
    )["optimal_dp"].to_schedule()
    estimator = MonteCarloEstimator(
        schedule, spec.failure.rate_equivalent, spec.downtime
    )
    mc_runs = max(num_runs * 4, 1000)
    scalar_mc, scalar_mc_seconds = _best_of(
        1, lambda: estimator.estimate(mc_runs, seed=7, engine="scalar")
    )
    vec_mc, vec_mc_seconds = _best_of(
        1, lambda: estimator.estimate(mc_runs, seed=7, engine="vectorized")
    )
    table.add_row(
        mode=f"poisson MC scalar ({mc_runs} runs)", seconds=scalar_mc_seconds,
        speedup_vs_scalar_serial=None, check="baseline",
    )
    table.add_row(
        mode=f"poisson MC vectorized ({mc_runs} runs)", seconds=vec_mc_seconds,
        speedup_vs_scalar_serial=scalar_mc_seconds / vec_mc_seconds,
        check=_check(f"poisson MC vectorized ({mc_runs} runs)", vec_mc == scalar_mc,
                     "bit-identical to scalar"),
    )

    # Segment jumping on its target regime (the PR 4 tentpole): a long
    # checkpoint-all chain under rare failures, where the lock-step kernel
    # burns one NumPy round per *attempt* while the jump kernel needs a
    # handful of rounds per *failure*.  Both consume the same delay plan, so
    # the comparison is apples-to-apples and must stay bit-identical.
    jump_count = max(num_runs * 2, 250)
    long_chain = ChainSpec(
        n=256, work_range=(5.0, 15.0), checkpoint_range=(1.0, 2.0), seed=7
    ).build()
    long_segments = Schedule.for_chain(long_chain, range(long_chain.n)).segments()
    # MTBF 8000 on a ~2950-long chain: ~0.4 failures per replication, the
    # classic validated-checkpointing regime the jump kernel targets (the
    # auto dispatch delegates denser-failure batches to lock-step, where
    # jumping cannot win).
    jump_rate = 1.0 / 8000.0

    def _poisson_kernel(kernel):
        plan = PlannedExponentialDelays(
            np.random.default_rng(3), 1.0 / jump_rate, jump_count,
            first_rounds=len(long_segments) + 4,
        )
        return kernel(
            long_segments, jump_rate, 1.0, None, jump_count, plan=plan
        )

    lock_kernel, lock_seconds = _best_of(
        repeats, lambda: _poisson_kernel(simulate_poisson_batch_lockstep)
    )
    jump_kernel, jump_seconds = _best_of(
        repeats, lambda: _poisson_kernel(simulate_poisson_batch)
    )
    kernels_identical = all(
        bool(np.array_equal(a, b))
        for a, b in (
            (jump_kernel.makespans, lock_kernel.makespans),
            (jump_kernel.num_failures, lock_kernel.num_failures),
            (jump_kernel.wasted_times, lock_kernel.wasted_times),
            (jump_kernel.recovery_attempts, lock_kernel.recovery_attempts),
        )
    )
    label = f"{jump_count} reps x {len(long_segments)} segs"
    table.add_row(
        mode=f"poisson long-chain lock-step kernel ({label})",
        seconds=lock_seconds, speedup_vs_scalar_serial=None,
        check="PR 2 baseline",
    )
    table.add_row(
        mode=f"poisson long-chain jump kernel ({label})",
        seconds=jump_seconds,
        speedup_vs_scalar_serial=lock_seconds / jump_seconds,
        check=_check(f"poisson long-chain jump kernel ({label})", kernels_identical,
                     "bit-identical to lock-step"),
    )

    # Moderate failures (PR 10 tentpole): ~1.5 failures per replication on a
    # 2048-segment chain.  The pre-fusion veteran loop fell back to per-lane
    # rounds as soon as any lane was recovering, so this regime ran at
    # lock-step speed; the fused round resolves recoveries in a pre-pass and
    # lets every healthy lane jump through one shared threshold gather.  The
    # shape is fixed (independent of --quick) so CI gates the same
    # measurement as a full run, and the kernels must stay bit-identical.
    mod_count = 240
    mod_chain = ChainSpec(
        n=2048, work_range=(5.0, 15.0), checkpoint_range=(1.0, 2.0), seed=7
    ).build()
    mod_segments = Schedule.for_chain(mod_chain, range(mod_chain.n)).segments()
    mod_length = sum(s.work + s.checkpoint_cost for s in mod_segments)
    mod_rate = 1.5 / mod_length

    def _moderate_kernel(kernel):
        plan = PlannedExponentialDelays(
            np.random.default_rng(3), 1.0 / mod_rate, mod_count,
            first_rounds=len(mod_segments) + 4,
        )
        return kernel(
            mod_segments, mod_rate, 1.0, None, mod_count, plan=plan
        )

    # At least 3 interleaved pairs, gated on the median ratio, keep the
    # asserted gate out of scheduler-noise range.
    def _bit_identical(lock, jump):
        return all(
            bool(np.array_equal(getattr(jump, field), getattr(lock, field)))
            for field in ("makespans", "num_failures", "wasted_times", "recovery_attempts")
        )

    mod_trials = max(repeats, 3)
    mod_timing = paired_trials(
        "fused moderate-failure kernel vs lock-step",
        lambda: _moderate_kernel(simulate_poisson_batch_lockstep),
        lambda: _moderate_kernel(simulate_poisson_batch),
        _bit_identical,
        trials=mod_trials,
    )
    if mod_timing.ratio < 2.0:
        raise AssertionError(
            f"fused moderate-failure kernel median speedup {mod_timing.ratio:.2f}x "
            f"over {mod_trials} paired trials is below the 2.0x gate"
        )
    mod_label = f"{mod_count} reps x {len(mod_segments)} segs, ~1.5 fails/rep"
    table.add_row(
        mode=f"poisson moderate-failure lock-step kernel ({mod_label})",
        seconds=mod_timing.reference_seconds, speedup_vs_scalar_serial=None,
        check="pre-fusion behaviour of this regime",
    )
    table.add_row(
        mode=f"poisson moderate-failure fused jump kernel ({mod_label})",
        seconds=mod_timing.fast_seconds,
        speedup_vs_scalar_serial=mod_timing.ratio,
        check="bit-identical to lock-step",
    )

    # The same regime end to end: estimate() with the scalar event loop vs
    # the vectorized engine (which auto-selects the jump kernel here).
    long_estimator = MonteCarloEstimator(long_segments, jump_rate, 1.0)
    scalar_long, scalar_long_seconds = _best_of(
        1, lambda: long_estimator.estimate(jump_count, seed=7, engine="scalar")
    )
    vec_long, vec_long_seconds = _best_of(
        1, lambda: long_estimator.estimate(jump_count, seed=7, engine="vectorized")
    )
    table.add_row(
        mode=f"poisson long-chain MC scalar ({jump_count} runs)",
        seconds=scalar_long_seconds, speedup_vs_scalar_serial=None,
        check="baseline",
    )
    table.add_row(
        mode=f"poisson long-chain MC vectorized ({jump_count} runs)",
        seconds=vec_long_seconds,
        speedup_vs_scalar_serial=scalar_long_seconds / vec_long_seconds,
        check=_check(f"poisson long-chain MC vectorized ({jump_count} runs)",
                     vec_long == scalar_long, "bit-identical to scalar"),
    )
    return table


@pytest.mark.experiment("runtime")
def test_runtime_parallel_weibull_campaign(benchmark, print_table, tmp_path):
    spec = SCENARIO
    runner = spec.runner()
    serial_result, serial_seconds = _best_of(
        1,
        lambda: runner.run(spec.num_runs, seed=spec.seed, backend=SerialBackend(),
                           chunk_size=CHUNK_SIZE),
    )

    num_workers = os.cpu_count() or 1
    with ProcessPoolBackend(num_workers) as pool:
        pool_result = benchmark(
            lambda: runner.run(spec.num_runs, seed=spec.seed, backend=pool,
                               chunk_size=CHUNK_SIZE)
        )

    # The guarantee that makes the parallel runtime safe to use everywhere:
    # same seed => same samples, whatever executes them.
    assert dict(pool_result.makespans) == dict(serial_result.makespans)

    # The vectorized engine is deterministic for a given (seed, chunk plan),
    # bit-identical across backends, and statistically agrees with scalar.
    vec_a = runner.run(spec.num_runs, seed=spec.seed, engine="vectorized",
                       chunk_size=spec.num_runs)
    with ProcessPoolBackend(2) as vec_pool:
        vec_b = runner.run(spec.num_runs, seed=spec.seed, backend=vec_pool,
                           engine="vectorized", chunk_size=spec.num_runs)
    assert dict(vec_a.makespans) == dict(vec_b.makespans)
    assert vec_a.ranking() == serial_result.ranking()

    # A warm cache replays the campaign bit-for-bit without simulating, and
    # the replay is much faster than the simulation it replaces.
    cache = ResultCache(tmp_path)
    cold_result, cold_seconds = _best_of(
        1,
        lambda: runner.run(spec.num_runs, seed=spec.seed, backend=SerialBackend(),
                           chunk_size=CHUNK_SIZE, cache=cache),
    )
    warm_result, warm_seconds = _best_of(
        1,
        lambda: runner.run(spec.num_runs, seed=spec.seed, backend=SerialBackend(),
                           chunk_size=CHUNK_SIZE, cache=cache),
    )
    assert dict(warm_result.makespans) == dict(cold_result.makespans)
    assert dict(warm_result.makespans) == dict(serial_result.makespans)
    assert warm_seconds < cold_seconds

    table = ResultTable(
        title="Runtime benchmark summary",
        columns=["mode", "seconds"],
    )
    table.add_row(mode="serial", seconds=serial_seconds)
    table.add_row(mode="cold cache (serial)", seconds=cold_seconds)
    table.add_row(mode="warm cache", seconds=warm_seconds)
    print_table(table)

    # The paired campaign itself must still make sense.
    assert serial_result.ranking()[0] == "optimal_dp"


#: Parameter sets for script mode (the CI smoke job runs ``--quick``).
FULL_PARAMS = {"num_runs": 600, "repeats": 5}
QUICK_PARAMS = {"num_runs": 120, "repeats": 1}

if __name__ == "__main__":  # pragma: no cover - manual timing entry point
    from harness import run_cli

    raise SystemExit(run_cli(
        "bench_runtime_parallel", measure,
        quick_params=QUICK_PARAMS, full_params=FULL_PARAMS,
    ))
