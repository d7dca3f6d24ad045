"""The reproduction's experiment suite (E1-E10).

The paper has no numerical evaluation section, so these experiments validate
every proposition and every discussed extension (see DESIGN.md section 7 for
the mapping).  Each experiment is a function taking only keyword parameters
(with fast defaults) and returning a
:class:`~repro.experiments.reporting.ResultTable`.  The ``benchmarks/``
directory wraps each one with pytest-benchmark; running this module as a
script prints every table::

    python -m repro.experiments.registry           # all experiments
    python -m repro.experiments.registry E1 E3     # a subset
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.analysis.bruteforce import brute_force_chain_checkpoints
from repro.analysis.reduction import (
    generate_no_instance,
    generate_yes_instance,
    schedule_to_three_partition,
    solve_three_partition,
    three_partition_to_schedule,
)
from repro.baselines.periodic import (
    divisible_expected_makespan,
    optimal_periodic_policy,
)
from repro.baselines.strategies import evaluate_chain_strategies
from repro.baselines.work_maximization import work_maximization_chain
from repro.core.chain_dp import optimal_chain_checkpoints
from repro.core.expected_time import (
    ANALYTIC_NUMERICS,
    bouguerra_expected_time,
    daly_higher_order_period,
    expected_completion_time,
    young_period,
)
from repro.core.independent import (
    exhaustive_independent_schedule,
    grouping_expected_time,
    schedule_independent_tasks,
)
from repro.core.dag_scheduling import exhaustive_dag_schedule, schedule_dag
from repro.core.moldable import MoldableScheduler, MoldableTask
from repro.core.schedule import Schedule
from repro.experiments.reporting import ResultTable
from repro.experiments.sweep import geometric_sweep
from repro.failures.distributions import (
    ExponentialFailure,
    LogNormalFailure,
    WeibullFailure,
)
from repro.failures.platform import Platform
from repro.models.checkpoint import (
    ConstantCheckpointCost,
    FrontierCheckpointCost,
    ProportionalCheckpointCost,
)
from repro.models.workload import (
    AmdahlWorkload,
    NumericalKernelWorkload,
    PerfectlyParallelWorkload,
)
from repro.runtime.backends import ExecutionBackend, backend_scope
from repro.runtime.cache import ResultCache
from repro.runtime.chunking import plan_chunks
from repro.simulation.monte_carlo import MonteCarloEstimator, estimate_expected_completion_time
from repro.workflows.generators import fork_join, montage_like, uniform_random_chain

__all__ = [
    "EXPERIMENTS",
    "experiment_descriptions",
    "run_experiment",
    "run_all_experiments",
]

#: Keyword arguments of the parallel-runtime plumbing; ``run_experiment``
#: forwards them only to experiments whose signature declares them, so the
#: purely analytic experiments stay oblivious to backends, caches,
#: execution engines and progress reporting.
_RUNTIME_KWARGS = ("backend", "cache", "chunk_size", "engine", "progress")


def _spawn_int_seeds(seed: Optional[int], count: int) -> List[int]:
    """Derive ``count`` independent integer seeds from a root seed.

    The chunked execution paths key their caches on integer seeds, so the
    experiments hand each sub-estimate a deterministic child seed instead of
    sharing one live generator (which could not be split across workers).
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def _offset_progress(
    progress: Optional[Callable[[int, int], None]], offset: int, grand_total: int
) -> Optional[Callable[[int, int], None]]:
    """Rebase one sub-estimate's ``(done, total)`` onto experiment-wide counts.

    The Monte-Carlo-heavy experiments run several estimates in sequence;
    each estimate reports its own chunk progress, and this wrapper shifts it
    by the chunks of the estimates already completed so the caller sees one
    monotone ``(done, grand_total)`` stream for the whole experiment (the
    granularity the scenario service's job progress is built on).
    """
    if progress is None:
        return None

    def hook(done: int, total: int) -> None:
        progress(offset + done, grand_total)

    return hook


# ----------------------------------------------------------------------
# E1 -- Proposition 1 closed form vs Monte-Carlo simulation
# ----------------------------------------------------------------------


def experiment_e1_prop1_validation(
    *, num_runs: int = 20_000, seed: int = 1,
    backend: Union[None, int, str, ExecutionBackend] = None,
    cache: Optional[ResultCache] = None,
    chunk_size: Optional[int] = None,
    engine: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ResultTable:
    """Validate the Proposition 1 closed form against simulation (E1)."""
    table = ResultTable(
        title="E1: Proposition 1 closed form vs Monte-Carlo estimate",
        columns=[
            "work", "checkpoint", "downtime", "recovery", "rate",
            "analytic", "simulated", "rel_error", "within_ci95",
        ],
    )
    scenarios = [
        (10.0, 1.0, 0.0, 1.0, 0.01),
        (10.0, 1.0, 0.5, 2.0, 0.05),
        (100.0, 5.0, 1.0, 5.0, 0.002),
        (1.0, 0.1, 0.0, 0.1, 0.5),
        (50.0, 0.0, 0.0, 0.0, 0.01),
        (20.0, 2.0, 3.0, 4.0, 0.02),
    ]
    seeds = _spawn_int_seeds(seed, len(scenarios))
    # Experiment-wide progress: each sub-estimate contributes its own chunk
    # count, reported as one monotone stream so the scenario service sees
    # real per-chunk progress.
    per_estimate = plan_chunks(num_runs, chunk_size).num_chunks
    total_chunks = len(scenarios) * per_estimate
    for index, ((work, ckpt, downtime, recovery, rate), sub_seed) in enumerate(
        zip(scenarios, seeds)
    ):
        analytic = expected_completion_time(work, ckpt, downtime, recovery, rate)
        estimate = estimate_expected_completion_time(
            work, ckpt, downtime, recovery, rate, num_runs=num_runs,
            seed=sub_seed, backend=backend, cache=cache,
            chunk_size=chunk_size, engine=engine,
            progress=_offset_progress(progress, index * per_estimate, total_chunks),
        )
        table.add_row(
            work=work,
            checkpoint=ckpt,
            downtime=downtime,
            recovery=recovery,
            rate=rate,
            analytic=analytic,
            simulated=estimate.mean,
            rel_error=estimate.relative_error(analytic),
            within_ci95=estimate.contains(analytic),
        )
    return table


# ----------------------------------------------------------------------
# E2 -- Prop. 1 vs first/second-order and Bouguerra-style formulas
# ----------------------------------------------------------------------


def experiment_e2_formula_comparison(
    *, total_work: float = 1000.0, checkpoint: float = 5.0,
    downtime: float = 1.0, recovery: float = 5.0,
) -> ResultTable:
    """Compare the exact policy with Young/Daly periods and the inexact formula (E2)."""
    table = ResultTable(
        title="E2: exact periodic optimum vs Young/Daly periods and Bouguerra-style formula",
        columns=[
            "rate", "mtbf", "optimal_chunks", "optimal_period", "young_period",
            "daly_period", "E_optimal", "E_young", "E_daly",
            "young_overhead_pct", "daly_overhead_pct", "bouguerra_bias_pct",
        ],
    )
    for rate in geometric_sweep(1e-4, 1e-1, 7):
        policy = optimal_periodic_policy(
            total_work, checkpoint, downtime, recovery, rate
        )
        period_young = young_period(checkpoint, rate)
        period_daly = daly_higher_order_period(checkpoint, rate)
        e_young = divisible_expected_makespan(
            total_work, period_young, checkpoint, downtime, recovery, rate
        )
        e_daly = divisible_expected_makespan(
            total_work, period_daly, checkpoint, downtime, recovery, rate
        )
        exact_segment = expected_completion_time(
            policy.chunk_work, checkpoint, downtime, recovery, rate
        )
        inexact_segment = bouguerra_expected_time(
            policy.chunk_work, checkpoint, downtime, recovery, rate
        )
        table.add_row(
            rate=rate,
            mtbf=1.0 / rate,
            optimal_chunks=policy.num_chunks,
            optimal_period=policy.chunk_work,
            young_period=period_young,
            daly_period=period_daly,
            E_optimal=policy.expected_makespan,
            E_young=e_young,
            E_daly=e_daly,
            young_overhead_pct=100.0 * (e_young / policy.expected_makespan - 1.0),
            daly_overhead_pct=100.0 * (e_daly / policy.expected_makespan - 1.0),
            bouguerra_bias_pct=100.0 * (inexact_segment / exact_segment - 1.0),
        )
    return table


# ----------------------------------------------------------------------
# E3 -- Chain DP optimality and scaling
# ----------------------------------------------------------------------


def experiment_e3_chain_dp(
    *, brute_force_sizes: tuple = (4, 6, 8, 10), scaling_sizes: tuple = (100, 200, 400, 800),
    seed: int = 2, downtime: float = 0.5, rate: float = 0.02,
    method: str = "auto",
) -> ResultTable:
    """Chain DP equals brute force on small chains, and scales quadratically (E3).

    ``method`` picks the DP execution path (``"auto"`` defaults to the
    vectorized kernels on the scaling sizes; ``"reference"`` forces the
    scalar loops) -- results are bit-identical either way, only
    ``dp_seconds`` changes.
    """
    table = ResultTable(
        title="E3: linear-chain DP vs brute force, and runtime scaling",
        columns=[
            "n", "mode", "E_dp", "E_bruteforce", "match",
            "num_checkpoints", "dp_seconds",
        ],
    )
    rng = np.random.default_rng(seed)
    for n in brute_force_sizes:
        chain = uniform_random_chain(n, rng=rng)
        start = time.perf_counter()
        dp = optimal_chain_checkpoints(chain, downtime, rate, method=method)
        elapsed = time.perf_counter() - start
        brute = brute_force_chain_checkpoints(chain, downtime, rate)
        table.add_row(
            n=n,
            mode="exactness",
            E_dp=dp.expected_makespan,
            E_bruteforce=brute.expected_makespan,
            match=math.isclose(dp.expected_makespan, brute.expected_makespan, rel_tol=1e-9),
            num_checkpoints=dp.num_checkpoints,
            dp_seconds=elapsed,
        )
    for n in scaling_sizes:
        chain = uniform_random_chain(n, rng=rng)
        start = time.perf_counter()
        dp = optimal_chain_checkpoints(chain, downtime, rate, method=method)
        elapsed = time.perf_counter() - start
        table.add_row(
            n=n,
            mode="scaling",
            E_dp=dp.expected_makespan,
            E_bruteforce=None,
            match=None,
            num_checkpoints=dp.num_checkpoints,
            dp_seconds=elapsed,
        )
    return table


# ----------------------------------------------------------------------
# E4 -- The 3-PARTITION reduction behaves as proved
# ----------------------------------------------------------------------


def experiment_e4_reduction(*, num_yes: int = 4, num_no: int = 2, seed: int = 3) -> ResultTable:
    """YES instances reach the bound K exactly; NO instances cannot (E4)."""
    table = ResultTable(
        title="E4: Proposition 2 reduction -- YES instances achieve K, NO instances exceed it",
        columns=[
            "instance", "kind", "n_subsets", "bound_K", "best_expected",
            "meets_bound", "recovered_partition",
        ],
    )
    rng = np.random.default_rng(seed)
    for index in range(num_yes):
        instance = generate_yes_instance(3, rng=rng)
        reduced = three_partition_to_schedule(instance)
        partition = solve_three_partition(instance)
        assert partition is not None, "generated YES instance has no solution"
        expected = reduced.grouping_expected_time(partition)
        recovered = schedule_to_three_partition(reduced, partition)
        table.add_row(
            instance=f"yes-{index}",
            kind="YES",
            n_subsets=instance.num_subsets,
            bound_K=reduced.bound,
            best_expected=expected,
            meets_bound=expected <= reduced.bound * (1 + 1e-9),
            recovered_partition=recovered is not None,
        )
    for index in range(num_no):
        instance = generate_no_instance(2, rng=rng)
        reduced = three_partition_to_schedule(instance)
        optimum = exhaustive_independent_schedule(
            list(reduced.works),
            reduced.checkpoint_cost,
            reduced.recovery_cost,
            reduced.downtime,
            reduced.rate,
            initial_recovery=reduced.recovery_cost,
        )
        table.add_row(
            instance=f"no-{index}",
            kind="NO",
            n_subsets=instance.num_subsets,
            bound_K=reduced.bound,
            best_expected=optimum.expected_makespan,
            meets_bound=optimum.expected_makespan <= reduced.bound * (1 + 1e-9),
            recovered_partition=None,
        )
    return table


# ----------------------------------------------------------------------
# E5 -- Independent-task heuristics vs the exhaustive optimum
# ----------------------------------------------------------------------


def experiment_e5_independent_heuristics(
    *, exact_sizes: tuple = (5, 7, 9), heuristic_sizes: tuple = (30, 60),
    seed: int = 4, checkpoint: float = 1.0, downtime: float = 0.0, rate: float = 0.05,
    method: str = "auto",
) -> ResultTable:
    """Heuristic grouping vs exhaustive optimum and trivial strategies (E5).

    ``method`` picks the local-search implementation of
    :func:`~repro.core.independent.schedule_independent_tasks` (the batched
    incremental scoring by default on the heuristic sizes).
    """
    table = ResultTable(
        title="E5: independent-task heuristic vs exhaustive optimum and trivial groupings",
        columns=[
            "n", "E_heuristic", "E_optimal", "ratio_to_optimal",
            "E_one_group", "E_singletons", "heuristic_groups",
        ],
    )
    rng = np.random.default_rng(seed)
    for n in list(exact_sizes) + list(heuristic_sizes):
        works = list(rng.uniform(1.0, 10.0, size=n))
        heuristic = schedule_independent_tasks(
            works, checkpoint, checkpoint, downtime, rate, method=method
        )
        one_group = grouping_expected_time(
            [list(range(n))], works, checkpoint, checkpoint, downtime, rate
        )
        singletons = grouping_expected_time(
            [[i] for i in range(n)], works, checkpoint, checkpoint, downtime, rate
        )
        if n in exact_sizes:
            optimum = exhaustive_independent_schedule(
                works, checkpoint, checkpoint, downtime, rate
            )
            e_opt = optimum.expected_makespan
            ratio = heuristic.expected_makespan / e_opt
        else:
            e_opt = None
            ratio = None
        table.add_row(
            n=n,
            E_heuristic=heuristic.expected_makespan,
            E_optimal=e_opt,
            ratio_to_optimal=ratio,
            E_one_group=one_group,
            E_singletons=singletons,
            heuristic_groups=heuristic.num_checkpoints,
        )
    return table


# ----------------------------------------------------------------------
# E6 -- Chain strategies across failure rates
# ----------------------------------------------------------------------


def _e6_rate_row(args) -> Dict[str, object]:
    """Evaluate every chain strategy at one failure rate (one work unit of E6).

    Module-level so the rows can be fanned out over a process pool; the
    evaluation is analytic, so parallel and serial rows are identical.
    """
    chain, rate, downtime, total_work = args
    results = evaluate_chain_strategies(chain, downtime, rate)
    optimal = results["optimal_dp"].expected_makespan

    def ratio(name: str) -> Optional[float]:
        if name not in results:
            return None
        return results[name].expected_makespan / optimal

    return dict(
        rate=rate,
        mtbf_over_work=(1.0 / rate) / total_work,
        E_optimal=optimal,
        optimal_checkpoints=results["optimal_dp"].num_checkpoints,
        ratio_all=ratio("checkpoint_all"),
        ratio_none=ratio("checkpoint_none"),
        ratio_every_2=ratio("every_2"),
        ratio_every_5=ratio("every_5"),
        ratio_daly=ratio("daly_period"),
        ratio_young=ratio("young_period"),
    )


def experiment_e6_chain_strategies(
    *, n: int = 50, seed: int = 5, downtime: float = 0.5,
    backend: Union[None, int, str, ExecutionBackend] = None,
    cache: Optional[ResultCache] = None,
) -> ResultTable:
    """Optimal DP vs checkpoint-all/none/every-k/Daly across failure rates (E6)."""
    table = ResultTable(
        title="E6: chain checkpoint strategies, expected makespan ratio to the DP optimum",
        columns=[
            "rate", "mtbf_over_work", "E_optimal", "optimal_checkpoints",
            "ratio_all", "ratio_none", "ratio_every_2", "ratio_every_5",
            "ratio_daly", "ratio_young",
        ],
    )
    store = None
    key = None
    if cache is not None:
        store = cache.with_namespace("experiment")
        # "numerics" keys the analytic libm generation: PR 5 moved
        # expected_completion_time onto NumPy's exp/expm1 (<= 1 ulp from the
        # old math.* values), so pre-PR5 tables must not replay as-if fresh.
        key = store.key_for({
            "kind": "experiment_table", "experiment": "E6",
            "n": n, "seed": seed, "downtime": downtime,
            "numerics": ANALYTIC_NUMERICS,
        })
        entry = store.get(key)
        if entry is not None:
            table.rows = entry[0]["rows"]
            return table
    rng = np.random.default_rng(seed)
    chain = uniform_random_chain(n, work_range=(1.0, 10.0), checkpoint_range=(0.5, 2.0), rng=rng)
    total_work = chain.total_work()
    tasks = [
        (chain, rate, downtime, total_work) for rate in geometric_sweep(1e-4, 2e-1, 8)
    ]
    with backend_scope(backend) as executor:
        for row in executor.map(_e6_rate_row, tasks):
            table.add_row(**row)
    if store is not None and key is not None:
        store.put(key, {"kind": "experiment_table", "experiment": "E6", "rows": table.rows})
    return table


# ----------------------------------------------------------------------
# E7 -- Workload and checkpoint scaling with the platform size
# ----------------------------------------------------------------------


def experiment_e7_scaling_models(
    *, total_work: float = 10_000.0, footprint: float = 100.0,
    lambda_proc: float = 1e-5, downtime: float = 1.0,
) -> ResultTable:
    """Expected makespan vs p under the W(p) and C(p) models of Section 3 (E7)."""
    table = ResultTable(
        title="E7: expected makespan vs platform size under workload x checkpoint scaling models",
        columns=[
            "p", "workload_model", "checkpoint_model", "W_p", "C_p",
            "rate", "E_best_periodic", "chunks",
        ],
    )
    workload_models = {
        "perfect": PerfectlyParallelWorkload(),
        "amdahl(g=0.01)": AmdahlWorkload(gamma=0.01),
        "kernel(g=0.1)": NumericalKernelWorkload(gamma=0.1),
    }
    checkpoint_models = {
        "proportional": ProportionalCheckpointCost(alpha=0.1),
        "constant": ConstantCheckpointCost(alpha=0.1),
    }
    for p in [2 ** k for k in range(0, 17, 4)]:
        for wname, wmodel in workload_models.items():
            for cname, cmodel in checkpoint_models.items():
                w_p = wmodel.time(total_work, p)
                c_p = cmodel.checkpoint_time(footprint, p)
                rate = lambda_proc * p
                policy = optimal_periodic_policy(
                    w_p, c_p, downtime, c_p, rate, max_chunks=10_000
                )
                table.add_row(
                    p=p,
                    workload_model=wname,
                    checkpoint_model=cname,
                    W_p=w_p,
                    C_p=c_p,
                    rate=rate,
                    E_best_periodic=policy.expected_makespan,
                    chunks=policy.num_chunks,
                )
    return table


# ----------------------------------------------------------------------
# E8 -- Non-Exponential failures: simulation-evaluated heuristics
# ----------------------------------------------------------------------


def experiment_e8_general_failures(
    *, n: int = 20, num_runs: int = 400, seed: int = 6,
    downtime: float = 0.5, platform_mtbf: float = 150.0,
    backend: Union[None, int, str, ExecutionBackend] = None,
    cache: Optional[ResultCache] = None,
    chunk_size: Optional[int] = None,
    engine: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ResultTable:
    """Weibull / log-normal failures: placement heuristics compared by simulation (E8)."""
    table = ResultTable(
        title="E8: non-Exponential failures -- simulated makespan of placement heuristics",
        columns=[
            "law", "strategy", "checkpoints", "mean_makespan", "ci95_low", "ci95_high",
            "mean_failures",
        ],
    )
    chain = uniform_random_chain(
        n, work_range=(5.0, 15.0), checkpoint_range=(1.0, 2.0), seed=seed
    )
    laws = {
        "exponential": ExponentialFailure.from_mtbf(platform_mtbf),
        "weibull(k=0.7)": WeibullFailure.from_mtbf(platform_mtbf, shape=0.7),
        "weibull(k=1.5)": WeibullFailure.from_mtbf(platform_mtbf, shape=1.5),
        "lognormal(s=1.0)": LogNormalFailure.from_mtbf(platform_mtbf, sigma=1.0),
    }
    # One independent child seed per (law, strategy) estimate.
    sub_seeds = iter(_spawn_int_seeds(seed, 4 * len(laws)))
    # 4 strategies per law, each one estimate; see E1 for the progress scheme.
    per_estimate = plan_chunks(num_runs, chunk_size).num_chunks
    total_chunks = 4 * len(laws) * per_estimate
    estimate_index = 0
    for law_name, law in laws.items():
        rate_equivalent = 1.0 / platform_mtbf
        placements = {
            "exp_dp": optimal_chain_checkpoints(chain, downtime, rate_equivalent).checkpoint_after,
            "work_max": work_maximization_chain(chain, law).checkpoint_after,
            "all": tuple(range(chain.n)),
            "none": (chain.n - 1,),
        }
        for strategy, positions in placements.items():
            schedule = Schedule.for_chain(chain, positions)
            platform = Platform(num_processors=1, failure_law=law, downtime=downtime)
            estimator = MonteCarloEstimator(schedule, platform, downtime)
            hook = _offset_progress(
                progress, estimate_index * per_estimate, total_chunks
            )
            estimate_index += 1
            estimate = estimator.estimate(
                num_runs, seed=next(sub_seeds), backend=backend, cache=cache,
                chunk_size=chunk_size, engine=engine, progress=hook,
            )
            table.add_row(
                law=law_name,
                strategy=strategy,
                checkpoints=len(positions),
                mean_makespan=estimate.mean,
                ci95_low=estimate.ci95_low,
                ci95_high=estimate.ci95_high,
                mean_failures=estimate.mean_failures,
            )
    return table


# ----------------------------------------------------------------------
# E9 -- Moldable tasks: processor allocation under failures
# ----------------------------------------------------------------------


def experiment_e9_moldable(
    *, max_processors: int = 1024, downtime: float = 1.0,
) -> ResultTable:
    """Best per-task processor allocation vs 'use every processor' (E9)."""
    table = ResultTable(
        title="E9: moldable tasks -- optimal allocation vs full-platform allocation",
        columns=[
            "lambda_proc", "workload_model", "best_p", "E_best",
            "E_full_platform", "gain_pct",
        ],
    )
    workloads = {
        "amdahl(g=0.001)": AmdahlWorkload(gamma=0.001),
        "kernel(g=0.3)": NumericalKernelWorkload(gamma=0.3),
        "perfect": PerfectlyParallelWorkload(),
    }
    checkpoint_model = ConstantCheckpointCost(alpha=0.05)
    for lambda_proc in geometric_sweep(1e-7, 1e-4, 4):
        for wname, wmodel in workloads.items():
            task = MoldableTask(
                name="job", sequential_work=50_000.0, memory_footprint=200.0, workload=wmodel
            )
            scheduler = MoldableScheduler(
                lambda_proc, downtime,
                checkpoint_model=checkpoint_model, max_processors=max_processors,
            )
            allocation = scheduler.allocate_checkpoint_everywhere([task])
            best_p = allocation.allocations[0]
            e_best = allocation.expected_makespan
            # Evaluate the "always use the whole platform" alternative explicitly.
            from repro.core.moldable import best_allocation_single_task  # local import to reuse

            _, e_full = best_allocation_single_task(
                task, lambda_proc, downtime, checkpoint_model,
                max_processors=max_processors, min_processors=max_processors,
            )
            table.add_row(
                lambda_proc=lambda_proc,
                workload_model=wname,
                best_p=best_p,
                E_best=e_best,
                E_full_platform=e_full,
                gain_pct=100.0 * (e_full / e_best - 1.0),
            )
    return table


# ----------------------------------------------------------------------
# E10 -- Frontier-dependent checkpoint costs on DAG linearisations
# ----------------------------------------------------------------------


def experiment_e10_dag_frontier(*, seed: int = 7, downtime: float = 0.2) -> ResultTable:
    """Frontier-dependent checkpoint cost changes placement and cost on DAGs (E10)."""
    table = ResultTable(
        title="E10: DAG scheduling with per-task vs frontier-dependent checkpoint costs",
        columns=[
            "dag", "tasks", "rate", "cost_model", "strategy",
            "checkpoints", "E_makespan", "exact_optimal",
        ],
    )
    dags = {
        "fork_join(6)": fork_join(6, branch_work=4.0, checkpoint_cost=0.5, seed=seed),
        "montage(4)": montage_like(4, checkpoint_cost=0.5),
    }
    for dag_name, workflow in dags.items():
        for rate in (0.01, 0.1):
            for cost_name, model in (
                ("per_task", None),
                ("frontier_sum", FrontierCheckpointCost(workflow)),
            ):
                heuristic = schedule_dag(
                    workflow, downtime, rate, checkpoint_model=model, seed=seed
                )
                row = dict(
                    dag=dag_name,
                    tasks=len(workflow),
                    rate=rate,
                    cost_model=cost_name,
                    strategy=heuristic.strategy,
                    checkpoints=heuristic.num_checkpoints,
                    E_makespan=heuristic.expected_makespan,
                )
                if len(workflow) <= 12:
                    exact = exhaustive_dag_schedule(
                        workflow, downtime, rate, checkpoint_model=model
                    )
                    row["exact_optimal"] = exact.expected_makespan
                table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ResultTable]] = {
    "E1": experiment_e1_prop1_validation,
    "E2": experiment_e2_formula_comparison,
    "E3": experiment_e3_chain_dp,
    "E4": experiment_e4_reduction,
    "E5": experiment_e5_independent_heuristics,
    "E6": experiment_e6_chain_strategies,
    "E7": experiment_e7_scaling_models,
    "E8": experiment_e8_general_failures,
    "E9": experiment_e9_moldable,
    "E10": experiment_e10_dag_frontier,
}


def experiment_descriptions() -> Dict[str, str]:
    """One-line description of every experiment, keyed by id (in E1..E10 order)."""
    descriptions: Dict[str, str] = {}
    for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:])):
        doc = inspect.getdoc(EXPERIMENTS[key]) or ""
        descriptions[key] = doc.splitlines()[0] if doc else "(no description)"
    return descriptions


def run_experiment(
    name: str,
    *,
    backend: Union[None, int, str, ExecutionBackend] = None,
    cache: Optional[ResultCache] = None,
    chunk_size: Optional[int] = None,
    engine: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    **kwargs,
) -> ResultTable:
    """Run one experiment by id (e.g. ``"E3"``).

    ``backend``, ``cache``, ``chunk_size``, ``engine`` and ``progress`` are
    forwarded only to experiments whose signature declares them: the
    Monte-Carlo-heavy E1 and E8 take all five (reporting experiment-wide
    chunk counts through ``progress``), the analytic-but-parallelisable E6
    takes ``backend``/``cache``, and the purely analytic experiments run
    unchanged and ignore them all.  For experiments without their own
    progress support a ``progress`` callback still fires ``(0, 1)`` before
    and ``(1, 1)`` after the run, so callers (the scenario service's job
    scheduler) always observe a consistent contract.
    """
    key = name.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    fn = EXPERIMENTS[key]
    supported = inspect.signature(fn).parameters
    for runtime_kwarg, value in zip(
        _RUNTIME_KWARGS, (backend, cache, chunk_size, engine, progress)
    ):
        if runtime_kwarg in supported and value is not None:
            kwargs[runtime_kwarg] = value
    if progress is not None and "progress" not in supported:
        progress(0, 1)
        table = fn(**kwargs)
        progress(1, 1)
        return table
    return fn(**kwargs)


def run_all_experiments(
    *,
    backend: Union[None, int, str, ExecutionBackend] = None,
    cache: Optional[ResultCache] = None,
) -> List[ResultTable]:
    """Run the full suite, in order."""
    return [
        run_experiment(key, backend=backend, cache=cache)
        for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    ]


def _main(argv: List[str]) -> int:
    names = argv or sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    for name in names:
        table = run_experiment(name)
        print(table.to_text())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via examples/benchmarks
    raise SystemExit(_main(sys.argv[1:]))
