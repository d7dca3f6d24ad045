"""Simple checkpoint-placement strategies for task chains.

These are the natural baselines against which the optimal DP of Section 5 is
compared in experiment E6:

* ``checkpoint_all`` -- a checkpoint after every task (safe but pays every
  checkpoint cost);
* ``checkpoint_none`` -- a single checkpoint at the very end (cheap in a
  failure-free world, catastrophic when failures are frequent);
* ``checkpoint_every_k`` -- a checkpoint after every ``k``-th task;
* ``daly_period`` -- checkpoint after the first task that makes the work
  accumulated since the last checkpoint reach Daly's (or Young's) period,
  i.e. the divisible-job rule adapted to task boundaries.

Each strategy returns a :class:`~repro.core.chain_dp.ChainDPResult`-compatible
placement (positions + exact expected makespan) so results are directly
comparable with the DP output.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro._validation import check_non_negative, check_positive, check_positive_int
from repro.core.chain_dp import ChainDPResult, optimal_chain_checkpoints
from repro.core.expected_time import daly_higher_order_period, young_period
from repro.core.schedule import Schedule
from repro.workflows.chain import LinearChain

__all__ = [
    "checkpoint_all_chain",
    "checkpoint_none_chain",
    "checkpoint_every_k_chain",
    "daly_period_chain",
    "evaluate_chain_strategies",
]


def _placement_result(
    chain: LinearChain,
    positions: Sequence[int],
    downtime: float,
    rate: float,
) -> ChainDPResult:
    """Package an explicit placement with its exact expected makespan."""
    schedule = Schedule.for_chain(chain, positions)
    value = schedule.expected_makespan(downtime, rate)
    return ChainDPResult(
        expected_makespan=value,
        checkpoint_after=tuple(sorted(positions)),
        chain=chain,
        downtime=downtime,
        rate=rate,
    )


def checkpoint_all_chain(chain: LinearChain, downtime: float, rate: float) -> ChainDPResult:
    """A checkpoint after every task of the chain."""
    check_non_negative("downtime", downtime)
    check_positive("rate", rate)
    return _placement_result(chain, list(range(chain.n)), downtime, rate)


def checkpoint_none_chain(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
) -> ChainDPResult:
    """No intermediate checkpoint (optionally a single one after the last task)."""
    check_non_negative("downtime", downtime)
    check_positive("rate", rate)
    positions = [chain.n - 1] if final_checkpoint else []
    return _placement_result(chain, positions, downtime, rate)


def checkpoint_every_k_chain(
    chain: LinearChain,
    k: int,
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
) -> ChainDPResult:
    """A checkpoint after every ``k``-th task (and after the last one if requested)."""
    check_positive_int("k", k)
    check_non_negative("downtime", downtime)
    check_positive("rate", rate)
    positions = [i for i in range(chain.n) if (i + 1) % k == 0]
    if final_checkpoint and (chain.n - 1) not in positions:
        positions.append(chain.n - 1)
    return _placement_result(chain, positions, downtime, rate)


def daly_period_chain(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    use_higher_order: bool = True,
    final_checkpoint: bool = True,
) -> ChainDPResult:
    """Checkpoint placement driven by the Young/Daly period, snapped to task boundaries.

    The divisible-job rule "checkpoint every ``P`` units of work" is adapted
    to non-divisible tasks by checkpointing after the first task that makes
    the work accumulated since the previous checkpoint reach ``P``.  The
    period uses the chain's *average* checkpoint cost, which is what a user of
    the Young/Daly formula would plug in when costs vary per task.
    """
    check_non_negative("downtime", downtime)
    check_positive("rate", rate)
    mean_checkpoint = sum(chain.checkpoint_costs) / chain.n
    if mean_checkpoint <= 0.0:
        # Checkpoints are free: the divisible-job rule says checkpoint everywhere.
        return checkpoint_all_chain(chain, downtime, rate)
    if use_higher_order:
        period = daly_higher_order_period(mean_checkpoint, rate)
    else:
        period = young_period(mean_checkpoint, rate)
    positions: List[int] = []
    accumulated = 0.0
    for index in range(chain.n):
        accumulated += chain.works[index]
        if accumulated >= period:
            positions.append(index)
            accumulated = 0.0
    if final_checkpoint and (chain.n - 1) not in positions:
        positions.append(chain.n - 1)
    return _placement_result(chain, positions, downtime, rate)


def evaluate_chain_strategies(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    every_k: Sequence[int] = (2, 5),
    final_checkpoint: bool = True,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, ChainDPResult]:
    """Evaluate the optimal DP and every baseline strategy on the same chain.

    Returns a mapping from strategy name to its placement/expected makespan;
    the "optimal_dp" entry is always included (unless excluded via ``only``)
    and is guaranteed to have the smallest expected makespan of the set (the
    DP explores a superset of these placements).

    ``only`` restricts evaluation to the named strategies -- scenario specs
    that compare a subset then skip the ``O(n^2)`` DP solve (or the other
    placements) entirely; unknown names raise ``KeyError`` listing the full
    catalog.
    """
    builders: Dict[str, Callable[[], ChainDPResult]] = {
        "optimal_dp": lambda: optimal_chain_checkpoints(
            chain, downtime, rate, final_checkpoint=final_checkpoint
        ),
        "checkpoint_all": lambda: checkpoint_all_chain(chain, downtime, rate),
        "checkpoint_none": lambda: checkpoint_none_chain(
            chain, downtime, rate, final_checkpoint=final_checkpoint
        ),
        "daly_period": lambda: daly_period_chain(
            chain, downtime, rate, final_checkpoint=final_checkpoint
        ),
        "young_period": lambda: daly_period_chain(
            chain, downtime, rate, use_higher_order=False, final_checkpoint=final_checkpoint
        ),
    }
    for k in every_k:
        if 1 <= k <= chain.n:
            builders[f"every_{k}"] = (
                lambda step=k: checkpoint_every_k_chain(
                    chain, step, downtime, rate, final_checkpoint=final_checkpoint
                )
            )
    if only is None:
        requested = list(builders)
    else:
        requested = list(dict.fromkeys(only))
        unknown = [name for name in requested if name not in builders]
        if unknown:
            raise KeyError(
                f"unknown strategies {unknown!r}; available: {sorted(builders)}"
            )
    results: Dict[str, ChainDPResult] = {name: builders[name]() for name in requested}
    return results
