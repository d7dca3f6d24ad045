"""Row-blocked NumPy kernels shared by the analytic checkpoint-placement solvers.

The chain DP (Proposition 3), its budget-constrained variant and the DAG
linearize-then-place solver share one transition structure: DP row ``x``
examines every segment end ``j in {x, .., n-1}`` and charges the
Proposition 1 cost::

    cost(x, j) = e^{lambda R} (1/lambda + D) (e^{lambda (W_{x..j} + C_j)} - 1)

The scalar references evaluate one ``(x, j)`` cell at a time through
:func:`~repro.core.expected_time.expected_completion_time`.  The kernels here
take a block of DP rows ``[x0, x1)`` (at most :data:`_BLOCK_ROWS` rows and
:data:`_BLOCK_CELLS` cells, in one workspace per call) and compute every
``cost(x, j)`` with ``j >= x0`` in one 2-D NumPy pass, so a block pays the
ufunc dispatch once instead of once per row.  The chain DP then takes one
``argmin`` over the columns whose successor row is final (``j >= x1 - 1``)
and resolves the in-block triangle ``x <= j < x1 - 1`` bottom-up; on a tie
the triangle wins, because its indices are lower.

Every cell goes through the references' operations in their order (prefix
difference, ``+ C_j``, ``* lambda``, the overflow mask, ``expm1``, ``*`` the
row factor) on the same NumPy ufuncs, which return the same bits for an
element whatever the array around it.  The tables are therefore
**bit-identical** to the scalar loops: same values, same first-lowest-index
choices.  Where the references catch ``OverflowError`` (an exponent above
``_MAX_EXPONENT``) the kernels write ``+inf``, "never optimal", and so they
do for every transition of a row whose recovery exponent overflows.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence, Tuple, Union

import numpy as np

from repro.core.expected_time import _MAX_EXPONENT

__all__ = [
    "resolve_dp_method",
    "chain_dp_tables",
    "budget_dp_tables",
    "reconstruct_positions",
]

#: Below this many tasks the plain-Python reference loops beat the row-blocked
#: kernels (2-core container, public solvers: at n = 8 the chain DP takes 37
#: against 47 us, DAG placement 46 against 52 us; at n = 7 the reference is
#: level or ahead).  Both paths are bit-identical: a pure speed choice.
AUTO_MIN_TASKS = 8

#: Block caps: rows, and cells (256 KiB of float64; a longer row is a block).
_BLOCK_ROWS = 32
_BLOCK_CELLS = 1 << 15

_METHODS = ("auto", "vectorized", "reference")


def resolve_dp_method(method: str, n: int, auto_min_tasks: int = AUTO_MIN_TASKS) -> str:
    """Resolve a ``method=`` argument to ``"vectorized"`` or ``"reference"``.

    ``"auto"`` (every solver's default) picks the vectorized path for
    instances of ``auto_min_tasks`` tasks or more and the scalar reference
    below that, where the Python loop is faster.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if method == "auto":
        return "vectorized" if n >= auto_min_tasks else "reference"
    return method


def reconstruct_positions(
    choice: Sequence[int], n: int, final_checkpoint: bool
) -> Tuple[int, ...]:
    """Checkpoint positions from a table of segment-end choices.

    Follows ``choice[x]`` from position 0; the last segment's end is not a
    checkpoint position when ``final_checkpoint`` is False.  Shared by the
    chain DP and the DAG placement DP, for both execution paths.
    """
    positions = []
    x = 0
    while x < n:
        j = int(choice[x])
        if j != n - 1 or final_checkpoint:
            positions.append(j)
        x = j + 1
    return tuple(positions)


def _row_factors(
    recoveries: np.ndarray, downtime: float, rate: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Row constants ``e^{lambda R} (1/lambda + D)`` and the rows they overflow.

    A row whose factor overflows is ``+inf`` throughout, like the references'
    ``OverflowError`` on ``lambda * R``: its factor comes back as 1.0 and its
    ``dead`` flag set, so callers mask it instead of multiplying by ``+inf``.
    """
    rec_exponents = rate * recoveries
    with np.errstate(over="ignore"):
        factors = np.exp(np.minimum(rec_exponents, _MAX_EXPONENT)) * (
            1.0 / rate + downtime
        )
    dead = (rec_exponents > _MAX_EXPONENT) | (factors == np.inf)
    factors[dead] = 1.0
    return factors, dead


def _cost_blocks(
    prefix: np.ndarray,
    checkpoint_costs: Union[np.ndarray, Callable[[int], Sequence[float]]],
    factors: np.ndarray,
    dead: np.ndarray,
    rate: float,
    last_checkpoint_free: bool,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Segment costs of the DP's row blocks, bottom-up.

    Yields ``(x0, x1, costs)`` with ``costs[r, c] = cost(x0 + r, x0 + c)`` for
    ``c >= r`` (finite or ``+inf`` junk below that), a view of one workspace
    that the next block overwrites.  ``factors`` and ``dead`` come from
    :func:`_row_factors`; with ``last_checkpoint_free`` the segment ending at
    ``n - 1`` is charged no checkpoint.
    """
    n = len(factors)
    any_dead = bool(dead.any())
    size = min(max(_BLOCK_CELLS, n), n * min(_BLOCK_ROWS, n))
    workspace, mask = np.empty(size), np.empty(size, dtype=bool)
    by_row = callable(checkpoint_costs)
    if by_row:
        # Zeroed once: rows write only their cells c >= r, all finite.
        row_costs = np.zeros(size)
    else:
        ckpt = np.array(checkpoint_costs, dtype=float)
        if last_checkpoint_free:
            ckpt[-1:] = 0.0
    x1 = n
    while x1 > 0:
        # The tallest block below the caps: h * (n - x1 + h) <= _BLOCK_CELLS.
        known = n - x1
        fit = (math.isqrt(known * known + 4 * _BLOCK_CELLS) - known) // 2
        x0 = x1 - max(1, min(_BLOCK_ROWS, x1, fit))
        shape = (x1 - x0, n - x0)
        costs = workspace[: shape[0] * shape[1]].reshape(shape)
        over = mask[: costs.size].reshape(shape)
        # lambda * (W + C) with the scalar loops' exact association:
        # work = prefix[j + 1] - prefix[x], then work + C_j, then rate * (..).
        np.subtract(prefix[x0 + 1 :], prefix[x0:x1, None], out=costs)
        if by_row:
            block = row_costs[: costs.size].reshape(shape)
            for r in range(shape[0]):
                block[r, r:] = checkpoint_costs(x0 + r)
            if last_checkpoint_free:
                block[:, -1] = 0.0
            costs += block
        else:
            costs += ckpt[x0:]
        costs *= rate
        np.greater(costs, _MAX_EXPONENT, out=over)
        if any_dead:
            over |= dead[x0:x1, None]
        clipped = bool(over.any())
        if clipped:
            np.minimum(costs, _MAX_EXPONENT, out=costs)
        np.expm1(costs, out=costs)
        # factor * expm1 may overflow to +inf even below the exponent
        # threshold (the scalar reference's Python-float product does the
        # same, silently); +inf is the correct "never optimal" value either way.
        with np.errstate(over="ignore"):
            costs *= factors[x0:x1, None]
        if clipped:
            np.copyto(costs, np.inf, where=over)
        yield x0, x1, costs
        x1 = x0


def chain_dp_tables(
    prefix: np.ndarray,
    checkpoint_costs: Union[np.ndarray, Callable[[int], Sequence[float]]],
    recoveries: np.ndarray,
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom-up tables of the unbudgeted placement DP, one row block at a time.

    ``prefix`` holds the work prefix sums ``P[0..n]``; ``checkpoint_costs``
    the cost ``C_j`` of a checkpoint after position ``j``, or a callable
    ``cost_row(x)`` giving the costs for every ``j >= x`` when they also
    depend on the segment's start ``x``; and ``recoveries[x]`` the recovery
    cost of a segment starting at ``x`` (a rollback to the checkpoint before
    ``x``).  With ``final_checkpoint`` False the last checkpoint is free.

    Returns ``(best, choice)``: ``best[x]`` is the optimal expected time for
    positions ``x..n-1`` (``best[n] = 0``) and ``choice[x]`` the
    first-lowest-index optimal segment end from ``x`` (``n - 1`` when every
    candidate overflows, as the scalar references initialise it).
    """
    n = len(recoveries)
    # Rows not yet resolved read +inf, so adding best[x0 + 1:] to a whole
    # block leaves only the columns j >= x1 - 1, whose successor row is
    # final, below +inf.
    best = np.full(n + 1, np.inf)
    best[n] = 0.0
    choice = np.empty(n, dtype=np.int64)
    factors, dead = _row_factors(recoveries, downtime, rate)
    for x0, x1, costs in _cost_blocks(
        prefix, checkpoint_costs, factors, dead, rate, not final_checkpoint
    ):
        h = x1 - x0
        triangle = costs[:, : h - 1].tolist()
        costs += best[x0 + 1 :]
        known_j = costs.argmin(axis=1)
        values = costs[np.arange(h), known_j].tolist()
        ends = (known_j + x0).tolist()
        # The triangle x <= j < x1 - 1, bottom-up.  Scanning j downwards and
        # keeping ties gives the lowest index among equal values, so the
        # triangle wins a tie against the known columns.
        for r in range(h - 1, -1, -1):
            value, end = values[r], ends[r]
            row = triangle[r]
            for c in range(h - 2, r - 1, -1):
                candidate = row[c] + values[c + 1]
                if candidate <= value:
                    value, end = candidate, x0 + c
            values[r] = value
            ends[r] = end if value < math.inf else n - 1
        best[x0:x1] = values
        choice[x0:x1] = ends
    return best, choice


def budget_dp_tables(
    prefix: np.ndarray,
    checkpoint_costs: np.ndarray,
    recoveries: np.ndarray,
    downtime: float,
    rate: float,
    budget_cap: int,
    *,
    final_checkpoint: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom-up tables of the budgeted chain DP, whole budget axis per row.

    State ``best[x, b]`` is the optimal expected time for tasks ``x..n-1``
    with at most ``b`` checkpoints remaining.  The segment costs come from
    the chain kernel's row blocks; each row then sweeps the whole budget axis
    with one add and one ``argmin`` along contiguous rows of a budget-major
    table, returned as ``(n + 1, budget_cap + 1)`` views.

    ``choice[x, b]`` is the chosen segment end, with the scalar reference's
    sentinels: ``n`` for "run to the end without a further checkpoint"
    (allowed only when ``final_checkpoint`` is False) and ``-1`` when no
    option is feasible.
    """
    n = len(recoveries)
    factors, dead = _row_factors(recoveries, downtime, rate)
    best = np.full((budget_cap + 1, n + 1), np.inf)
    choice = np.full((budget_cap + 1, n + 1), -1, dtype=np.int64)
    best[:, n] = 0.0
    if not final_checkpoint:
        # Option 1 (no further checkpoint): available at every budget level,
        # evaluated first by the reference, so option 2 must strictly improve
        # on it to win.
        exponents = rate * (prefix[n] - prefix[:n])
        over = (exponents > _MAX_EXPONENT) | dead
        with np.errstate(over="ignore"):
            tail = np.expm1(np.minimum(exponents, _MAX_EXPONENT)) * factors
        tail[over] = np.inf
        feasible = tail < np.inf
        best[:, :n] = tail
        choice[:, :n][:, feasible] = n
    if budget_cap >= 1:
        levels = np.arange(budget_cap)
        sweep = np.empty(budget_cap * n)
        for x0, x1, costs in _cost_blocks(
            prefix, checkpoint_costs, factors, dead, rate, False
        ):
            for x in range(x1 - 1, x0 - 1, -1):
                # values[b - 1, k] = cost(x, x + k) + best[b - 1, x + k + 1],
                # contiguous so that argmin reads it in place.
                values = np.add(
                    costs[x - x0, x - x0 :], best[:budget_cap, x + 1 :],
                    out=sweep[: budget_cap * (n - x)].reshape(budget_cap, n - x),
                )
                j_rel = values.argmin(axis=1)  # first lowest index per budget
                vmin = values[levels, j_rel]
                better = vmin < best[1:, x]
                np.copyto(best[1:, x], vmin, where=better)
                np.copyto(choice[1:, x], j_rel + x, where=better)
    return best.T, choice.T
