"""Vectorized NumPy kernels shared by the analytic checkpoint-placement solvers.

The chain DP (Proposition 3), its budget-constrained variant and the DAG
linearize-then-place solver all share the same transition structure: a DP row
``x`` examines every candidate segment end ``j in {x, .., n-1}`` and charges
the Proposition 1 cost::

    cost(x, j) = e^{lambda R} (1/lambda + D) (e^{lambda (W_{x..j} + C_j)} - 1)

The scalar references evaluate that expression one ``(x, j)`` cell at a time
through :func:`~repro.core.expected_time.expected_completion_time`; the
kernels here evaluate each row's entire ``j``-vector as one closed-form NumPy
expression over prefix sums of the work array, followed by a single
``argmin``.  Because :mod:`repro.core.expected_time` routes its
transcendentals through the *same* NumPy ufuncs these kernels apply to
arrays, and every remaining operation (subtract, add, multiply, compare) is
an IEEE-754 elementwise op in the scalar references' exact order, the kernel
tables are **bit-identical** to the scalar loops: same values, same
first-lowest-index argmin choices.

Overflow follows the references' convention: a transition whose exponent
exceeds ``_MAX_EXPONENT`` would make ``expected_completion_time`` raise
``OverflowError``, which the DP loops map to ``+inf`` ("this candidate is
never optimal"); the kernels mask those entries to ``+inf`` directly.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.expected_time import _MAX_EXPONENT

__all__ = [
    "resolve_dp_method",
    "row_transition_values",
    "chain_dp_tables",
    "budget_dp_tables",
    "reconstruct_positions",
]

#: Below this many tasks the per-row ufunc dispatch overhead makes the NumPy
#: kernels slower than the plain-Python reference loops (crossover measured
#: at n ~ 17 in the 1-core CI container; both paths are bit-identical, so the
#: switch is purely a performance decision).
AUTO_MIN_TASKS = 18

_METHODS = ("auto", "vectorized", "reference")


def resolve_dp_method(method: str, n: int) -> str:
    """Resolve a ``method=`` argument to ``"vectorized"`` or ``"reference"``.

    ``"auto"`` (every solver's default) picks the vectorized kernel for
    instances of :data:`AUTO_MIN_TASKS` tasks or more and the scalar
    reference below that, where the Python loop is faster.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if method == "auto":
        return "vectorized" if n >= AUTO_MIN_TASKS else "reference"
    return method


def row_transition_values(
    factor: float,
    exponents: np.ndarray,
    best_tail: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Transition values ``cost(x, j) + best[j + 1]`` for one DP row.

    ``factor`` is the row constant ``e^{lambda R} (1/lambda + D)``,
    ``exponents[k]`` is ``lambda (W_{x..x+k} + C_{x+k})`` and ``best_tail[k]``
    is ``best[x + k + 1]``.  Entries whose exponent exceeds the overflow
    threshold come out ``+inf``, exactly as the scalar loops'
    ``OverflowError -> inf`` mapping.
    """
    over = exponents > _MAX_EXPONENT
    clipped = np.minimum(exponents, _MAX_EXPONENT) if over.any() else exponents
    values = np.expm1(clipped, out=out)
    # factor * expm1 may overflow to +inf even below the exponent threshold
    # (the scalar reference's Python-float product does the same, silently);
    # +inf is the correct "never optimal" value either way.
    with np.errstate(over="ignore"):
        values *= factor
    values[over] = np.inf
    values += best_tail
    return values


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
        is_last_segment = j == n - 1
        if not (is_last_segment and not final_checkpoint):
            positions.append(j)
        x = j + 1
    return tuple(positions)


def _row_factor(rate: float, downtime: float, recovery: float) -> float:
    """Row constant ``e^{lambda R} (1/lambda + D)``, ``+inf`` when ``lambda R`` overflows."""
    rec_exponent = rate * recovery
    if rec_exponent > _MAX_EXPONENT:
        return np.inf
    return float(np.exp(rec_exponent)) * (1.0 / rate + downtime)


def chain_dp_tables(
    prefix: np.ndarray,
    checkpoint_costs: np.ndarray,
    recovery_for_row: Callable[[int], float],
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom-up tables of the unbudgeted placement DP, one vector op row at a time.

    Parameters
    ----------
    prefix:
        Work prefix sums ``P[0..n]`` (``P[0] = 0``).
    checkpoint_costs:
        Cost ``C_j`` charged when a segment ends after position ``j``.
    recovery_for_row:
        ``recovery_for_row(x)`` is the recovery cost in effect for a segment
        starting at position ``x`` (i.e. rolling back to the checkpoint that
        precedes ``x``).
    final_checkpoint:
        When False the last position's checkpoint cost is dropped (the final
        segment ends without a checkpoint).

    Returns
    -------
    (best, choice):
        ``best[x]`` is the optimal expected time for positions ``x..n-1``
        (``best[n] = 0``); ``choice[x]`` the first-lowest-index optimal
        segment end for a segment starting at ``x`` (``n - 1`` when every
        candidate overflows, matching the scalar references' initialisation).
    """
    n = len(checkpoint_costs)
    ckpt_eff = np.ascontiguousarray(checkpoint_costs, dtype=float)
    if not final_checkpoint:
        ckpt_eff = ckpt_eff.copy()
        ckpt_eff[n - 1] = 0.0
    best = np.empty(n + 1)
    best[n] = 0.0
    choice = np.empty(n, dtype=np.int64)
    workspace = np.empty(n)
    for x in range(n - 1, -1, -1):
        factor = _row_factor(rate, downtime, recovery_for_row(x))
        if not np.isfinite(factor):
            best[x] = np.inf
            choice[x] = n - 1
            continue
        # lambda * (W + C) with the scalar loops' exact association:
        # work = prefix[j + 1] - prefix[x], then work + C_j, then rate * (..).
        exponents = rate * ((prefix[x + 1 :] - prefix[x]) + ckpt_eff[x:])
        values = row_transition_values(
            factor, exponents, best[x + 1 :], out=workspace[: n - x]
        )
        j = int(np.argmin(values))
        value = values[j]
        if value < np.inf:
            best[x] = value
            choice[x] = x + j
        else:
            best[x] = np.inf
            choice[x] = n - 1
    return best, choice


def budget_dp_tables(
    prefix: np.ndarray,
    checkpoint_costs: np.ndarray,
    recovery_for_row: Callable[[int], float],
    downtime: float,
    rate: float,
    budget_cap: int,
    *,
    final_checkpoint: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom-up tables of the budgeted chain DP, whole budget axis per row.

    State ``best[x, b]`` is the optimal expected time for tasks ``x..n-1``
    with at most ``b`` checkpoints remaining.  Each row computes its
    ``j``-vector of segment costs once (they do not depend on the budget) and
    then sweeps the entire budget dimension in one broadcast add + ``argmin``
    over the ``(j, b)`` value matrix.

    ``choice[x, b]`` is the chosen segment end, with the scalar reference's
    sentinels: ``n`` for "run to the end without a further checkpoint"
    (allowed only when ``final_checkpoint`` is False) and ``-1`` when no
    option is feasible.
    """
    n = len(checkpoint_costs)
    ckpt = np.ascontiguousarray(checkpoint_costs, dtype=float)
    best = np.full((n + 1, budget_cap + 1), np.inf)
    choice = np.full((n + 1, budget_cap + 1), -1, dtype=np.int64)
    best[n, :] = 0.0
    for x in range(n - 1, -1, -1):
        factor = _row_factor(rate, downtime, recovery_for_row(x))
        if np.isfinite(factor):
            exponents = rate * ((prefix[x + 1 :] - prefix[x]) + ckpt[x:])
            costs = row_transition_values(
                factor, exponents, np.zeros(n - x)
            )
        else:
            costs = np.full(n - x, np.inf)
        # Option 1 (no further checkpoint): available at every budget level,
        # evaluated first by the reference, so option 2 must strictly improve
        # on it to win.
        if not final_checkpoint:
            if np.isfinite(factor):
                tail_exponent = rate * ((prefix[n] - prefix[x]) + 0.0)
                tail_cost = (
                    factor * float(np.expm1(tail_exponent))
                    if tail_exponent <= _MAX_EXPONENT
                    else np.inf
                )
            else:
                tail_cost = np.inf
            if tail_cost < np.inf:
                best[x, :] = tail_cost
                choice[x, :] = n
        if budget_cap >= 1:
            # values[k, b-1] = cost(x, x+k) + best[x+k+1, b-1]: one broadcast
            # add covers every remaining budget level at once.
            values = costs[:, None] + best[x + 1 :, :budget_cap]
            j_rel = np.argmin(values, axis=0)  # first lowest index per budget
            vmin = values[j_rel, np.arange(budget_cap)]
            better = vmin < best[x, 1:]
            best[x, 1:] = np.where(better, vmin, best[x, 1:])
            choice[x, 1:] = np.where(better, x + j_rel, choice[x, 1:])
    return best, choice
