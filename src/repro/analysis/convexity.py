"""The convexity analysis underlying the NP-completeness proof (Proposition 2).

The proof of Proposition 2 lower-bounds the expected makespan of any solution
with ``m`` checkpoints by the value obtained when the ``m`` groups are
perfectly balanced, and then studies the function::

    g(m) = m * (e^{lambda (nT / m + C)} - 1)

showing that it is convex in ``m`` with a unique minimum at ``m = n`` for the
specific parameter choice ``lambda = 1 / (2T)`` and ``C = (ln 2 - 1/2) /
lambda``.  This module exposes ``g``, its first two derivatives, the balanced
lower bound ``E0 = (e^{lambda C} / lambda) * g(m)``, the continuous minimiser
of ``g``, and the proof's canonical parameter choice -- so that tests and
experiment E4 can check every claim of the proof numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro._validation import check_non_negative, check_positive
from repro.core.expected_time import _MAX_EXPONENT

__all__ = [
    "g_function",
    "g_derivative",
    "g_second_derivative",
    "balanced_group_expectation",
    "optimal_continuous_group_count",
    "proof_parameters",
    "ProofParameters",
]


def g_function(m: float, total_work: float, checkpoint_cost: float, rate: float) -> float:
    """``g(m) = m (e^{lambda (W_total / m + C)} - 1)`` from the proof of Prop. 2."""
    check_positive("m", m)
    check_positive("total_work", total_work)
    check_non_negative("checkpoint_cost", checkpoint_cost)
    check_positive("rate", rate)
    exponent = rate * (total_work / m + checkpoint_cost)
    if exponent > _MAX_EXPONENT:
        return math.inf
    return m * math.expm1(exponent)


def g_derivative(m: float, total_work: float, checkpoint_cost: float, rate: float) -> float:
    """First derivative ``g'(m) = (1 - lambda W_total / m) e^{lambda (W_total/m + C)} - 1``."""
    check_positive("m", m)
    check_positive("total_work", total_work)
    check_non_negative("checkpoint_cost", checkpoint_cost)
    check_positive("rate", rate)
    exponent = rate * (total_work / m + checkpoint_cost)
    if exponent > _MAX_EXPONENT:
        return -math.inf
    return (1.0 - rate * total_work / m) * math.exp(exponent) - 1.0


def g_second_derivative(
    m: float, total_work: float, checkpoint_cost: float, rate: float
) -> float:
    """Second derivative ``g''(m) = lambda^2 W_total^2 / m^3 * e^{lambda (W_total/m + C)} > 0``."""
    check_positive("m", m)
    check_positive("total_work", total_work)
    check_non_negative("checkpoint_cost", checkpoint_cost)
    check_positive("rate", rate)
    exponent = rate * (total_work / m + checkpoint_cost)
    if exponent > _MAX_EXPONENT:
        return math.inf
    return (rate ** 2) * (total_work ** 2) / (m ** 3) * math.exp(exponent)


def balanced_group_expectation(
    m: int,
    total_work: float,
    checkpoint_cost: float,
    rate: float,
) -> float:
    """Lower bound ``E0 = (e^{lambda C} / lambda) * g(m)`` on any ``m``-checkpoint schedule.

    This is the expectation achieved when the ``m`` groups all have total work
    ``W_total / m`` (perfect balance), with ``R = C`` and ``D = 0`` as in the
    proof; by convexity of ``x -> e^{lambda x}`` it lower-bounds the
    expectation of any partition into ``m`` groups.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.exp(rate * checkpoint_cost) / rate * g_function(
        float(m), total_work, checkpoint_cost, rate
    )


def optimal_continuous_group_count(
    total_work: float, checkpoint_cost: float, rate: float, *, max_groups: float = 1e9
) -> float:
    """Real-valued minimiser of ``g`` (root of ``g'``), found by bisection.

    ``g`` is convex and ``g'`` is strictly increasing (the proof computes
    ``g'' > 0``), so the root of ``g'`` is unique.  If ``g'`` is still
    negative at ``max_groups`` the function returns ``max_groups`` (the
    minimum lies beyond the search range, i.e. "checkpoint as often as
    possible").
    """
    check_positive("total_work", total_work)
    check_non_negative("checkpoint_cost", checkpoint_cost)
    check_positive("rate", rate)
    lo = 1e-9
    hi = float(max_groups)
    if g_derivative(hi, total_work, checkpoint_cost, rate) < 0.0:
        return hi
    # g'(m) -> -inf as m -> 0+, so a sign change exists in (lo, hi].
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g_derivative(mid, total_work, checkpoint_cost, rate) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ProofParameters:
    """The parameter choice used in the proof of Proposition 2.

    Given the 3-PARTITION target sum ``T`` and the number of subsets ``n``:
    ``lambda = 1 / (2T)``, ``C = R = (ln 2 - 1/2) / lambda``, ``D = 0`` and the
    decision bound ``K = n e^{lambda C} / lambda * (e^{lambda (T + C)} - 1)``.
    With this choice ``e^{lambda (T + C)} = 2`` and ``g'(n) = 0``, so the
    minimum of the lower bound is reached exactly at ``m = n`` groups of work
    ``T`` each.
    """

    rate: float
    checkpoint_cost: float
    downtime: float
    bound: float

    def verify_identities(self, target_sum: float, num_subsets: int) -> Tuple[float, float]:
        """Return ``(e^{lambda (T + C)}, g'(n))`` -- should be ``(2, 0)`` up to rounding."""
        value = math.exp(self.rate * (target_sum + self.checkpoint_cost))
        derivative = g_derivative(
            float(num_subsets),
            num_subsets * target_sum,
            self.checkpoint_cost,
            self.rate,
        )
        return value, derivative


def proof_parameters(target_sum: float, num_subsets: int) -> ProofParameters:
    """Build the proof's canonical parameters for a 3-PARTITION instance.

    Parameters
    ----------
    target_sum:
        The 3-PARTITION target ``T`` (each subset must sum to ``T``).
    num_subsets:
        The number ``n`` of subsets (the instance has ``3n`` integers).
    """
    check_positive("target_sum", target_sum)
    if num_subsets < 1:
        raise ValueError(f"num_subsets must be >= 1, got {num_subsets}")
    rate = 1.0 / (2.0 * target_sum)
    checkpoint_cost = (math.log(2.0) - 0.5) / rate
    bound = (
        num_subsets
        * math.exp(rate * checkpoint_cost)
        / rate
        * math.expm1(rate * (target_sum + checkpoint_cost))
    )
    return ProofParameters(
        rate=rate, checkpoint_cost=checkpoint_cost, downtime=0.0, bound=bound
    )
