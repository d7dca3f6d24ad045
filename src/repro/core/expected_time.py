"""Expected time to execute a work segment followed by a checkpoint.

This module implements the paper's Proposition 1, its building blocks
(Equations 2-5), and the alternative formulas from the related work that the
paper compares against:

* the exact closed form (Equation 6)::

      E[T(W, C, D, R, lambda)] = e^{lambda R} (1/lambda + D) (e^{lambda (W+C)} - 1)

* ``E[T_lost]`` (Equation 4) and ``E[T_rec]`` (Equation 5), useful on their
  own and for the validation experiments;

* Young's first-order and Daly's higher-order optimal checkpoint *periods*
  for divisible jobs (references [22] and [7]);

* the Bouguerra-et-al.-style formula (reference [12]) that the paper points
  out is inaccurate because it charges a recovery before *every* execution
  attempt, including the first one.  We implement it for the comparison
  experiment (E2), not for production use.

Numerical care: the formula involves ``e^{lambda (W+C)} - 1``.  When
``lambda (W + C)`` is tiny this difference loses precision if computed
naively, so :func:`expected_completion_time` uses ``expm1``.  When the
exponent is large (very failure-prone platform or very long segment) the
result overflows ``float``; we raise :class:`OverflowError` with a clear
message instead of silently returning ``inf``, because a schedule with such a
segment is essentially never going to complete and the caller almost certainly
passed wrong units.

The transcendentals go through NumPy's scalar ufuncs (:data:`_exp`,
:data:`_expm1`) rather than :mod:`math`: NumPy's ``exp``/``expm1`` are
internally consistent between scalar calls and array sweeps but differ from
glibc's ``libm`` by up to 1 ulp on some inputs, so sharing the ufuncs is what
lets the vectorized DP kernels (:mod:`repro.core.dp_kernels`) reproduce this
scalar reference *bit for bit* -- the same engine-neutrality trick the
Monte-Carlo engines use for their shared delay plans.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from repro._validation import check_non_negative, check_positive

__all__ = [
    "ANALYTIC_NUMERICS",
    "expected_completion_time",
    "expected_lost_time",
    "expected_recovery_time",
    "expected_segments_time",
    "bouguerra_expected_time",
    "young_period",
    "daly_first_order_period",
    "daly_higher_order_period",
]

# Beyond this value of lambda * (W + C + R) the expectation exceeds ~1e260 and
# downstream arithmetic (sums over segments) would overflow anyway.
_MAX_EXPONENT = 600.0

#: Generation tag of the analytic results.  Cached or deduplicated artifacts
#: whose *values* embed analytic results (experiment tables, not Monte-Carlo
#: samples) include this tag in their keys, so a change that moves them by an
#: ulp recomputes them instead of replaying stale bits: switching libm
#: generations (math.* -> NumPy ufuncs, <= 1 ulp), then running the one
#: cached-cost local search at every instance size (E5's n = 5 row moved by
#: one ulp).
ANALYTIC_NUMERICS = "np-ufunc-one-search"


def _exp(value: float) -> float:
    """``e^value`` through the same ufunc the vectorized DP kernels apply to arrays."""
    return float(np.exp(value))


def _expm1(value: float) -> float:
    """``e^value - 1`` through the same ufunc the vectorized DP kernels apply to arrays."""
    return float(np.expm1(value))


def _checked_exponent(value: float, what: str) -> float:
    if value > _MAX_EXPONENT:
        raise OverflowError(
            f"{what} = {value:.3g} is too large: the expected time would exceed "
            "1e260 time units. The segment is effectively never going to complete; "
            "check the failure rate and the work/checkpoint durations (unit mismatch?)."
        )
    return value


def expected_completion_time(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    rate: float,
) -> float:
    """Exact expected time to execute ``work`` and checkpoint it (Proposition 1).

    The segment of duration ``work`` is executed on a platform whose failures
    form a Poisson process of rate ``rate`` (the paper's ``lambda``, i.e. the
    *platform* rate ``p * lambda_proc``).  After the work completes, a
    checkpoint of duration ``checkpoint`` is taken.  Whenever a failure
    strikes (during work, checkpoint, or recovery -- but not during downtime),
    the platform is down for ``downtime``, then a recovery of duration
    ``recovery`` is attempted, and the whole segment restarts from the
    recovered state.

    Parameters
    ----------
    work:
        Duration ``W >= 0`` of the work segment (failure-free).
    checkpoint:
        Duration ``C >= 0`` of the checkpoint taken after the work.
    downtime:
        Downtime ``D >= 0`` after each failure.
    recovery:
        Recovery duration ``R >= 0`` after each downtime.
    rate:
        Platform failure rate ``lambda > 0``.

    Returns
    -------
    float
        ``E[T(W, C, D, R, lambda)] = e^{lambda R} (1/lambda + D)
        (e^{lambda (W + C)} - 1)``.

    Notes
    -----
    The formula is exact for Exponential failures and any values of ``W``,
    ``C``, ``D``, ``R`` (they may in turn depend on the number of processors,
    see :mod:`repro.models`).  When ``W + C = 0`` the result is 0: nothing to
    do, nothing to checkpoint.
    """
    work = check_non_negative("work", work)
    checkpoint = check_non_negative("checkpoint", checkpoint)
    downtime = check_non_negative("downtime", downtime)
    recovery = check_non_negative("recovery", recovery)
    rate = check_positive("rate", rate)
    if work + checkpoint == 0.0:
        return 0.0
    exponent = _checked_exponent(rate * (work + checkpoint), "lambda * (W + C)")
    rec_exponent = _checked_exponent(rate * recovery, "lambda * R")
    return _exp(rec_exponent) * (1.0 / rate + downtime) * _expm1(exponent)


def expected_lost_time(work: float, checkpoint: float, rate: float) -> float:
    """Expected time lost to an interrupted attempt, ``E[T_lost]`` (Equation 4).

    This is the expected amount of time spent computing before the first
    failure, *knowing* that this failure occurs within the next ``W + C``
    units of time::

        E[T_lost] = 1/lambda - (W + C) / (e^{lambda (W + C)} - 1)
    """
    work = check_non_negative("work", work)
    checkpoint = check_non_negative("checkpoint", checkpoint)
    rate = check_positive("rate", rate)
    total = work + checkpoint
    if total == 0.0:
        return 0.0
    exponent = _checked_exponent(rate * total, "lambda * (W + C)")
    return 1.0 / rate - total / _expm1(exponent)


def expected_recovery_time(downtime: float, recovery: float, rate: float) -> float:
    """Expected time to complete downtime plus recovery, ``E[T_rec]`` (Equation 5).

    Failures can strike during recovery (forcing another downtime and another
    recovery attempt) but not during downtime::

        E[T_rec] = D e^{lambda R} + (1/lambda)(e^{lambda R} - 1)
    """
    downtime = check_non_negative("downtime", downtime)
    recovery = check_non_negative("recovery", recovery)
    rate = check_positive("rate", rate)
    exponent = _checked_exponent(rate * recovery, "lambda * R")
    return downtime * _exp(exponent) + _expm1(exponent) / rate


def expected_segments_time(
    segments: Iterable[Tuple[float, float, float]],
    downtime: float,
    rate: float,
) -> float:
    """Expected total time of a sequence of independently checkpointed segments.

    Each segment is a tuple ``(work, checkpoint, recovery)`` where ``recovery``
    is the cost of rolling back to the *start* of that segment (i.e. to the
    checkpoint that precedes it, or to the initial state for the first
    segment).  By the memoryless property and linearity of expectation, the
    expected makespan is simply the sum of the per-segment Proposition 1
    expectations -- this is the decomposition both the chain DP (Section 5)
    and the NP-hardness proof (Section 4) rely on.
    """
    total = 0.0
    for index, (work, checkpoint, recovery) in enumerate(segments):
        try:
            total += expected_completion_time(work, checkpoint, downtime, recovery, rate)
        except (ValueError, OverflowError) as exc:
            raise type(exc)(f"segment {index}: {exc}") from exc
    return total


def bouguerra_expected_time(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    rate: float,
) -> float:
    """Bouguerra-et-al.-style expectation that charges a recovery before every attempt.

    The paper notes (Section 3) that the formula in reference [12] is
    inaccurate because "a recovery always takes place before execution, which
    is false for the first attempt".  Modelling that assumption amounts to
    executing a segment of work ``R + W`` (recovery, then work) before the
    checkpoint, with the same retry structure, i.e.::

        E_bouguerra = (1/lambda + D) (e^{lambda (R + W + C)} - 1)

    which over-estimates the exact value of Proposition 1 whenever ``R > 0``
    (and coincides with it when ``R = 0``).  Provided for comparison
    experiments only.
    """
    work = check_non_negative("work", work)
    checkpoint = check_non_negative("checkpoint", checkpoint)
    downtime = check_non_negative("downtime", downtime)
    recovery = check_non_negative("recovery", recovery)
    rate = check_positive("rate", rate)
    if work + checkpoint + recovery == 0.0:
        return 0.0
    exponent = _checked_exponent(rate * (recovery + work + checkpoint), "lambda * (R + W + C)")
    return (1.0 / rate + downtime) * _expm1(exponent)


def young_period(checkpoint: float, rate: float) -> float:
    """Young's first-order approximation of the optimal checkpoint period [22].

    ``T_opt ~ sqrt(2 C / lambda)``, valid for divisible jobs when the
    checkpoint cost is small compared to the platform MTBF.  The returned
    period is the amount of *work* between two checkpoints (excluding the
    checkpoint itself).
    """
    checkpoint = check_positive("checkpoint", checkpoint)
    rate = check_positive("rate", rate)
    return math.sqrt(2.0 * checkpoint / rate)


def daly_first_order_period(checkpoint: float, rate: float) -> float:
    """Daly's first-order optimal period, identical to Young's formula [7]."""
    return young_period(checkpoint, rate)


def daly_higher_order_period(checkpoint: float, rate: float) -> float:
    """Daly's higher-order approximation of the optimal checkpoint period [7].

    ``T_opt ~ sqrt(2 C (M + D + R)) [1 + ...] - C`` in Daly's original
    notation; with an Exponential platform of rate ``lambda`` (MTBF
    ``M = 1/lambda``) the commonly used form is::

        T_opt = sqrt(2 C / lambda) * [1 + (1/3) sqrt(C lambda / 2)
                + (1/9) (C lambda / 2)] - C          if C < 2 / lambda
        T_opt = 1 / lambda                            otherwise

    The result is clamped to be positive (for very large ``C`` the first-order
    term minus ``C`` could go negative, in which case checkpointing more often
    than "always" makes no sense and the MTBF is returned).
    """
    checkpoint = check_positive("checkpoint", checkpoint)
    rate = check_positive("rate", rate)
    mtbf = 1.0 / rate
    if checkpoint >= 2.0 * mtbf:
        return mtbf
    half = checkpoint * rate / 2.0
    period = math.sqrt(2.0 * checkpoint / rate) * (
        1.0 + math.sqrt(half) / 3.0 + half / 9.0
    ) - checkpoint
    return max(period, min(mtbf, checkpoint))
