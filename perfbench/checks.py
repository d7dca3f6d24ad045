"""Output checks: every operation the benchmark times is also verified.

A failed check counts as a failed operation; any failure makes the run exit
non-zero.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.expected_time import expected_completion_time
from repro.core.independent import grouping_expected_time
from repro.core.schedule import CheckpointPlan, Schedule

#: Prop. 1 agreement: campaign mean within this many standard errors.
PROP1_SIGMAS = 5.0
#: Relative slack when comparing a solver's value with a trivial schedule's.
SOLVER_RTOL = 1e-12


def samples_digest(makespans: Mapping[str, Sequence[float]]) -> str:
    """sha256 over the raw float64 bytes of every strategy's samples (bit-exact)."""
    digest = hashlib.sha256()
    for name in sorted(makespans):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(np.asarray(makespans[name], dtype=np.float64).tobytes())
    return digest.hexdigest()


def same_samples(a: Mapping[str, Sequence[float]], b: Mapping[str, Sequence[float]]) -> bool:
    """True when both campaigns hold bit-identical samples for the same strategies."""
    return samples_digest(a) == samples_digest(b)


def prop1_violations(spec, makespans: Mapping[str, Sequence[float]]) -> List[str]:
    """Exponential campaigns: each strategy's mean within 5 SE of Prop. 1.

    Strategies with a truncated run (a makespan beyond the trace horizon,
    after which the trace injects no failures) are skipped: their mean is
    biased low by construction.  Returns one message per violation.
    """
    if spec.failure.kind != "exponential":
        return []
    schedules = spec.build_schedules()
    horizon = spec.horizon_factor * max(s.failure_free_time() for s in schedules.values())
    rate = spec.failure.rate_equivalent
    problems = []
    for name, schedule in schedules.items():
        samples = np.asarray(makespans[name], dtype=float)
        if samples.max() > horizon:
            continue
        expected = schedule.expected_makespan(spec.downtime, rate)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        if abs(samples.mean() - expected) > PROP1_SIGMAS * max(se, 1e-12 * expected):
            problems.append(
                f"{spec.name}/{name}: mean {samples.mean():.6g} vs Prop. 1 "
                f"{expected:.6g} (SE {se:.3g})"
            )
    return problems


def _no_worse(value: float, trivial: Dict[str, float]) -> Optional[str]:
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    for name, bound in trivial.items():
        if value > bound * (1.0 + SOLVER_RTOL):
            return f"value {value:.12g} worse than {name} {bound:.12g}"
    return None


def _chain_trivial(chain, downtime: float, rate: float) -> Dict[str, float]:
    """Prop. 1 expectations of checkpoint-none (final checkpoint only) and checkpoint-all.

    The same per-segment sums as ``Schedule.expected_makespan`` of those
    placements, without materialising a workflow per check.
    """
    def segment(work: float, index: int, start: int) -> float:
        return expected_completion_time(
            work, chain.checkpoint_costs[index], downtime, chain.recovery_before(start), rate)

    total = 0.0
    for work in chain.works:
        total += work
    return {
        "checkpoint_none": segment(total, chain.n - 1, 0),
        "checkpoint_all": sum(segment(chain.works[i], i, i) for i in range(chain.n)),
    }


def solver_violation(instance, data, result) -> Optional[str]:
    """A finite value no worse than the trivial schedules of the same instance."""
    p = instance.params
    kind = instance.kind
    if kind in ("chain_dp", "budget_dp"):
        trivial = _chain_trivial(data, p["downtime"], p["rate"])
        if kind == "budget_dp":
            del trivial["checkpoint_all"]  # needs n checkpoints, over any budget here
        if kind == "budget_dp" and result.num_checkpoints > p["budget"]:
            return f"{result.num_checkpoints} checkpoints over a budget of {p['budget']}"
        return _no_worse(result.expected_makespan, trivial)
    if kind == "dag":
        n = len(result.order)
        trivial = {
            label: Schedule(data, list(result.order), plan).expected_makespan(
                p["downtime"], p["rate"])
            for label, plan in (("checkpoint_all", CheckpointPlan.after_every_task(n)),
                                ("checkpoint_none", CheckpointPlan.from_positions(n, [n - 1])))
        }
        return _no_worse(result.expected_makespan, trivial)
    works = list(data)
    cost = p["checkpoint_cost"]
    trivial = {
        label: grouping_expected_time(groups, works, cost, cost, p["downtime"], p["rate"])
        for label, groups in (("one_group", [list(range(len(works)))]),
                              ("singletons", [[i] for i in range(len(works))]))
    }
    return _no_worse(result.expected_makespan, trivial)
