"""Seeded input streams of the three workloads.

Every stream is a pure function of ``(workload, seed, count)`` and is built
before timing starts; the program under test receives only the generated
specs and instances.  A stream is a sequence of blocks: each block holds
every combination of the categorical factors (failure law, engine, run
count; or solver kind, in fixed proportions) once, in a seeded order, and
runs stop only at a block boundary.  Sizes and loads come from
low-discrepancy sequences (:class:`Weyl`).  Two seeds therefore give
the same mix of small and large inputs, and a run's medians move with the
program, not with the luck of the draw.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.workflows.generators import random_layered_dag, uniform_random_chain

STRATEGIES = ("optimal_dp", "checkpoint_all", "checkpoint_none", "daly_period")
DOWNTIME = 0.5
LAWS = (
    ("exponential", {}),
    ("weibull", {"shape": 0.7}),
    ("lognormal", {"sigma": 1.0}),
)
#: (engine, num_runs) classes.  Direct: three vectorized campaigns in four,
#: one scalar; served: vectorized only.
DIRECT_CLASSES = ((None, 500), ("vectorized", 500), ("vectorized", 2000), ("vectorized", 5000))
SERVED_CLASSES = (("vectorized", 200), ("vectorized", 1000), ("vectorized", 5000))
DIRECT_CHAIN = (10, 200)
SERVED_CHAIN = (5, 60)
#: lambda x total work: keeps truncated runs near zero (see README).
LOAD_RANGE = (0.2, 1.0)

#: Solver kinds and how many of each one block of the stream holds; the
#: counts give each kind a comparable share of wall time.
SOLVER_BLOCK = (("chain_dp", 32), ("budget_dp", 80), ("dag", 40), ("independent", 1))
SOLVER_LOAD = (1.0, 10.0)
#: The independent-task heuristic's cost varies ~40x with its load and
#: checkpoint cost; narrower ranges keep its instances comparable.
INDEPENDENT_LOAD = (4.0, 8.0)
INDEPENDENT_CHECKPOINT = (0.3, 0.7)

_WORKLOAD_TAGS = {"campaign_direct": 1, "campaign_served": 2, "solver_mix": 3, "warmup": 4}


#: Weyl steps: fractional parts of square roots of primes.  Samplers of one
#: stream take distinct steps, so their sequences are not shifted copies of
#: each other (equal steps would tie, say, chain size to failure load).
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


class Weyl:
    """Draws on ``[lo, hi]`` from a Weyl sequence ``start + k * step (mod 1)``.

    Any run of consecutive draws covers the range almost evenly, so a run
    that stops after an arbitrary number of operations still sees the same
    spread of sizes whatever the seed.
    """

    def __init__(self, lo: float, hi: float, step: float, start: float) -> None:
        self.lo, self.hi, self.step = float(lo), float(hi), step
        self._u = float(start)

    def unit(self) -> float:
        self._u = (self._u + self.step) % 1.0
        return self._u

    def draw(self) -> float:
        return self.lo + (self.hi - self.lo) * self.unit()

    def draw_int(self) -> int:
        """Integer in ``[lo, hi]`` (both ends included)."""
        return int(min(self.hi, np.floor(self.lo + (self.hi - self.lo + 1) * self.unit())))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_WORKLOAD_TAGS[workload], seed])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def block_size(workload: str) -> int:
    """Operations per block of the workload's stream."""
    if workload == "solver_mix":
        return sum(weight for _, weight in SOLVER_BLOCK)
    classes = SERVED_CLASSES if workload == "campaign_served" else DIRECT_CLASSES
    return len(LAWS) * len(classes)


def campaign_specs(workload: str, seed: int, count: int) -> List[ScenarioSpec]:
    """``count`` distinct campaign specs for ``campaign_direct`` or ``campaign_served``."""
    served = workload == "campaign_served"
    classes = SERVED_CLASSES if served else DIRECT_CLASSES
    n_lo, n_hi = SERVED_CHAIN if served else DIRECT_CHAIN
    rng = _rng(workload, seed)
    combos = [(law, cls) for law in LAWS for cls in classes]
    sizes = {index: Weyl(n_lo, n_hi, _STEPS[0], rng.uniform()) for index in range(len(combos))}
    loads = {index: Weyl(*LOAD_RANGE, _STEPS[1], rng.uniform()) for index in range(len(combos))}
    specs: List[ScenarioSpec] = []
    while len(specs) < count:
        for index in rng.permutation(len(combos)):
            (kind, params), (engine, runs) = combos[index]
            chain = ChainSpec(n=sizes[index].draw_int(), seed=_seed(rng))
            total_work = float(sum(chain.build().works))
            specs.append(ScenarioSpec(
                name=f"{workload}-{seed}-{len(specs)}",
                chain=chain,
                failure=FailureSpec(kind=kind, mtbf=total_work / loads[index].draw(), **params),
                strategies=STRATEGIES,
                num_runs=runs,
                downtime=DOWNTIME,
                seed=_seed(rng),
                engine=engine,
            ))
    return specs[:count]


#: Mean work of a task drawn from ``U(1, 10)``; solver rates are set from it.
_MEAN_TASK_WORK = 5.5


@dataclass(frozen=True)
class SolverInstance:
    """One analytic solve: its kind and the parameters that determine its input.

    :meth:`build` materialises the input (deterministic for the parameters);
    the benchmark builds it just before the solve, with the clock stopped, so
    a long stream of large chains does not sit in memory.
    """

    kind: str
    params: Dict[str, Any]

    def build(self) -> Any:
        """The LinearChain, Workflow or tuple of task works this instance solves."""
        p = self.params
        if self.kind in ("chain_dp", "budget_dp"):
            return uniform_random_chain(p["n"], seed=p["seed"])
        if self.kind == "dag":
            return random_layered_dag(p["layers"], p["width"], seed=p["seed"])
        return tuple(float(w) for w in np.random.default_rng(p["seed"]).uniform(1.0, 10.0, p["n"]))

    @property
    def num_tasks(self) -> int:
        return self.params.get("n") or self.params["layers"] * self.params["width"]


def solver_instances(seed: int, count: int) -> List[SolverInstance]:
    """``count`` solver instances in stratified blocks of :data:`SOLVER_BLOCK`.

    The failure rate puts lambda x (expected total work) in :data:`SOLVER_LOAD`
    (:data:`INDEPENDENT_LOAD` for independent tasks).
    """
    rng = _rng("solver_mix", seed)
    steps = itertools.cycle(_STEPS)

    def seeded(lo: float, hi: float) -> Weyl:
        return Weyl(lo, hi, next(steps), rng.uniform())

    def ladder(lo: float, hi: float) -> Weyl:
        return Weyl(lo, hi, next(steps), 0.5)

    # The independent-task heuristic's cost swings ~30x with its size, load
    # and checkpoint cost, and a run holds only about ten of them, so those
    # three walk the same ladder for every seed; the seed draws the works.
    draws = {
        "chain_dp": {"n": seeded(200, 2000)},
        "budget_dp": {"n": seeded(100, 300), "budget": seeded(10, 50)},
        "dag": {"layers": seeded(5, 20), "width": seeded(4, 10)},
        "independent": {"n": ladder(20, 80)},
    }
    costs = ladder(*INDEPENDENT_CHECKPOINT)
    loads = {kind: ladder(*INDEPENDENT_LOAD) if kind == "independent" else seeded(*SOLVER_LOAD)
             for kind, _ in SOLVER_BLOCK}
    block = [kind for kind, weight in SOLVER_BLOCK for _ in range(weight)]
    out: List[SolverInstance] = []
    while len(out) < count:
        for position in rng.permutation(len(block)):
            kind = block[position]
            params: Dict[str, Any] = {"seed": _seed(rng)}
            params.update({key: sampler.draw_int() for key, sampler in draws[kind].items()})
            if kind == "independent":
                params["checkpoint_cost"] = costs.draw()
            instance = SolverInstance(kind=kind, params=params)
            params["rate"] = loads[kind].draw() / (_MEAN_TASK_WORK * instance.num_tasks)
            params["downtime"] = DOWNTIME
            out.append(instance)
    return out[:count]


def read_choices(seed: int, count: int) -> np.ndarray:
    """Uniform draws in [0, 1) that pick which earlier jobs the served client reads."""
    return _rng("campaign_served", seed + 1).uniform(size=count)


def warmup_specs(seed: int) -> Tuple[ScenarioSpec, ScenarioSpec]:
    """A small scalar and a small vectorized campaign, distinct from every stream spec."""
    rng = _rng("warmup", seed)
    base = dict(
        chain=ChainSpec(n=8, seed=_seed(rng)),
        failure=FailureSpec(kind="exponential", mtbf=80.0),
        strategies=STRATEGIES, num_runs=200, downtime=DOWNTIME,
    )
    return (
        ScenarioSpec(name="warmup-scalar", seed=_seed(rng), **base),
        ScenarioSpec(name="warmup-vectorized", seed=_seed(rng), engine="vectorized", **base),
    )


def stream_digest(items: Sequence[Any]) -> str:
    """sha256 over the canonical JSON of a generated stream (specs or solver params)."""
    payload = [
        item.to_dict() if isinstance(item, ScenarioSpec) else {"kind": item.kind, **item.params}
        for item in items
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
