"""Declarative scenario specifications for simulation campaigns.

A :class:`ScenarioSpec` describes a paired simulation campaign -- which
workload, which failure law, which checkpoint strategies, how many
replications -- as *plain data*.  Nothing is materialised until
:meth:`ScenarioSpec.run` is called, which means a spec can be

* serialised to / from JSON (:meth:`to_dict` / :meth:`from_dict`) and kept in
  version control next to the experiment that uses it;
* hashed (:meth:`cache_key`) so the disk cache recognises a previously
  executed scenario whatever process asks for it;
* expanded into a sweep (:func:`expand_scenarios`) and fanned out over an
  execution backend (:func:`run_scenarios`), each scenario's replication
  chunks running wherever the backend decides.

The workload model matches the simulation experiments of the reproduction
(E6/E8 and the Weibull example): a random linear chain drawn from
:func:`repro.workflows.generators.uniform_random_chain`, checkpoint
strategies taken from :func:`repro.baselines.strategies.evaluate_chain_strategies`,
and a per-processor failure law from :mod:`repro.failures.distributions`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)
from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.schedule import Schedule
from repro.experiments.reporting import ResultTable
from repro.failures.distributions import (
    ExponentialFailure,
    FailureDistribution,
    LogNormalFailure,
    WeibullFailure,
)
from repro.runtime.hashing import stable_hash
from repro.workflows.chain import LinearChain
from repro.workflows.generators import uniform_random_chain

__all__ = [
    "ChainSpec",
    "FailureSpec",
    "ScenarioSpec",
    "expand_scenarios",
    "run_scenarios",
    "scenarios_table",
]


@dataclass(frozen=True)
class ChainSpec:
    """Plain-data description of a random linear-chain workload."""

    n: int
    work_range: Tuple[float, float] = (1.0, 10.0)
    checkpoint_range: Tuple[float, float] = (0.1, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int("n", self.n)
        check_non_negative_int("seed", self.seed)
        object.__setattr__(self, "work_range", tuple(float(x) for x in self.work_range))
        object.__setattr__(
            self, "checkpoint_range", tuple(float(x) for x in self.checkpoint_range)
        )

    def build(self) -> LinearChain:
        """Materialise the chain (deterministic for a given spec)."""
        return uniform_random_chain(
            self.n,
            work_range=self.work_range,
            checkpoint_range=self.checkpoint_range,
            seed=self.seed,
        )


@dataclass(frozen=True)
class FailureSpec:
    """Plain-data description of a per-processor failure inter-arrival law.

    ``kind`` selects the law: ``"exponential"`` (parameter ``mtbf``),
    ``"weibull"`` (``mtbf`` and ``shape``) or ``"lognormal"`` (``mtbf`` and
    ``sigma``).
    """

    kind: str
    mtbf: float
    shape: Optional[float] = None
    sigma: Optional[float] = None

    _KINDS = ("exponential", "weibull", "lognormal")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}; expected one of {self._KINDS}")
        check_positive("mtbf", self.mtbf)
        if self.kind == "weibull" and self.shape is None:
            raise ValueError("weibull failure spec requires a shape")
        if self.kind == "lognormal" and self.sigma is None:
            raise ValueError("lognormal failure spec requires a sigma")

    def build(self) -> FailureDistribution:
        """Materialise the failure law."""
        if self.kind == "exponential":
            return ExponentialFailure.from_mtbf(self.mtbf)
        if self.kind == "weibull":
            return WeibullFailure.from_mtbf(self.mtbf, shape=self.shape)
        return LogNormalFailure.from_mtbf(self.mtbf, sigma=self.sigma)

    @property
    def rate_equivalent(self) -> float:
        """The Exponential rate with the same MTBF (used for DP placements)."""
        return 1.0 / self.mtbf

    def label(self) -> str:
        if self.kind == "weibull":
            return f"weibull(k={self.shape:g})"
        if self.kind == "lognormal":
            return f"lognormal(s={self.sigma:g})"
        return "exponential"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, self-contained description of one simulation campaign.

    Attributes
    ----------
    name:
        Identifier of the scenario (used as the key of sweep results).
    chain:
        Workload description.
    failure:
        Per-processor failure law description.
    strategies:
        Checkpoint strategies to compare; any subset of the names produced by
        :func:`~repro.baselines.strategies.evaluate_chain_strategies`
        (``optimal_dp``, ``checkpoint_all``, ``checkpoint_none``,
        ``daly_period``, ``young_period``, ``every_2``, ``every_5``, ...).
    num_runs:
        Replication budget (shared failure traces per campaign).
    downtime:
        Downtime ``D`` applied after each failure.
    num_processors:
        Platform size for trace generation.
    horizon_factor:
        Trace horizon as a multiple of the largest failure-free makespan.
    seed:
        Root seed of the campaign's deterministic chunked RNG streams.
    engine:
        Execution engine of the campaign: ``None`` or ``"scalar"`` for
        block-drawn traces replayed one run at a time in a plain-float loop
        (bit-identical to the ``simulate_segments`` event loop),
        ``"vectorized"`` for the NumPy array program (see
        :mod:`repro.simulation.vectorized`).  The vectorized
        engine orders its trace draws differently, so it is part of the
        cache key -- but only then: ``None`` and ``"scalar"`` produce
        identical samples and hash identically (legacy specs keep their
        keys).
    """

    name: str
    chain: ChainSpec
    failure: FailureSpec
    strategies: Tuple[str, ...] = ("optimal_dp", "checkpoint_all", "checkpoint_none")
    num_runs: int = 1000
    downtime: float = 0.0
    num_processors: int = 1
    horizon_factor: float = 10.0
    seed: int = 0
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must not be empty")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.strategies:
            raise ValueError("a scenario must compare at least one strategy")
        check_positive_int("num_runs", self.num_runs)
        check_non_negative("downtime", self.downtime)
        check_positive_int("num_processors", self.num_processors)
        check_positive("horizon_factor", self.horizon_factor)
        # A bool or a float would hash differently from the equal int seed
        # (and NumPy rejects negatives only when the campaign runs).
        check_non_negative_int("seed", self.seed)
        if self.engine not in (None, "scalar", "vectorized"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected None, 'scalar' or "
                "'vectorized'"
            )

    # ------------------------------------------------------------------
    # Serialisation and hashing
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-compatible)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["chain"] = ChainSpec(**dict(payload["chain"]))
        payload["failure"] = FailureSpec(**dict(payload["failure"]))
        if "strategies" in payload:
            payload["strategies"] = tuple(payload["strategies"])
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def cache_key(self) -> str:
        """Stable content hash of everything that influences the results.

        The ``name`` is intentionally excluded: renaming a scenario must not
        force a recomputation.  The ``engine`` is included only when it can
        change the samples: ``None`` and ``"scalar"`` run the same scalar
        executor and hash identically (so legacy specs keep their keys),
        while ``"vectorized"`` orders its trace draws differently and gets
        its own key.
        """
        payload = self.to_dict()
        payload.pop("name")
        if payload.get("engine") in (None, "scalar"):
            payload.pop("engine", None)
        return stable_hash({"scenario": payload})

    # ------------------------------------------------------------------
    # Materialisation and execution
    # ------------------------------------------------------------------

    def build_chain(self) -> LinearChain:
        return self.chain.build()

    def build_law(self) -> FailureDistribution:
        return self.failure.build()

    def build_schedules(self) -> Dict[str, Schedule]:
        """Materialise one :class:`Schedule` per requested strategy.

        Only the requested strategies are evaluated (``only=``): a swept spec
        that compares, say, ``checkpoint_all`` vs ``checkpoint_none`` never
        pays the chain DP solve, and specs that do request ``optimal_dp`` get
        the vectorized solver the DP defaults to.
        """
        chain = self.build_chain()
        try:
            available = evaluate_chain_strategies(
                chain,
                self.downtime,
                self.failure.rate_equivalent,
                only=self.strategies,
            )
        except KeyError as exc:
            raise KeyError(f"scenario {self.name!r}: {exc.args[0]}") from exc
        return {
            strategy: available[strategy].to_schedule() for strategy in self.strategies
        }

    def runner(self):
        """Build the :class:`~repro.simulation.campaign.CampaignRunner` for this spec."""
        # Imported here: repro.simulation.campaign imports the runtime
        # backends, so a module-level import would be circular.
        from repro.simulation.campaign import CampaignRunner

        return CampaignRunner(
            self.build_schedules(),
            self.build_law(),
            num_processors=self.num_processors,
            downtime=self.downtime,
            horizon_factor=self.horizon_factor,
        )

    def run(
        self,
        *,
        backend=None,
        cache=None,
        chunk_size: Optional[int] = None,
        progress=None,
    ):
        """Execute the campaign; see :meth:`CampaignRunner.run` for the knobs.

        The result is bit-identical for a given spec whatever the backend or
        worker count, and a warm cache replays it without simulating at all.
        ``progress`` is the optional per-task ``callback(done, total)`` of
        :meth:`CampaignRunner.run` -- the scenario service threads its
        job-progress and cancellation hook through here.
        """
        return self.runner().run(
            self.num_runs,
            seed=self.seed,
            backend=backend,
            cache=cache,
            chunk_size=chunk_size,
            engine=self.engine,
            progress=progress,
        )


def expand_scenarios(base: ScenarioSpec, **axes: Sequence) -> List[ScenarioSpec]:
    """Cartesian sweep over scenario fields.

    Each keyword names a :class:`ScenarioSpec` field and supplies the values
    it sweeps over (e.g. ``failure=[...], num_runs=[500, 5000]``).  Every
    combination yields a copy of ``base`` with those fields replaced and a
    ``name`` suffixed with the combination index, in deterministic order.
    """
    if not axes:
        return [base]
    valid = {f.name for f in dataclasses.fields(ScenarioSpec)}
    for key in axes:
        if key not in valid or key == "name":
            raise ValueError(f"cannot sweep over {key!r}; sweepable fields: {sorted(valid - {'name'})}")
    names = list(axes)
    scenarios: List[ScenarioSpec] = []
    for index, combo in enumerate(itertools.product(*(axes[k] for k in names))):
        replacements = dict(zip(names, combo))
        replacements["name"] = f"{base.name}[{index}]"
        scenarios.append(dataclasses.replace(base, **replacements))
    return scenarios


def run_scenarios(
    scenarios: Sequence[ScenarioSpec],
    *,
    backend=None,
    cache=None,
    chunk_size: Optional[int] = None,
) -> Dict[str, "object"]:
    """Run several scenarios on a shared backend; returns ``{name: CampaignResult}``.

    Scenario names must be unique.  The backend is reused across scenarios so
    a process pool pays its start-up cost once for the whole sweep.
    """
    from repro.runtime.backends import backend_scope

    names = [spec.name for spec in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"scenario names must be unique, got {names}")
    results = {}
    with backend_scope(backend) as executor:
        for spec in scenarios:
            results[spec.name] = spec.run(
                backend=executor, cache=cache, chunk_size=chunk_size
            )
    return results


def scenarios_table(results: Mapping[str, "object"]) -> ResultTable:
    """Merge per-scenario campaign results into one summary table."""
    table = ResultTable(
        title=f"Scenario sweep ({len(results)} scenarios)",
        columns=["scenario", "strategy", "mean_makespan", "std", "num_runs"],
    )
    for name, result in results.items():
        for strategy in result.ranking():
            table.add_row(
                scenario=name,
                strategy=strategy,
                mean_makespan=result.mean(strategy),
                std=result.std(strategy),
                num_runs=result.num_runs,
            )
    return table
