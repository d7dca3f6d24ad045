"""Failure inter-arrival time distributions.

The paper's core results assume that processor failure inter-arrival times
follow an Exponential distribution of parameter ``lambda_proc`` so that, with
``p`` processors running in full parallelism, the *platform* failure
inter-arrival times follow an Exponential distribution of parameter
``lambda = p * lambda_proc`` (Section 2).  Section 6 points out that Weibull
and log-normal laws are considered more realistic in practice and that only
simulation/heuristic approaches are available for them; those two laws are
provided here so that the simulator and the heuristic schedulers can exercise
the non-memoryless case.

Every distribution exposes the same small interface
(:class:`FailureDistribution`): density, CDF, survival, hazard rate, mean and
sampling.  The simulators need nothing more: each processor is a renewal
process whose next failure is its last renewal plus a fresh
:meth:`FailureDistribution.sample`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._validation import check_positive, check_positive_int

__all__ = [
    "FailureDistribution",
    "ExponentialFailure",
    "WeibullFailure",
    "LogNormalFailure",
    "superposed_rate",
]


class FailureDistribution(ABC):
    """Abstract base class for failure inter-arrival time laws.

    Subclasses model the distribution of the time between two consecutive
    failures of a *single* processor.  All times are expressed in the same
    (arbitrary) unit as task durations.
    """

    #: Whether the law is memoryless (only the Exponential law is).
    memoryless: bool = False

    @abstractmethod
    def pdf(self, t: float) -> float:
        """Probability density at time ``t >= 0``."""

    @abstractmethod
    def cdf(self, t: float) -> float:
        """Probability that a failure strikes within ``t`` time units."""

    @abstractmethod
    def mean(self) -> float:
        """Mean time between failures (MTBF) of a single processor."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one sample (``size is None``) or an array of samples."""

    def survival(self, t: float) -> float:
        """Probability that no failure strikes within ``t`` time units."""
        return 1.0 - self.cdf(t)

    def hazard(self, t: float) -> float:
        """Instantaneous failure (hazard) rate at time ``t``."""
        s = self.survival(t)
        if s <= 0.0:
            return math.inf
        return self.pdf(t) / s

    def mtbf(self) -> float:
        """Alias for :meth:`mean` using the usual resilience-community acronym."""
        return self.mean()


@dataclass(frozen=True)
class ExponentialFailure(FailureDistribution):
    """Exponential failure law of rate ``rate`` (the paper's ``lambda``).

    The mean time between failures is ``1 / rate``.  This law is memoryless,
    which is the property that makes the closed-form expectation of
    Proposition 1 possible.

    Parameters
    ----------
    rate:
        Failure rate ``lambda > 0`` (failures per time unit).
    """

    rate: float

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        object.__setattr__(self, "rate", float(self.rate))

    memoryless = True

    def pdf(self, t: float) -> float:
        if t < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * t)

    def cdf(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * t)

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return math.exp(-self.rate * t)

    def hazard(self, t: float) -> float:
        return self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        out = rng.exponential(scale=1.0 / self.rate, size=size)
        return float(out) if size is None else out

    def scaled(self, factor: float) -> "ExponentialFailure":
        """Return the superposition of ``factor`` independent copies of this law.

        For Exponential laws the superposition of ``p`` i.i.d. processes is
        again Exponential with rate ``p * rate`` (Section 2 of the paper).
        """
        check_positive("factor", factor)
        return ExponentialFailure(rate=self.rate * factor)

    @classmethod
    def from_mtbf(cls, mtbf: float) -> "ExponentialFailure":
        """Build the law from a mean time between failures."""
        check_positive("mtbf", mtbf)
        return cls(rate=1.0 / mtbf)


@dataclass(frozen=True)
class WeibullFailure(FailureDistribution):
    """Weibull failure law with shape ``shape`` (k) and scale ``scale`` (lambda).

    Field studies of HPC systems (Schroeder & Gibson, Heath et al., Liu et
    al., Heien et al. -- the paper's references [8-11]) report Weibull shapes
    below 1, i.e. a decreasing hazard rate ("infant mortality").  The law is
    *not* memoryless, so no closed-form expected makespan exists and the
    schedulers fall back to simulation-evaluated heuristics (Section 6).

    Parameters
    ----------
    shape:
        Weibull shape parameter ``k > 0``.  ``k = 1`` degenerates to the
        Exponential law; ``k < 1`` means a decreasing hazard rate.
    scale:
        Weibull scale parameter ``lambda > 0`` (same unit as task durations).
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        check_positive("shape", self.shape)
        check_positive("scale", self.scale)
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "scale", float(self.scale))

    def pdf(self, t: float) -> float:
        if t < 0.0:
            return 0.0
        if t == 0.0:
            if self.shape < 1.0:
                return math.inf
            if self.shape == 1.0:
                return 1.0 / self.scale
            return 0.0
        z = t / self.scale
        return (self.shape / self.scale) * z ** (self.shape - 1.0) * math.exp(-(z ** self.shape))

    def cdf(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return -math.expm1(-((t / self.scale) ** self.shape))

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return math.exp(-((t / self.scale) ** self.shape))

    def hazard(self, t: float) -> float:
        if t < 0.0:
            return 0.0
        if t == 0.0:
            return self.pdf(0.0)
        return (self.shape / self.scale) * (t / self.scale) ** (self.shape - 1.0)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        out = self.scale * rng.weibull(self.shape, size=size)
        return float(out) if size is None else out

    @classmethod
    def from_mtbf(cls, mtbf: float, shape: float) -> "WeibullFailure":
        """Build a Weibull law with the given MTBF and shape."""
        check_positive("mtbf", mtbf)
        check_positive("shape", shape)
        scale = mtbf / math.gamma(1.0 + 1.0 / shape)
        return cls(shape=shape, scale=scale)


@dataclass(frozen=True)
class LogNormalFailure(FailureDistribution):
    """Log-normal failure law: ``log X ~ Normal(mu, sigma^2)``.

    Heien et al. [11] advocate log-normal fits for inter-failure times of
    large parallel systems.  Like Weibull, the law is not memoryless.

    Parameters
    ----------
    mu:
        Mean of the underlying normal distribution (of ``log X``).
    sigma:
        Standard deviation of the underlying normal distribution, ``> 0``.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        check_positive("sigma", self.sigma)
        if not math.isfinite(float(self.mu)):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))

    def pdf(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        z = (math.log(t) - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (t * self.sigma * math.sqrt(2.0 * math.pi))

    def cdf(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        z = (math.log(t) - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma * self.sigma)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        out = rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)
        return float(out) if size is None else out

    @classmethod
    def from_mtbf(cls, mtbf: float, sigma: float) -> "LogNormalFailure":
        """Build a log-normal law with the given MTBF and log-space std-dev."""
        check_positive("mtbf", mtbf)
        check_positive("sigma", sigma)
        mu = math.log(mtbf) - 0.5 * sigma * sigma
        return cls(mu=mu, sigma=sigma)


def superposed_rate(lambda_proc: float, num_processors: int) -> float:
    """Platform failure rate for ``num_processors`` Exponential processors.

    For Exponential laws, the superposition of ``p`` independent processes of
    rate ``lambda_proc`` is a Poisson process of rate ``p * lambda_proc``
    (Section 2 of the paper).  For non-Exponential laws no such scalar exists;
    use :class:`repro.failures.platform.Platform` to simulate the
    superposition instead.
    """
    check_positive("lambda_proc", lambda_proc)
    check_positive_int("num_processors", num_processors)
    return lambda_proc * num_processors
