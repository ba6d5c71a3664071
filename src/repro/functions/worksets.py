"""Working-set (input size) distributions.

Paper §II-B / §V-A: function inputs have widely varying sizes — COCO2014
images carry 1–15 objects, SQuAD2.0 passages span 35–641 words, and Azure
blob sizes span nine orders of magnitude. The samplers here reproduce those
published ranges so the execution-time model inherits the documented skew.

Each distribution exposes vectorised sampling (``sample``) plus a
``reference`` size used to normalise the workset factor in the performance
model. Block samplers that interleave draws from one stream with other
draws (:meth:`~repro.functions.model.FunctionModel.sample_dynamics_many`)
split a draw in two: ``raw_sampler`` makes the scalar random call, and
``from_raw`` maps a column of those raw draws to sizes with vector
operations that are bit-identical to the scalar ``sample``.
"""

from __future__ import annotations

import abc
import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import FunctionModelError

__all__ = [
    "WorksetDistribution",
    "FixedWorkset",
    "UniformIntWorkset",
    "LogUniformWorkset",
    "LognormalWorkset",
]


class WorksetDistribution(abc.ABC):
    """Interface for input working-set samplers."""

    @property
    @abc.abstractmethod
    def reference(self) -> float:
        """Reference (typical) working-set size used for normalisation."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw working-set size(s). Scalar when ``size`` is ``None``."""

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """(lower, upper) bounds of possible sizes (may be infinite)."""

    def raw_sampler(self, rng: np.random.Generator) -> _t.Callable[[], float]:
        """A zero-argument callable making the random calls of one scalar
        ``sample(rng)``; :meth:`from_raw` turns a column of its results
        into sizes."""
        return lambda: float(self.sample(rng))

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Sizes from a column of :meth:`raw_sampler` draws, each
        bit-identical to the scalar ``sample`` that made the same calls."""
        return raw


@dataclass(frozen=True)
class FixedWorkset(WorksetDistribution):
    """Degenerate distribution: every invocation sees the same input size."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise FunctionModelError(f"workset value must be > 0: {self.value}")

    @property
    def reference(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=np.float64)

    def raw_sampler(self, rng: np.random.Generator) -> _t.Callable[[], float]:
        value = float(self.value)
        return lambda: value

    def support(self) -> tuple[float, float]:
        return (self.value, self.value)


@dataclass(frozen=True)
class UniformIntWorkset(WorksetDistribution):
    """Uniform integer sizes in [lo, hi] (e.g. objects per COCO image)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo <= 0 or self.hi < self.lo:
            raise FunctionModelError(f"invalid range [{self.lo}, {self.hi}]")

    @property
    def reference(self) -> float:
        return (self.lo + self.hi) / 2.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draw = rng.integers(self.lo, self.hi + 1, size=size)
        if size is None:
            return float(draw)
        return draw.astype(np.float64)

    def raw_sampler(self, rng: np.random.Generator) -> _t.Callable[[], float]:
        integers, lo, hi = rng.integers, self.lo, self.hi + 1
        return lambda: integers(lo, hi)

    def support(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


@dataclass(frozen=True)
class LogUniformWorkset(WorksetDistribution):
    """Log-uniform sizes in [lo, hi] (e.g. words per SQuAD passage).

    Log-uniform matches the long-tailed but bounded spread of text lengths:
    most passages are short, a few are near the maximum.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo <= 0 or self.hi <= self.lo:
            raise FunctionModelError(f"invalid range [{self.lo}, {self.hi}]")
        # The bounds of the uniform draw, computed once (not dataclass
        # fields: equality, hashing and repr see only lo and hi).
        object.__setattr__(self, "_log_lo", float(np.log(self.lo)))
        object.__setattr__(self, "_log_hi", float(np.log(self.hi)))

    @property
    def reference(self) -> float:
        # geometric midpoint — the median of a log-uniform distribution
        return float(np.sqrt(self.lo * self.hi))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        u = rng.uniform(self._log_lo, self._log_hi, size=size)
        out = np.exp(u)
        if size is None:
            return float(out)
        return out

    def raw_sampler(self, rng: np.random.Generator) -> _t.Callable[[], float]:
        uniform, lo, hi = rng.uniform, self._log_lo, self._log_hi
        return lambda: uniform(lo, hi)

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        return np.exp(raw)

    def support(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


@dataclass(frozen=True)
class LognormalWorkset(WorksetDistribution):
    """Lognormal sizes (e.g. video/blob sizes with heavy upper tail)."""

    median: float
    sigma: float
    clip_hi: float = float("inf")

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise FunctionModelError(f"median must be > 0: {self.median}")
        if self.sigma < 0:
            raise FunctionModelError(f"sigma must be >= 0: {self.sigma}")
        if self.clip_hi <= self.median:
            raise FunctionModelError(
                f"clip_hi {self.clip_hi} must exceed median {self.median}"
            )

    @property
    def reference(self) -> float:
        return self.median

    def sample(self, rng: np.random.Generator, size: int | None = None):
        z = rng.standard_normal(size=size)
        out = np.minimum(self.median * np.exp(self.sigma * z), self.clip_hi)
        if size is None:
            return float(out)
        return out

    def raw_sampler(self, rng: np.random.Generator) -> _t.Callable[[], float]:
        return rng.standard_normal

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        return np.minimum(self.median * np.exp(self.sigma * raw), self.clip_hi)

    def support(self) -> tuple[float, float]:
        return (0.0, float(self.clip_hi))
