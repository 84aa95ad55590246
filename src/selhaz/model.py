"""Exponential populations, reproducible sampling, and the selection rule.

The experiment: k independent exponential populations with hazard rates
sigma_1..sigma_k, a sample of size n from each, sufficient sums
Y_i = sum_j Y_ij (gamma distributed with integer shape n and rate sigma_i).
The natural rule selects the population with the largest sum; the selected
hazard sigma_J is the estimation target downstream.

Sampling is counter based. Every uniform is a hash of
(seed, stream_id, replication, population, observation), so a replication's
draws depend only on those labels and never on how many replications some
worker computed before it. That is what makes Monte Carlo results identical
across serial and parallel schedules, and it is a hard contract: the counter
layout below must not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DomainError

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_STREAM_SALT = _U64(0xD1B54A32D192ED03)


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 wrap-around is the whole point here.
    z = np.asarray(z, dtype=_U64)
    z = (z ^ (z >> _U64(30))) * _MIX_1
    z = (z ^ (z >> _U64(27))) * _MIX_2
    return z ^ (z >> _U64(31))


def _stream_key(seed: int, stream_id: int) -> np.uint64:
    with np.errstate(over="ignore"):
        h = _mix64(_U64(seed) + _GOLDEN)
        h = _mix64(h ^ (_U64(stream_id) + _STREAM_SALT))
    return _U64(h)


def _uniforms(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    # Top 53 bits, centered: values lie strictly inside (0, 1), so
    # log(u) below is always finite.
    z = _mix64(key + (counters + _U64(1)) * _GOLDEN)
    return ((z >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream label for the counter-based generator."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for label, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (0 <= int(value) < 2**64):
                raise DomainError(f"{label} must fit in 64 unsigned bits, got {value}")


@dataclass(frozen=True)
class PopulationSet:
    """k exponential populations with a common per-population sample size n.

    rates are the hazard rates sigma_i (units 1/time); k is implied by
    their number.
    """

    n: int
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) < 2:
            raise DomainError(f"need at least 2 populations, got {len(self.rates)}")
        if not float(self.n).is_integer() or self.n < 2:
            raise DomainError(f"sample size n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        for r in self.rates:
            if not (r > 0) or not np.isfinite(r):
                raise DomainError(f"every rate must be finite and positive, got {r}")

    @property
    def k(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of applying the largest-sum rule to one replication.

    selected_index is 0-based; the selected population is
    rates[selected_index] of the generating PopulationSet.
    """

    sums: tuple[float, ...]
    selected_index: int
    y_selected: float
    sigma_selected: float


def _sum_blocks(
    n: int, rates: np.ndarray, rng: RngSpec, rep_start: int, count: int
) -> np.ndarray:
    """Sums Y_i for replications [rep_start, rep_start + count), shape (count, k).

    Counter layout: (replication * k + population) * n + observation.
    Frozen; see the module docstring. In row-major (count, k, n) order the
    counters run consecutively from rep_start * k * n. A range whose last
    counter would not fit in 64 bits is rejected: wrapping would silently
    repeat another replication's draws.
    """
    k = len(rates)
    if (rep_start + count) * k * n > 2**64:
        raise DomainError(
            f"replications [{rep_start}, {rep_start + count}) overflow the 64-bit "
            f"draw counter at k={k}, n={n}"
        )
    key = _stream_key(rng.seed, rng.stream_id)
    counters = np.arange(count * k * n, dtype=_U64) + _U64(rep_start * k * n)
    u = _uniforms(key, counters.reshape(count, k, n))
    # Exponential draws summed over the sample: the exact gamma(n, rate)
    # construction for integer n, no rejection step.
    draws = -np.log(u) / rates[None, :, None]
    return draws.sum(axis=2)


def draw_sums(pop: PopulationSet, rng: RngSpec, replication: int) -> tuple[float, ...]:
    """The k sufficient sums for one labelled replication.

    Pure in (seed, stream_id, replication): identical labels give
    identical sums on every platform and worker count.
    """
    if replication < 0 or not float(replication).is_integer():
        raise DomainError(f"replication must be a nonnegative integer, got {replication}")
    block = _sum_blocks(pop.n, np.asarray(pop.rates), rng, int(replication), 1)
    return tuple(float(v) for v in block[0])


def select(pop: PopulationSet, sums) -> SelectionOutcome:
    """Apply the natural selection rule: pick the largest sum.

    Ties go to the lowest index. A tie is a probability-zero event for
    continuous sums, but the rule must still be deterministic.
    """
    sums = tuple(float(s) for s in sums)
    if len(sums) != pop.k:
        raise DomainError(f"expected {pop.k} sums, got {len(sums)}")
    for s in sums:
        if not (s > 0) or not np.isfinite(s):
            raise DomainError(f"sums must be finite and positive, got {s}")
    j = int(np.argmax(sums))
    return SelectionOutcome(
        sums=sums,
        selected_index=j,
        y_selected=sums[j],
        sigma_selected=pop.rates[j],
    )


def geometric_mean_stat(sums, h: int) -> float:
    """Geometric mean of the h largest sums.

    With h equal to the number of populations this is the geometric mean
    of all sums, the correction statistic used by the improved estimators.
    """
    sums = tuple(float(s) for s in sums)
    if not float(h).is_integer() or not (2 <= h <= len(sums)):
        raise DomainError(f"h must be an integer in [2, {len(sums)}], got {h}")
    for s in sums:
        if not (s > 0) or not np.isfinite(s):
            raise DomainError(f"sums must be finite and positive, got {s}")
    top = sorted(sums, reverse=True)[: int(h)]
    return float(np.exp(np.mean(np.log(top))))
