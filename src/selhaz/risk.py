"""Entropy loss, closed-form risk quantities, and the Monte Carlo and exact
k = 2 engines.

The loss is L(sigma_J, d) = d/sigma_J - ln(d/sigma_J) - 1: nonnegative,
zero only at d = sigma_J, and harder on overestimation than underestimation.
_entropy_losses is its one definition; entropy_loss and every Monte Carlo
risk go through it.

Both engines score the estimates of estimators._estimates. The exact one,
_exact_risks_k2, integrates the conditional loss over a Beta(n, n) direction
for any spec at k = 2; exact_risk_scaleinv_k2 is its checked form for c/Y_J.

Closed forms implemented here, all for the selected-hazard problem:

  * h_of_q: E[1/(sigma_J Y_J)] for two populations with rate ratio q, as
    one minus the central term of a binomial law.
  * gb_component_risk: Psi(n) - ln(n-1), the constant risk of the
    generalized Bayes rule in the single-population component problem and
    the minimax value of the selection problem with k = 2 populations.
  * bayes_risk: Psi(n + a) - ln(n + a - 1) under a conjugate gamma prior
    with shape a (the prior rate cancels).
  * sup_risk_scaleinv: c/(n-1) - ln c + Psi(n) - 1, the q -> infinity
    limit of the k = 2 risk of c/Y_J; minimized at c = n - 1.

The Monte Carlo engine is deterministic by construction: replications are
cut into fixed-size blocks, each block's losses are a pure function of the
(seed, stream) labels, and the blocks run in index order on the calling
thread before any reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorKind, EstimatorSpec, _check_c, _estimates, validate_improved
from .model import PopulationSet, RngSpec, _check_counter, _check_n, _is_integral, _sum_blocks
from .numerics import _WGK, _XGK, DomainError, _central_binomial_term, _psi_gap

# Not called here; benchmarks/tracing.py patches these names on this module.
from .numerics import adaptive_quad, gamma_cdf, reg_inc_beta  # noqa: F401

# Replications per block. Fixed: block boundaries are part of the
# determinism contract.
_BLOCK = 4096


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo risk: mean loss, its standard error, and provenance."""

    mean: float
    std_error: float
    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise DomainError(f"std_error must be >= 0, got {self.std_error}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")


@dataclass(frozen=True)
class PairedComparison:
    """Risk difference A - B on common random numbers."""

    mean_diff: float
    std_error_diff: float
    replications: int

    def __post_init__(self) -> None:
        if self.std_error_diff < 0:
            raise DomainError(f"std_error_diff must be >= 0, got {self.std_error_diff}")


@dataclass(frozen=True)
class BayesPrior:
    """Conjugate gamma prior on the hazard rates: shape and rate."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not (self.shape > 0) or not (self.rate > 0):
            raise DomainError(
                f"prior shape and rate must be positive, got ({self.shape}, {self.rate})"
            )


def _entropy_losses(x: np.ndarray) -> np.ndarray:
    """x - ln x - 1 in place, x an array of estimates over the true rate.

    The one definition of the loss. Mathematically >= 0, and with numpy's
    log no rounding made it negative at the 4e5 doubles within 2e5 ulp of
    x = 1 or at 1e7 uniform points in [0.999, 1.001].
    """
    tmp = np.log(x)
    x -= tmp
    x -= 1.0
    return x


def entropy_loss(d: float, sigma_selected: float) -> float:
    """d/sigma - ln(d/sigma) - 1; zero exactly when d equals sigma."""
    if not (d > 0):
        raise DomainError(f"estimate d must be positive, got {d}")
    if not (sigma_selected > 0):
        raise DomainError(f"sigma_selected must be positive, got {sigma_selected}")
    return float(_entropy_losses(np.array([d / sigma_selected]))[0])


def _losses_for_sums(specs, pop: PopulationSet, sums: np.ndarray) -> np.ndarray:
    """Entropy losses of every spec on the same sums, shape (len(specs), rows).

    The estimates of _estimates over the selected rates, scored by
    _entropy_losses.
    """
    estimates, jj = _estimates(specs, pop.n, sums)
    estimates /= np.asarray(pop.rates)[jj]
    return _entropy_losses(estimates)


def _blocks(replications: int) -> list[tuple[int, int]]:
    return [(s, min(_BLOCK, replications - s)) for s in range(0, replications, _BLOCK)]


# benchmarks/tracing.py wraps _assemble and counts blocks with _blocks, and
# benchmarks/harness.py calls it at 1 and 2 workers, so it keeps a workers
# parameter, which it ignores: the blocks always run serially.
def _assemble(block_fn, replications: int, workers: int) -> np.ndarray:
    """Run block_fn over the fixed blocks in order and concatenate them.

    Blocks join along the last axis, so a block_fn that returns one row per
    estimator yields one C-contiguous row of losses per estimator.
    """
    return np.concatenate([block_fn(s, c) for s, c in _blocks(replications)], axis=-1)


def _block_loop(n, rates, replications, rng, score) -> np.ndarray:
    """Check the replication count once, draw each block's sums once, and
    assemble score(sums) over the blocks in block order.

    A count whose draw counters overflow is rejected before the block list
    is built: at 2**62 replications that list alone would not fit in memory.
    """
    if not _is_integral(replications) or replications < 1:
        raise DomainError(f"replications must be a positive integer, got {replications}")
    rates = np.asarray(rates, dtype=np.float64)
    _check_counter(0, int(replications), len(rates), n)

    def block(rep_start: int, count: int) -> np.ndarray:
        return score(_sum_blocks(n, rates, rng, rep_start, count))

    return _assemble(block, int(replications), 1)


def mc_risks(
    specs,
    pop: PopulationSet,
    replications: int,
    rng: RngSpec,
) -> tuple[RiskEstimate, ...]:
    """Monte Carlo risks of several estimators on the same draws.

    Each block's sums are drawn once and every spec is scored on them, so
    entry i equals mc_risk(specs[i], ...) to the last bit.
    """
    specs = tuple(specs)
    if not specs:
        raise DomainError("mc_risks needs at least one estimator spec")

    def score(sums: np.ndarray) -> np.ndarray:
        return _losses_for_sums(specs, pop, sums)

    for spec in specs:
        validate_improved(spec, pop.n, pop.k)
    losses = _block_loop(pop.n, pop.rates, replications, rng, score)
    return tuple(
        _estimate_from_losses(row, rng.seed, spec.label()) for row, spec in zip(losses, specs)
    )


def mc_risk(
    spec: EstimatorSpec,
    pop: PopulationSet,
    replications: int,
    rng: RngSpec,
) -> RiskEstimate:
    """Monte Carlo risk of an estimator under entropy loss.

    Deterministic in (rng, replications): the same labels give the same
    estimate to the last bit.
    """
    return mc_risks((spec,), pop, replications, rng)[0]


def mc_dominance(
    spec_a: EstimatorSpec,
    spec_b: EstimatorSpec,
    pop: PopulationSet,
    replications: int,
    rng: RngSpec,
) -> PairedComparison:
    """Paired risk difference A - B on common random numbers.

    Both estimators see identical draws in every replication, so the
    difference's standard error excludes the shared sampling noise.
    Identical specs give a difference of exactly zero.
    """
    # Each block reduces to loss_a - loss_b at once; a (2, reps) loss
    # matrix would raise peak memory on long runs.
    def score(sums: np.ndarray) -> np.ndarray:
        loss_a, loss_b = _losses_for_sums((spec_a, spec_b), pop, sums)
        return loss_a - loss_b

    validate_improved(spec_a, pop.n, pop.k)
    validate_improved(spec_b, pop.n, pop.k)
    diffs = _block_loop(pop.n, pop.rates, replications, rng, score)
    est = _estimate_from_losses(diffs, rng.seed, f"{spec_a.label()} - {spec_b.label()}")
    return PairedComparison(
        mean_diff=est.mean, std_error_diff=est.std_error, replications=est.replications
    )


def mc_risk_component(
    n: int, rate: float, c: float, replications: int, rng: RngSpec
) -> RiskEstimate:
    """Single-population oracle mode: risk of c/Y with no selection step.

    The public model insists on k >= 2; this bypass exists so closed-form
    component results (for example Psi(n) - ln(n-1) at c = n - 1) can be
    checked against the same sampling machinery.
    """
    _check_n(n)
    if not (0 < rate < math.inf):
        raise DomainError(f"rate must be positive and finite, got {rate}")
    _check_c(c)

    def score(sums: np.ndarray) -> np.ndarray:
        return _entropy_losses((c / sums[:, 0]) / rate)

    losses = _block_loop(int(n), (rate,), replications, rng, score)
    return _estimate_from_losses(losses, rng.seed, f"c{c:g}")


def _estimate_from_losses(losses: np.ndarray, seed: int, label: str) -> RiskEstimate:
    """Mean and standard error of losses; label names the estimate in errors.

    A mean or standard error beyond the float range is a DomainError, not
    an inf cell: losses near 1e154 already overflow the variance's squares.
    """
    n_reps = losses.shape[0]
    # The check below reports the overflow; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(losses.mean())
        se = float(losses.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise DomainError(
            f"{label}: Monte Carlo risk is not finite (mean {mean:g}, std error {se:g})"
        )
    return RiskEstimate(mean=mean, std_error=se, replications=n_reps, seed=seed)


def h_of_q(q: float, n: int) -> float:
    """E[1/(sigma_J Y_J)] for two populations with rate ratio q >= 1.

    Equals [I_{q/(1+q)}(n, n-1) + I_{1/(1+q)}(n, n-1)] / (n - 1). With
    u = 1/(1+q) the two tails cover every Bin(2n-2, u) count but n-1, so it
    is computed as (1 - C(2n-2, n-1) (u(1-u))^(n-1)) / (n - 1). Increasing in
    q, from 2 I_{1/2}(n, n-1)/(n-1) at q = 1 toward the component value
    1/(n-1) as the rates separate; the gap is O(q^-(n-1)): at n = 2 it is
    2u(1-u), still about 2e-6 at q = 10^6.
    """
    _check_n(n)
    if not (1.0 <= q < math.inf):
        raise DomainError(f"rate ratio q must be finite and >= 1, got {q}")
    return (1.0 - _central_binomial_term(int(n) - 1, 1.0 / (1.0 + q))) / (n - 1.0)


# K15 on a panel [a, b]: nodes a * _GK_LOW + b * _GK_HIGH, weights (b - a) * _GK_W.
_GK_HIGH = (1.0 + np.concatenate((np.negative(_XGK[:-1]), _XGK[::-1]))) / 2.0
_GK_LOW = 1.0 - _GK_HIGH
_GK_W = np.concatenate((_WGK[:-1], _WGK[::-1])) / 2.0


def _beta_reach(n: int, depth: float) -> float:
    """The v < 1/2 where the Beta(n, n) kernel (4v(1-v))^(n-1) is e^-depth."""
    s = -depth / (n - 1.0)
    return 0.5 * math.exp(s) / (1.0 + math.sqrt(-math.expm1(s)))


def _exact_risks_k2(specs, rates, n: int) -> np.ndarray:
    """Exact risk of every spec at two populations.

    With Z_i = sigma_i Y_i, V = Z_1/(Z_1 + Z_2) ~ Beta(n, n) is independent
    of Z_1 + Z_2 ~ Gamma(2n, 1), and every estimate is scale-equivariant, so
    E[L | V] = (y - 1 - ln y) + psi(2n) - ln(2n-1), y = e/(sigma_J (2n-1)),
    e the estimate of _estimates on the row (V/sigma_1, (1-V)/sigma_2). K15
    on fixed panels integrates it against (4v(1-v))^(n-1), over the rule's
    own sum. Cuts: the selection switch u = sigma_lo/(sigma_lo + sigma_hi),
    1/2 +- 2j sd, and 2^-i, 1 - 2^-i (toward the ends and a small u, where
    estimates are singular) while that kernel is above e^-20; none below e^-40.

    The rates enter as (1/sqrt(q), sqrt(q)): symmetric, bit-stable under a
    power-of-2 factor, and no row over- or underflows at a finite q. y - 1 -
    ln y is t - log1p(t), t = y - 1, which _entropy_losses rounds to 1.1e-16
    (1.3e-12 of the risk at n = 2e4). Rounding y costs eps sqrt(n) relative
    (4.6e-10 at n = 2**53), and past 2**53 leading digits.
    """
    if n > 2**53:
        raise DomainError(f"the exact k = 2 risk needs n <= 2**53, got n = {n}")
    q = max(rates) / min(rates)
    if not (q < math.inf):
        raise DomainError(f"rate ratio q must be finite and >= 1, got {q}")
    u, end, graded = 1.0 / (1.0 + q), _beta_reach(n, 40.0), _beta_reach(n, 20.0)
    step = 1.0 / math.sqrt(2.0 * n + 1.0)  # two standard deviations
    half_cuts = [end, 0.5, *(0.5 - j * step for j in range(1, int((0.5 - end) / step) + 1))]
    half_cuts += [2.0**-i for i in range(2, math.ceil(-math.log2(graded)))]
    cuts = np.array(sorted({*half_cuts, *(1.0 - x for x in half_cuts), *([u] if u > end else [])}))
    v = (cuts[:-1, None] * _GK_LOW + cuts[1:, None] * _GK_HIGH).ravel()
    # ln(4v(1-v)) = ln(2v) + log1p(1 - 2v), with 1 - 2v exact for v >= 1/4.
    kernel = np.exp((n - 1.0) * (np.log(2.0 * v) + np.log1p(1.0 - 2.0 * v)))
    weights = ((cuts[1:] - cuts[:-1])[:, None] * _GK_W).ravel() * kernel
    root = math.sqrt(q)
    y, jj = _estimates(specs, n, np.array([v * root, (1.0 - v) / root]).T)
    y /= np.where(jj, (2.0 * n - 1.0) * root, (2.0 * n - 1.0) / root)
    y -= 1.0
    y -= np.log1p(y)
    return (y @ weights) / weights.sum() + _psi_gap(2.0 * n - 1.0)


def exact_risk_scaleinv_k2(c: float, rates, n: int) -> float:
    """Exact risk of c/Y_J for exactly two populations, by _exact_risks_k2:
    a function of the rate ratio q alone, to the bit whenever q is unchanged."""
    rates = tuple(float(r) for r in rates)
    if len(rates) != 2:
        raise DomainError(f"exactly two rates required, got {len(rates)}")
    for r in rates:
        if not (r > 0) or math.isinf(r):
            raise DomainError(f"rates must be finite and positive, got {r}")
    _check_c(c)
    _check_n(n)
    spec = EstimatorSpec(EstimatorKind.SCALE_INVERSE, float(c))
    return float(_exact_risks_k2((spec,), rates, int(n))[0])


def gb_component_risk(n: int) -> float:
    """Psi(n) - ln(n-1): the generalized Bayes rule's constant component
    risk, and the minimax value of the selection problem at k = 2."""
    _check_n(n)
    return _psi_gap(n - 1.0)


def bayes_risk(n: int, prior: BayesPrior) -> float:
    """Psi(n + shape) - ln(n + shape - 1) under a conjugate gamma prior.

    The prior rate cancels in the posterior expectation, so only the
    shape enters. Decreasing in shape; the shape -> 0 limit recovers
    gb_component_risk.
    """
    _check_n(n)
    if not (n + prior.shape > 1.0):
        raise DomainError(f"need n + shape > 1, got n={n}, shape={prior.shape}")
    return _psi_gap(n + prior.shape - 1.0)


def sup_risk_scaleinv(c: float, n: int) -> float:
    """The q -> infinity limit of the k = 2 risk of c/Y_J, q the rate ratio.

    c/(n-1) - ln c + Psi(n) - 1, as t - log1p(t) + Psi(n) - ln(n-1) with
    t = c/(n-1) - 1, so nothing cancels at large n. It equals the minimax
    value at c = n - 1 and exceeds it for every other c, which rules the
    other scale-inverse members out of minimaxity. It is the supremum of
    the risk over q only for c >= n - 1, which was checked numerically for
    c in {n-1, n}: at n = 5, c = 3 the exact risk at q = 1 is 0.2156, above
    this limit of 0.1575.
    """
    _check_c(c)
    _check_n(n)
    t = (c - (n - 1.0)) / (n - 1.0)
    return (t - math.log1p(t)) + _psi_gap(n - 1.0)
