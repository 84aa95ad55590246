"""Entropy loss, closed-form risk quantities, and the Monte Carlo engine.

The loss is L(sigma_J, d) = d/sigma_J - ln(d/sigma_J) - 1: nonnegative,
zero only at d = sigma_J, and harder on overestimation than underestimation.
_entropy_losses is its one definition; entropy_loss and every Monte Carlo
risk go through it.

Closed forms implemented here, all for the selected-hazard problem:

  * h_of_q: E[1/(sigma_J Y_J)] for two populations with rate ratio q, as
    one minus the central term of a binomial law.
  * exact_risk_scaleinv_k2: risk of c/Y_J for k = 2 in closed form,
    c*h(q) - ln c + E[ln(sigma_J Y_J)] - 1, the expectation a finite sum
    of n negative-binomial-weighted digamma terms per population.
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
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorSpec, _check_c, _estimates, validate_improved
from .model import PopulationSet, RngSpec, _check_counter, _check_n, _is_integral, _sum_blocks
from .numerics import DomainError, _central_binomial_term, digamma

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


def _expected_log_selected(q: float, n: int) -> float:
    """E[ln(sigma_J Y_J)] for two populations with rate ratio q >= 1.

    Population i wins with Y_i in dy with density g(y; sigma_i, n)
    F(y; sigma_other, n). For integer n the Erlang CDF is
    F(y; s, n) = 1 - exp(-s y) sum_{m<n} (s y)^m / m!, and each term
    integrates in closed form, so with p_i = sigma_i / (sigma_1 + sigma_2)

        E[ln(sigma_J Y_J)] = sum_i [psi(n) - sum_{m<n} C(n+m-1, m)
                                    p_i^n (1-p_i)^m (psi(n+m) + ln p_i)].

    Both shares come from q alone, so the result is a function of q.
    """
    share_lo, share_hi = 1.0 / (1.0 + q), q / (1.0 + q)
    psi_n = digamma(float(n))
    total = 0.0
    for p, rest in ((share_lo, share_hi), (share_hi, share_lo)):
        # Negative-binomial weights and psi(n+m) advance by recurrence. The
        # weight is weight * 2**scale, so a start p**n below the normal
        # range (n >= 1075 at q = 1) neither underflows nor loses bits.
        (weight, scale), psi, log_p, tail = _scaled_power(p, n), psi_n, math.log(p), 0.0
        for m in range(n):
            tail += math.ldexp(weight, scale) * (psi + log_p)
            weight *= rest * (n + m) / (m + 1)
            if weight > 2.0**512:
                weight, scale = weight * 2.0**-512, scale + 512
            psi += 1.0 / (n + m)
        total += psi_n - tail
    return total


def _scaled_power(p: float, n: int) -> tuple[float, int]:
    """(w, e) with w * 2**e = p**n for 0 < p < 1: (p**n, 0) when p**n is a
    normal float, and otherwise w normal, from p's mantissa raised in
    steps that cannot underflow."""
    w = p**n
    if w >= sys.float_info.min:
        return w, 0
    f, e = math.frexp(p)
    w, scale = 1.0, e * n
    # f >= 0.5, so f**1000 >= 2**-1000 is normal.
    for done in range(0, n, 1000):
        w, s = math.frexp(w * f ** min(1000, n - done))
        scale += s
    return w, scale


def exact_risk_scaleinv_k2(c: float, rates, n: int) -> float:
    """Exact risk of c/Y_J for exactly two populations, in closed form.

    R = c h(q) - ln c + E[ln(sigma_J Y_J)] - 1 with q the rate ratio;
    h is one minus a central binomial term (see h_of_q) and the expectation
    a finite sum of n terms per population (see _expected_log_selected). Both
    depend on the rates only through q, so scaling both rates leaves
    the risk unchanged, to the bit whenever q is unchanged.
    """
    rates = tuple(float(r) for r in rates)
    if len(rates) != 2:
        raise DomainError(f"exactly two rates required, got {len(rates)}")
    for r in rates:
        if not (r > 0) or math.isinf(r):
            raise DomainError(f"rates must be finite and positive, got {r}")
    _check_c(c)
    _check_n(n)
    q = max(rates) / min(rates)
    return c * h_of_q(q, int(n)) - math.log(c) + _expected_log_selected(q, int(n)) - 1.0


def gb_component_risk(n: int) -> float:
    """Psi(n) - ln(n-1): the generalized Bayes rule's constant component
    risk, and the minimax value of the selection problem at k = 2."""
    _check_n(n)
    return digamma(float(n)) - math.log(n - 1.0)


def bayes_risk(n: int, prior: BayesPrior) -> float:
    """Psi(n + shape) - ln(n + shape - 1) under a conjugate gamma prior.

    The prior rate cancels in the posterior expectation, so only the
    shape enters. Decreasing in shape; the shape -> 0 limit recovers
    gb_component_risk.
    """
    _check_n(n)
    if not (n + prior.shape > 1.0):
        raise DomainError(
            f"need n + shape > 1, got n={n}, shape={prior.shape}"
        )
    return digamma(n + prior.shape) - math.log(n + prior.shape - 1.0)


def sup_risk_scaleinv(c: float, n: int) -> float:
    """The q -> infinity limit of the k = 2 risk of c/Y_J, q the rate ratio.

    c/(n-1) - ln c + Psi(n) - 1; equals the minimax value at c = n - 1
    and exceeds it for every other c, which is what rules the other
    scale-inverse members out of minimaxity. It is the supremum of the
    risk over q only for c >= n - 1, which was checked numerically for
    c in {n-1, n}. For smaller c it is not: at n = 5, c = 3 the exact
    risk at q = 1 is 0.2156, above this limit of 0.1575.
    """
    _check_c(c)
    _check_n(n)
    return c / (n - 1.0) - math.log(c) + digamma(float(n)) - 1.0
