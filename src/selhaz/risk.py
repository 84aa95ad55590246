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
from .model import (
    _WORKSPACE,
    PopulationSet,
    RngSpec,
    _check_counter,
    _check_n,
    _is_integral,
    _sum_blocks,
)
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


def _entropy_losses(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """x - ln x - 1 in place, x an array of estimates over the true rate.

    ln x goes to tmp, a scratch array of x's shape, or to a new one. The
    one definition of the loss. Mathematically >= 0, and with numpy's
    log no rounding made it negative at the 4e5 doubles within 2e5 ulp of
    x = 1 or at 1e7 uniform points in [0.999, 1.001].
    """
    tmp = np.log(x, out=tmp)
    x -= tmp
    x -= 1.0
    return x


def entropy_loss(d: float, sigma_selected: float) -> float:
    """d/sigma - ln(d/sigma) - 1; zero exactly when d equals sigma."""
    if not (d > 0 and sigma_selected > 0 and 0 < d / sigma_selected < math.inf):
        raise DomainError(
            "d, sigma_selected and d/sigma_selected must be positive and finite, "
            f"got d = {d:g}, sigma_selected = {sigma_selected:g}"
        )
    return float(_entropy_losses(np.array([d / sigma_selected]))[0])


def _losses_for_sums(
    specs, pop: PopulationSet, sums: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Entropy losses of every spec on the same sums, shape (len(specs), rows).

    The estimates of _estimates over the selected rates, scored by
    _entropy_losses in out if given, else in a new array. The logs go to
    this thread's workspace.
    """
    estimates, jj = _estimates(specs, pop.n, sums, out)
    estimates /= np.asarray(pop.rates)[jj]
    return _entropy_losses(estimates, _WORKSPACE.take("logs", estimates.shape))


def _blocks(replications: int) -> list[tuple[int, int]]:
    return [(s, min(_BLOCK, replications - s)) for s in range(0, replications, _BLOCK)]


# benchmarks/tracing.py wraps _assemble and counts blocks with _blocks, and
# benchmarks/harness.py calls it at 1 and 2 workers, so it keeps a workers
# parameter, which it ignores: the blocks always run serially.
def _assemble(block_fn, replications: int, workers: int) -> np.ndarray:
    """Run block_fn over the fixed blocks in order and join them in a new array.

    Blocks join along the last axis, so a block_fn that returns one row per
    estimator yields one C-contiguous row of losses per estimator. Each
    block is copied in before the next runs, so block_fn may return a
    buffer that it reuses.
    """
    out = None
    for s, c in _blocks(replications):
        losses = block_fn(s, c)
        if out is None:
            out = np.empty((*losses.shape[:-1], replications))
        out[..., s : s + c] = losses
    return out


def _block_loop(n, rates, replications, rng, rows, score) -> np.ndarray:
    """Check the replication count once, draw each block's sums once, and
    assemble score(sums, out) over the blocks in block order.

    The sums and out, a (rows, count) array for score's losses, are
    buffers of this thread's workspace, reused by every block and call;
    _assemble copies each block's losses out before the next block runs.
    A count whose draw counters overflow is rejected before the block list
    is built: at 2**62 replications that list alone would not fit in memory.
    """
    if not _is_integral(replications) or replications < 1:
        raise DomainError(f"replications must be a positive integer, got {replications}")
    rates = np.asarray(rates, dtype=np.float64)
    k = len(rates)
    _check_counter(0, int(replications), k, n)

    def block(rep_start: int, count: int) -> np.ndarray:
        sums = _sum_blocks(n, rates, rng, rep_start, count, _WORKSPACE.take("sums", (k, count)))
        return score(sums, _WORKSPACE.take("estimates", (rows, count)))

    # Overflow ends in an inf or NaN mean, which _estimate_from_losses reports.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _assemble(block, int(replications), 1)


def mc_risks(
    specs,
    pop: PopulationSet,
    replications: int,
    rng: RngSpec,
) -> tuple[RiskEstimate, ...]:
    """Monte Carlo risks of several estimators on the same draws.

    Each block's sums are drawn once and every spec is scored on them, and
    the (specs, reps) losses reduce to means and standard errors in one
    _estimate_from_losses pass, so entry i equals mc_risk(specs[i], ...)
    to the last bit.
    """
    specs = tuple(specs)
    if not specs:
        raise DomainError("mc_risks needs at least one estimator spec")

    def score(sums: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _losses_for_sums(specs, pop, sums, out)

    for spec in specs:
        validate_improved(spec, pop.n, pop.k)
    losses = _block_loop(pop.n, pop.rates, replications, rng, len(specs), score)
    return _estimate_from_losses(losses, rng.seed, [spec.label() for spec in specs])


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
    def score(sums: np.ndarray, out: np.ndarray) -> np.ndarray:
        loss_a, loss_b = _losses_for_sums((spec_a, spec_b), pop, sums, out)
        return np.subtract(loss_a, loss_b, out=loss_a)

    validate_improved(spec_a, pop.n, pop.k)
    validate_improved(spec_b, pop.n, pop.k)
    diffs = _block_loop(pop.n, pop.rates, replications, rng, 2, score)
    label = f"{spec_a.label()} - {spec_b.label()}"
    (est,) = _estimate_from_losses(diffs[None], rng.seed, [label])
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

    def score(sums: np.ndarray, out: np.ndarray) -> np.ndarray:
        x = np.divide(c, sums[:, 0], out=out[0])
        x /= rate
        return _entropy_losses(x, _WORKSPACE.take("logs", x.shape))

    losses = _block_loop(int(n), (rate,), replications, rng, 1, score)
    return _estimate_from_losses(losses[None], rng.seed, [f"c{c:g}"])[0]


def _estimate_from_losses(losses: np.ndarray, seed: int, labels) -> tuple[RiskEstimate, ...]:
    """Mean and standard error of each row of a (rows, reps) loss array.

    losses is overwritten: the squared deviations are formed in place.
    labels names the rows in errors. Every row is reduced in one pass with
    the operations of np.mean and np.std(ddof=1) on that row alone (a
    pairwise sum over the row, then the sum of squared deviations from
    the mean), so each estimate has the bits of the row-by-row form. A
    single replication has a standard error of 0.

    A mean or standard error beyond the float range is a DomainError
    naming the first such row, not an inf cell: losses near 1e154 already
    overflow the variance's squares.
    """
    n_reps = losses.shape[1]
    # The check below reports the overflow; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduce(losses, axis=1)
        means /= n_reps
        losses -= means[:, None]
        np.multiply(losses, losses, out=losses)
        ses = np.add.reduce(losses, axis=1)
        # One replication: its deviation is 0, so the divisor 1 gives SE 0.
        ses /= max(n_reps - 1, 1)
        np.sqrt(ses, out=ses)
        ses /= math.sqrt(n_reps)
    out = []
    for mean, se, label in zip(means.tolist(), ses.tolist(), labels):
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise DomainError(
                f"{label}: Monte Carlo risk is not finite (mean {mean:g}, std error {se:g})"
            )
        out.append(RiskEstimate(mean=mean, std_error=se, replications=n_reps, seed=seed))
    return tuple(out)


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


def _check_exact_n(n: int) -> None:
    """Past 2**53 the exact engine loses leading digits; see _exact_risks_k2."""
    if n > 2**53:
        raise DomainError(f"the exact k = 2 risk needs n <= 2**53, got n = {n}")


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
    (4.6e-10 at n = 2**53), and past 2**53 leading digits. A risk beyond the
    float range, such as that of c/Y_J at c = 1e308, is a DomainError that
    names the spec.
    """
    _check_exact_n(n)
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
    # An estimate beyond the float range makes y inf and its loss NaN. The
    # check below names the spec; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        y, jj = _estimates(specs, n, np.array([v * root, (1.0 - v) / root]).T)
        y /= np.where(jj, (2.0 * n - 1.0) * root, (2.0 * n - 1.0) / root)
        y -= 1.0
        y -= np.log1p(y)
        risks = (y @ weights) / weights.sum() + _psi_gap(2.0 * n - 1.0)
    if not np.isfinite(risks).all():
        i = int(np.argmin(np.isfinite(risks)))
        raise DomainError(f"{specs[i].label()}: exact risk is not finite, got {risks[i]:g}")
    return risks


def exact_risk_scaleinv_k2(c: float, rates, n: int) -> float:
    """Exact risk of c/Y_J for exactly two populations, by _exact_risks_k2:
    a function of the rate ratio q alone, to the bit whenever q is unchanged.
    PopulationSet checks n and the rates, and EstimatorSpec checks c."""
    if len(rates) != 2:
        raise DomainError(f"exactly two rates required, got {len(rates)}")
    pop = PopulationSet(n, rates)
    spec = EstimatorSpec(EstimatorKind.SCALE_INVERSE, float(c))
    return float(_exact_risks_k2((spec,), pop.rates, pop.n)[0])


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
