"""The estimator family c/Y_J, its admissible sub-family, and improved forms.

Estimators of the selected hazard rate sigma_J built from the selected sum
Y_J. The scale-inverse family is delta_c = c/Y_J with the named members

    ML = n/Y_J,  N1 = (n-2)/Y_J (n >= 3),  N2 = (n-1)/Y_J.

Within that family, for two populations, the admissible constants form the
interval [n-1, c*] where c* = (n-1) / (2 I_{1/2}(n, n-1)), computed as
(n-1) / (1 - C(2n-2, n-1)/4^(n-1)); constants outside it are dominated by
the nearest endpoint.

The improved form adds a data-driven correction built from the geometric
mean X of the h largest sums:

    delta = c/Y_J + alpha (n h - 1) / (h X),

accepted while 0 < alpha <= ((n - c) h + 1)/(n h + 1). The correction is
strictly positive, so the improved estimate always sits above the plain
scale-inverse one.

That alpha range is what this code enforces; it is not a dominance
condition. For k = 2 the correction is alpha (2n-1)/(2 sqrt(Y_J Y_(2)))
with Y_(2) the smaller sum. As the rate ratio q grows, Y_(2) shrinks
like 1/q, so E[Y_(2)^(-1/2)] and with it the risk grow like sqrt(q) for
every alpha > 0, while the risk of (n-1)/Y_J stays below its minimax
value psi(n) - ln(n-1). This form does not improve on c/Y_J uniformly.

The selection rule and every estimate are defined once, vectorized over
rows of sums, in _estimates. estimate() is its checked public form, and
the Monte Carlo and exact k = 2 engines in risk score its output directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import PopulationSet, _check_n, _pairwise_sum
from .numerics import DomainError, _central_binomial_term

# Not called here; benchmarks/tracing.py patches this name on this module.
from .numerics import reg_inc_beta  # noqa: F401


class EstimatorKind(enum.Enum):
    SCALE_INVERSE = "scale-inverse"
    IMPROVED = "improved"


@dataclass(frozen=True)
class EstimatorSpec:
    """Closed description of an estimator.

    ScaleInverse uses only c. Improved also carries alpha (the correction
    coefficient) and h_count (how many of the largest sums enter the
    geometric mean; an integral float is stored as an int). The limits on
    c, h_count and alpha depend on (n, k), so validate_improved enforces
    them where the spec runs, not here.
    """

    kind: EstimatorKind
    c: float
    alpha: float | None = None
    h_count: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        _check_c(self.c)
        if self.kind is EstimatorKind.IMPROVED:
            if self.alpha is None or self.h_count is None:
                raise DomainError("improved estimator needs alpha and h_count")
            if not (0 < self.alpha < math.inf):
                raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
            if not float(self.h_count).is_integer() or self.h_count < 2:
                raise DomainError(f"h_count must be an integer >= 2, got {self.h_count}")
            object.__setattr__(self, "h_count", int(self.h_count))
        else:
            if self.alpha is not None or self.h_count is not None:
                raise DomainError("scale-inverse estimator takes neither alpha nor h_count")

    def label(self) -> str:
        if self.name is not None:
            return self.name
        if self.kind is EstimatorKind.SCALE_INVERSE:
            return f"c{self.c:g}"
        return f"i{self.c:g}:{self.alpha:g}:{self.h_count}"


@dataclass(frozen=True)
class AdmissibleRange:
    """The interval [c_lower, c_upper] of admissible constants, k = 2."""

    c_lower: float
    c_upper: float


class Admissibility(enum.Enum):
    INADMISSIBLE_LOW = "inadmissible-low"
    ADMISSIBLE = "admissible"
    INADMISSIBLE_HIGH = "inadmissible-high"


@dataclass(frozen=True)
class Classification:
    status: Admissibility
    # The dominating constant when inadmissible (the nearest interval
    # endpoint); None when admissible.
    dominating_c: float | None


def ml(n: int) -> EstimatorSpec:
    """Maximum-likelihood member: n/Y_J."""
    _check_n(n)
    return EstimatorSpec(EstimatorKind.SCALE_INVERSE, float(n), name="ML")


def n1(n: int) -> EstimatorSpec:
    """(n-2)/Y_J; needs n >= 3 so the estimate stays positive."""
    _check_n(n)
    if n < 3:
        raise DomainError(f"N1 requires n >= 3, got {n}")
    return EstimatorSpec(EstimatorKind.SCALE_INVERSE, float(n - 2), name="N1")


def n2(n: int) -> EstimatorSpec:
    """(n-1)/Y_J, the analogue of the best scale-equivariant estimator."""
    _check_n(n)
    return EstimatorSpec(EstimatorKind.SCALE_INVERSE, float(n - 1), name="N2")


def n2_improved(
    n: int, k: int, alpha: float | None = None, h_count: int | None = None
) -> EstimatorSpec:
    """Improved N2. alpha defaults to its upper bound, h_count to k."""
    return _improved(n, k, float(n - 1), alpha, h_count, "N2I")


def ml_improved(
    n: int, k: int, alpha: float | None = None, h_count: int | None = None
) -> EstimatorSpec:
    """Improved ML. alpha defaults to its upper bound, h_count to k."""
    return _improved(n, k, float(n), alpha, h_count, "MLI")


def _improved(
    n: int, k: int, c: float, alpha: float | None, h_count: int | None, name: str
) -> EstimatorSpec:
    _check_n(n)
    if k < 2:
        raise DomainError(f"need at least 2 populations, got k={k}")
    h = h_count if h_count is not None else k
    a = float(alpha) if alpha is not None else alpha_upper_bound(n, h, c)
    spec = EstimatorSpec(EstimatorKind.IMPROVED, c, alpha=a, h_count=h, name=name)
    validate_improved(spec, n, k)
    return spec


def _check_c(c: float) -> None:
    if not (0 < c < math.inf):
        raise DomainError(f"estimator constant c must be positive and finite, got {c}")


def _ordered(cols: np.ndarray) -> np.ndarray:
    """A new (k, rows) array: each column of cols sorted ascending.

    An odd-even transposition network: k rounds, each a few whole-row
    minimum/maximum passes over the block.
    """
    k = len(cols)
    ordered = cols.copy()
    low = np.empty((k // 2, cols.shape[1]))
    # k rounds sort any input; at k = 2 the second round is empty.
    for p in range(k if k > 2 else 1):
        # Round p compares rows (i, i + 1) for i = p % 2, p % 2 + 2, ...
        a, b = ordered[p % 2 : k - 1 : 2], ordered[p % 2 + 1 : k : 2]
        t = low[: len(a)]
        np.minimum(a, b, out=t)
        np.maximum(a, b, out=b)
        a[...] = t
    return ordered


def _estimates(
    specs, n: int, sums: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every spec's estimate of sigma_J on each row of sums, and J per row.

    The one definition of the selection rule and of each estimate. sums has
    shape (rows, k); the result is a (len(specs), rows) array of estimates,
    out if given and else a new one, and the selected 0-based index of
    each row. The largest sum is
    selected, ties going to the lowest index: a tie is a probability-zero
    event for continuous sums, but the rule must still be deterministic.
    The geometric mean X of the h largest sums is computed once per
    distinct h_count. No input checks; estimate() is the checked entry.

    The work runs over the k columns of sums, each a whole-block vector:
    free for the F-ordered sampler output, one copy for C-ordered sums.
    Selection is k - 1 branch-free passes, one per later column i: a mask
    of cols[i] > Y_J, then Y_J = max(Y_J, cols[i]) and J = max(J, i * mask).
    i exceeds every earlier J, so J moves exactly where the strict '>'
    holds and ties keep the lowest index; the maximum returns one of its
    inputs, so Y_J has the bits of the selected sum. Sums are positive and
    finite (estimate() rejects anything else), so no NaN reaches the
    maximum. ln X is _pairwise_sum over the logs of the h largest sums,
    largest first, divided by h: the arithmetic of np.mean on each sorted
    row, so every bit matches a row-by-row evaluation.
    """
    cols = np.ascontiguousarray(sums.T)
    k, rows = cols.shape
    yj = cols[0].copy()
    jj = np.zeros(rows, dtype=np.intp)
    above = np.empty(rows, dtype=bool)
    cand = np.empty(rows, dtype=np.intp)
    for i in range(1, k):
        np.greater(cols[i], yj, out=above)
        np.maximum(yj, cols[i], out=yj)
        np.multiply(above, i, out=cand)
        np.maximum(jj, cand, out=jj)
    hs = sorted({spec.h_count for spec in specs if spec.kind is EstimatorKind.IMPROVED})
    h_times_x = {}
    if hs:
        # Logs of the max(hs) largest sums, largest first.
        top = _ordered(cols)[k - hs[-1] :]
        log_desc = np.log(top, out=top)[::-1]
        for h in hs:
            # The last (largest) h may sum in place; the others need a copy.
            terms = log_desc[:h] if h == hs[-1] else log_desc[:h].copy()
            x = _pairwise_sum(terms)
            x /= h
            np.exp(x, out=x)
            x *= h
            h_times_x[h] = x
    if out is None:
        out = np.empty((len(specs), rows))
    for row, spec in zip(out, specs):
        np.divide(spec.c, yj, out=row)
        if spec.kind is EstimatorKind.IMPROVED:
            h = spec.h_count
            row += spec.alpha * (n * h - 1.0) / h_times_x[h]
    return out, jj


def estimate(spec: EstimatorSpec, pop: PopulationSet, sums) -> np.ndarray:
    """The spec's estimate of sigma_J on each row of sums. Always positive.

    sums has shape (rows, k) for the k populations of pop, every entry
    finite and positive; the result has one estimate per row. Sums so
    small or large that an estimate overflows or underflows to 0 are a
    DomainError naming the spec and the first such row.
    """
    validate_improved(spec, pop.n, pop.k)
    sums = np.asarray(sums, dtype=np.float64)
    if sums.ndim != 2 or sums.shape[1] != pop.k:
        raise DomainError(f"sums must have shape (rows, {pop.k}), got {sums.shape}")
    bad = ~((sums > 0) & np.isfinite(sums))
    if bad.any():
        raise DomainError(f"sums must be finite and positive, got {sums[bad][0]}")
    # The check below reports an overflow; numpy's warning would only repeat it.
    with np.errstate(over="ignore", divide="ignore"):
        est = _estimates((spec,), pop.n, sums)[0][0]
    bad = ~((est > 0) & np.isfinite(est))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"{spec.label()}: estimate is not finite and positive at row {i} "
            f"{tuple(sums[i].tolist())}, got {est[i]:g}"
        )
    return est


def admissible_range(n: int) -> AdmissibleRange:
    """Admissible constants for delta_c with two populations.

    Lower endpoint n - 1; upper endpoint c* = (n-1)/(2 I_{1/2}(n, n-1)),
    the reciprocal of the equal-rates value of E[1/(sigma_J Y_J)], computed
    as (n-1)/(1 - C(2n-2, n-1)/4^(n-1)).
    """
    _check_n(n)
    m = int(n) - 1
    return AdmissibleRange(float(m), m / (1.0 - _central_binomial_term(m, 0.5)))


def classify_c(n: int, c: float) -> Classification:
    """Place c against the admissible interval; endpoints are admissible.

    Inadmissible constants come back with the dominating choice: the
    interval endpoint nearest to c.
    """
    _check_n(n)
    _check_c(c)
    rng = admissible_range(n)
    if c < rng.c_lower:
        return Classification(Admissibility.INADMISSIBLE_LOW, rng.c_lower)
    if c > rng.c_upper:
        return Classification(Admissibility.INADMISSIBLE_HIGH, rng.c_upper)
    return Classification(Admissibility.ADMISSIBLE, None)


def alpha_upper_bound(n: int, h_count: int, c: float) -> float:
    """Largest alpha validate_improved accepts, and the limit it reports.

    ((n - c) h + 1)/(n h + 1); decreasing in c, so the bound for ML
    (c = n) is the tightest of the named family. It bounds the range of
    alpha, not the risk: for k = 2 the improved form's risk grows like
    sqrt(q) in the rate ratio q for every alpha > 0 (see the module
    docstring), so no alpha in this range makes it dominate c/Y_J.
    """
    _check_n(n)
    if not float(h_count).is_integer() or h_count < 2:
        raise DomainError(f"h_count must be an integer >= 2, got {h_count}")
    if not (0 < c <= n):
        raise DomainError(f"alpha bound needs 0 < c <= n, got c={c}, n={n}")
    h = int(h_count)
    return ((n - c) * h + 1.0) / (n * h + 1.0)


def validate_improved(spec: EstimatorSpec, n: int, k: int) -> None:
    """Raise DomainError unless spec may run at sample size n with k populations.

    A scale-inverse spec always may. An improved spec must have c in
    (0, n], h_count in [2, k] and alpha at most alpha_upper_bound; the
    message names the spec's label, n, k and the first of these conditions
    that fails, with its limit and the value found. The correction weight
    w(t) = alpha/t is nonincreasing by construction, so nothing else is
    checked.
    """
    _check_n(n)
    if k < 2:
        raise DomainError(f"need at least 2 populations, got k={k}")
    if spec.kind is not EstimatorKind.IMPROVED:
        return
    if not (0 < spec.c <= n):
        condition, limit, actual = "c must lie in (0, n]", n, spec.c
    elif not (2 <= spec.h_count <= k):
        condition, limit, actual = "h_count must lie in [2, k]", k, spec.h_count
    else:
        limit, actual = alpha_upper_bound(n, spec.h_count, spec.c), spec.alpha
        if actual <= limit:
            return
        condition = "alpha above its upper bound"
    raise DomainError(
        f"{spec.label()} at n={n}, k={k}: {condition} (limit {limit:g}, got {actual:g})"
    )
