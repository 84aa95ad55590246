"""Special functions, node tables and adaptive quadrature.

Everything here is double precision and self-contained: digamma via the
asymptotic series after recurrence shifting, the gap psi(m+1) - ln m behind
every closed-form risk constant, the central binomial term behind the k = 2
closed forms, regularized incomplete beta (Lentz continued fraction), the
Erlang/gamma CDF for integer shape, and a Gauss-Kronrod G7/K15 adaptive
integrator with an algebraic map for infinite upper limits, whose K15 table
the exact k = 2 engine in risk applies on fixed panels.

Accuracy targets: 1e-10 for digamma and the incomplete beta, and 2e-14
relative for the psi gap at every m (the series' truncation at x = 10).
Past a + b ~ 1e5 the incomplete beta's lgamma-difference prefactor misses
its target by cancellation: I_{1/2}(n, n-1) is 9.4e-7 off (relative) at
n = 1e9.

All functions are pure and hold no state; they are safe to call from any
number of threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class QuadratureConvergenceError(RuntimeError):
    """Subdivision budget exhausted with the error estimate above tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature.

    The integrator stops once the summed error estimate is below
    max(abs_tol, rel_tol * |integral|), and raises if it cannot get
    there within max_subdivisions interval bisections.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_QUADRATURE = QuadratureSpec()


# Asymptotic tail of psi(x): coefficients of z, z^2, ... in the expansion
# psi(x) ~ ln x - 1/(2x) - sum_m B_{2m}/(2m) * z^m with z = 1/x^2.
# Truncated after z^7; for x >= 10 the first omitted term, 3617/8160 z^8, is
# below 5e-17.
_PSI_TAIL = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0, -691.0 / 32760.0,
    1.0 / 12.0,
)


def _psi_tail(x: float) -> float:
    # The series part of ln x - psi(x) - 1/(2x) for x >= 10.
    z = 1.0 / (x * x)
    tail = 0.0
    for coeff in reversed(_PSI_TAIL):
        tail = (tail + coeff) * z
    return tail


def digamma(a: float) -> float:
    """Digamma psi(a) = d/da ln Gamma(a), for a > 0.

    Uses the recurrence psi(a+1) = psi(a) + 1/a to shift the argument
    to at least 10, then the Bernoulli-number asymptotic series.
    """
    if not (a > 0) or math.isnan(a):
        raise DomainError(f"digamma requires a > 0, got {a}")
    x = a
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    return acc + math.log(x) - 0.5 / x - _psi_tail(x)


def _psi_gap(m: float) -> float:
    """psi(m+1) - ln m for m > 0, about 1/(2m). Below x = m + 1 = 10 it is
    digamma(x) - ln m; past it the series' ln x - ln m is -log1p(-1/x), so
    no O(ln m) terms cancel (by subtraction: 3.6e-6 off at m = 1e9)."""
    x = m + 1.0
    if x < 10.0:
        return digamma(x) - math.log(m)
    return -math.log1p(-1.0 / x) - 0.5 / x - _psi_tail(x)


def _central_binomial_term(m: int, u: float) -> float:
    """tau(m, u) = C(2m, m) (u(1-u))^m, the central term of Bin(2m, u), for
    integer m >= 1 and 0 < u < 1, in log space. ln C(2m, m) is an lgamma
    difference below m = 64. Past it that difference loses eps * m ln m to
    cancellation (tau is 2% off at m = 1e13, exp overflows at 1e30), so the
    series m ln 4 - ln(pi m)/2 - 1/(8m) + 1/(192 m^3) - 1/(640 m^5) is used."""
    log_u = math.log(u) + math.log1p(-u)
    if m < 64:
        return math.exp(math.lgamma(2 * m + 1) - 2.0 * math.lgamma(m + 1) + m * log_u)
    z = 1.0 / m
    series = z * (0.125 - z * z * (1.0 / 192.0 - z * z / 640.0))
    log_central = -0.5 * (math.log(math.pi) + math.log(m)) - series
    return math.exp(log_central + m * (math.log(4.0) + log_u))


def _betacf(x: float, a: float, b: float) -> float:
    # Lentz's continued fraction for the incomplete beta; standard form,
    # converges fast for x < (a + 1)/(a + b + 2). Close to that turning
    # point the term count grows like (a + b)^(1/3): at x = 1/2, a = n,
    # b = n - 1 it is 536 at n = 1e6 and 4832 at n = 1e9, so the cap of
    # 10000 terms covers n up to 1e9 with room to spare.
    tiny = 1e-300
    eps = 3e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise QuadratureConvergenceError(
        f"incomplete beta continued fraction failed for x={x}, a={a}, b={b}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Lentz continued fraction, on I_x(a, b) or on 1 - I_{1-x}(b, a) past
    the turning point. Monotone in x with I_0 = 0 and I_1 = 1.
    """
    if not (a > 0) or not (b > 0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got ({a}, {b})")
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # Prefactor x^a (1-x)^b / (a B(a, b)), with b for a in the complement branch.
    ln_power = a * math.log(x) + b * math.log1p(-x)
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if x < (a + 1.0) / (a + b + 2.0):
        val = math.exp(ln_power - math.log(a) - ln_beta) * _betacf(x, a, b)
    else:
        val = 1.0 - math.exp(ln_power - math.log(b) - ln_beta) * _betacf(1.0 - x, b, a)
    return min(1.0, max(0.0, val))


def gamma_cdf(y: float, rate: float, shape: int) -> float:
    """CDF of a gamma variate with integer shape (the Erlang distribution).

    P(Y <= y) = 1 - exp(-rate*y) * sum_{j<shape} (rate*y)^j / j!, evaluated
    through a log-space partial sum so large rate*y cannot overflow.
    """
    if not (rate > 0):
        raise DomainError(f"gamma_cdf requires rate > 0, got {rate}")
    if not float(shape).is_integer() or shape < 1:
        raise DomainError(f"gamma_cdf requires integer shape >= 1, got {shape}")
    if math.isnan(y) or y < 0.0:
        raise DomainError(f"gamma_cdf requires y >= 0, got {y}")
    shape = int(shape)
    if y == 0.0:
        return 0.0
    if math.isinf(y):
        return 1.0
    t = rate * y
    log_t = math.log(t)
    log_terms = [j * log_t - t - math.lgamma(j + 1) for j in range(shape)]
    peak = max(log_terms)
    if peak < -745.0:
        # Survival mass underflows entirely.
        return 1.0
    survival = math.exp(peak) * math.fsum(math.exp(lt - peak) for lt in log_terms)
    return min(1.0, max(0.0, 1.0 - survival))


# 15-point Kronrod nodes on [-1, 1] (positive half; the rule is symmetric)
# with the embedded 7-point Gauss rule at the odd-index nodes.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gauss_kronrod(f, lo: float, hi: float) -> tuple[float, float]:
    # Returns (K15 estimate, error estimate |K15 - G7|). The difference
    # estimates the G7 error, which upper-bounds the K15 error in practice.
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fc = f(mid)
    if not math.isfinite(fc):
        raise DomainError(f"integrand not finite at {mid}")
    res_k = _WGK[7] * fc
    res_g = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise DomainError(f"integrand not finite near {mid - dx} or {mid + dx}")
        both = f1 + f2
        res_k += _WGK[i] * both
        if i % 2 == 1:
            res_g += _WG[i // 2] * both
    res_k *= half
    res_g *= half
    return res_k, abs(res_k - res_g)


def adaptive_quad(f, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive Gauss-Kronrod integral of f over (lo, hi).

    hi may be math.inf; the interval is then mapped to (0, 1) through
    t = lo + u/(1 - u), which needs no truncation constant. Intervals
    are bisected worst-error-first until the summed error estimate is
    below max(abs_tol, rel_tol * |integral|).

    Raises QuadratureConvergenceError when the subdivision budget runs
    out first, and DomainError if the integrand returns a non-finite
    value at an evaluation node.
    """
    if spec is None:
        spec = DEFAULT_QUADRATURE
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("integration limits must not be NaN")
    if math.isinf(lo):
        raise DomainError("infinite lower limit is not supported")
    if math.isinf(hi):
        base = lo

        def mapped(u: float, _f=f, _base=base) -> float:
            w = 1.0 - u
            return _f(_base + u / w) / (w * w)

        return adaptive_quad(mapped, 0.0, 1.0, spec)
    if hi == lo:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    val, err = _gauss_kronrod(f, lo, hi)
    # Heap of (-error, lo, hi, value); always split the worst interval.
    # Totals are re-summed every pass: the heap never exceeds
    # max_subdivisions + 1 entries, so this costs nothing and avoids
    # drift in the running error.
    intervals = [(-err, lo, hi, val)]
    splits = 0
    while True:
        total_val = math.fsum(item[3] for item in intervals)
        total_err = math.fsum(-item[0] for item in intervals)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_val)):
            return sign * total_val
        if splits >= spec.max_subdivisions:
            raise QuadratureConvergenceError(
                f"error {total_err:.3e} above tolerance after "
                f"{spec.max_subdivisions} subdivisions"
            )
        _, a, b, _ = heapq.heappop(intervals)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            raise QuadratureConvergenceError(
                f"interval [{a}, {b}] at floating-point resolution with "
                "error above tolerance"
            )
        v1, e1 = _gauss_kronrod(f, a, m)
        v2, e2 = _gauss_kronrod(f, m, b)
        heapq.heappush(intervals, (-e1, a, m, v1))
        heapq.heappush(intervals, (-e2, m, b, v2))
        splits += 1
