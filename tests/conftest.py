"""Shared test oracles and the acceptance-criteria summary hook.

Oracles here are computed independently of the library code under test:
exact rational arithmetic where possible, classical series or plain-float
transcriptions of the paper's formulas otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def euler_gamma_oracle() -> float:
    """Euler-Mascheroni constant from the harmonic series.

    H_N - ln N - 1/(2N) + 1/(12 N^2) has error O(N^-4); N = 10^6 puts
    that far below double precision.
    """
    big_n = 10**6
    harmonic = math.fsum(1.0 / i for i in range(1, big_n + 1))
    return harmonic - math.log(big_n) - 0.5 / big_n + 1.0 / (12.0 * big_n**2)


def digamma_int_oracle(n: int, gamma: float) -> float:
    """psi(n) = -gamma + H_{n-1} for integer n, harmonic part exact."""
    return float(Fraction(0) + sum(Fraction(1, i) for i in range(1, n))) - gamma


def inc_beta_half_oracle(a: int, b: int) -> Fraction:
    """I_{1/2}(a, b) as an exact rational binomial tail sum."""
    m = a + b - 1
    return sum(Fraction(math.comb(m, j), 2**m) for j in range(a, m + 1))


def inc_beta_binomial_oracle(x: Fraction, a: int, b: int) -> Fraction:
    """I_x(a, b) for integer a, b at rational x, exact."""
    m = a + b - 1
    return sum(
        Fraction(math.comb(m, j)) * x**j * (1 - x) ** (m - j) for j in range(a, m + 1)
    )


def estimate_oracle(spec, n: int, sums) -> float:
    """The paper's estimate of sigma_J on one replication's sums.

    c/Y_J with Y_J the largest sum, plus alpha (n h - 1)/(h X) for an
    improved spec, X the geometric mean of the h largest sums. Plain
    Python floats and math, so it shares no code with the numpy kernel.
    """
    top = sorted((float(s) for s in sums), reverse=True)
    value = spec.c / top[0]
    if spec.alpha is not None:
        h = spec.h_count
        x = math.exp(sum(math.log(s) for s in top[:h]) / h)
        value += spec.alpha * (n * h - 1.0) / (h * x)
    return value


def selected_index_oracle(sums) -> int:
    """J, the first index of the largest sum: ties go to the lowest."""
    sums = [float(s) for s in sums]
    return sums.index(max(sums))


def entropy_loss_oracle(d: float, sigma: float) -> float:
    """x - ln x - 1 at x = d / sigma, in plain floats."""
    x = float(d) / sigma
    return x - math.log(x) - 1.0


def erlang2_cdf_oracle(y: float) -> float:
    """P(Y <= y) for Y ~ Gamma(2, 1), the sum of two unit exponentials:
    1 - e^(-y) (1 + y), written out rather than taken from the library."""
    return 1.0 - math.exp(-y) * (1.0 + y)


def h_tail_gap_oracle(q: Fraction | float, n: int) -> Fraction:
    """1/(n-1) - h(q) at q >= 1, exact in the value of q.

    With u = 1/(1+q), I_{1-u}(n, n-1) + I_u(n, n-1) is a Bin(2n-2, u)
    probability of every count but n-1, so the gap is the single term
    C(2n-2, n-1) (u(1-u))^(n-1) / (n-1).
    """
    u = 1 / (1 + Fraction(q))
    return math.comb(2 * n - 2, n - 1) * (u * (1 - u)) ** (n - 1) / (n - 1)


def _k2_oracle_mean(q: float, n: int, conditional):
    """E[conditional(share, other, sigma_J, inv_s, log_s)] at rates (1, q),
    an mpf from 40-digit mpmath quadrature over T = Y_1/(Y_1 + Y_2).

    T has density proportional to t^(n-1) (1-t)^(n-1) / lam(t)^(2n) with
    lam(t) = t + q(1-t), and given T = t the total S is Gamma(2n, lam(t)),
    so inv_s = E[1/S | t] = lam/(2n-1) and log_s = E[ln S | t] =
    psi(2n) - ln lam. Population 1 wins when t > 1/2; share = Y_J/S and
    other = 1 - share are passed exactly. No Erlang CDF enters, and no step
    of a finite-sum or Beta(n, n) evaluation.

    Checked against a 50-digit finite sum only for q in [1, 1e9]; beyond
    that the quadrature misses the mass (0.8846 for E[ln(sigma_J Y_J)] at
    n = 5, q = 1e200, where the value is psi(5) = 1.5061), so other q raise
    a ValueError.
    """
    if not 1.0 <= q <= 1e9:
        raise ValueError(f"q = {q} lies outside [1, 1e9], where this oracle was checked")
    import mpmath as mp

    with mp.workdps(40):
        q = mp.mpf(q)
        log_norm = n * mp.log(q) + mp.loggamma(2 * n) - 2 * mp.loggamma(n)
        psi_2n = mp.digamma(2 * n)

        def weighted(share, other, sigma, lam):
            log_lam = mp.log(lam)
            density = mp.exp(log_norm + (n - 1) * mp.log(share * other) - 2 * n * log_lam)
            inv_s, log_s = lam / (2 * n - 1), psi_2n - log_lam
            return conditional(share, other, sigma, inv_s, log_s) * density

        def rate_1_wins(w):  # t = 1 - w, w in (0, 1/2)
            return weighted(1 - w, w, 1, 1 - w + q * w)

        def rate_q_wins(t):  # t in (0, 1/2)
            return weighted(1 - t, t, q, t + q * (1 - t))

        half = mp.mpf(1) / 2
        # The mass of 1 - T sits near 1/q; a cut there keeps the peak resolved.
        cuts = [1 / q] if 1 / q < half else []
        return mp.quad(rate_1_wins, [0, *cuts, half]) + mp.quad(rate_q_wins, [0, half])


def expected_log_selected_oracle(q: float, n: int) -> float:
    """E[ln(sigma_J Y_J)] at rates (1, q). Needs mpmath; q in [1, 1e9]
    (see _k2_oracle_mean)."""
    import mpmath as mp

    def conditional(share, other, sigma, inv_s, log_s):
        return mp.log(sigma * share) + log_s

    return float(_k2_oracle_mean(q, n, conditional))


def k2_risk_oracle(c: float, q: float, n: int, alpha: float = 0.0) -> float:
    """Risk at rates (1, q) of c/Y_J + alpha (2n-1)/(2 sqrt(Y_1 Y_2)), the
    scale-inverse estimator at alpha = 0 and the improved form with
    h = k = 2 otherwise, written out here rather than taken from the
    library. Given T = t the estimate is e(t)/S. Needs mpmath; q in
    [1, 1e9] (see _k2_oracle_mean).
    """
    import mpmath as mp

    def conditional(share, other, sigma, inv_s, log_s):
        e = c / share + alpha * (2 * n - 1) / (2 * mp.sqrt(share * other))
        return e / sigma * inv_s - mp.log(e / sigma) + log_s - 1

    return float(_k2_oracle_mean(q, n, conditional))


# ---------------------------------------------------------------------------
# Acceptance criteria reporting
# ---------------------------------------------------------------------------

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE.append((number, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, title, passed, detail in sorted(_ACCEPTANCE):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} {status}  {title}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
