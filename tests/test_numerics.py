"""Special functions against independent oracles, quadrature against exact
integrals. Expected values are frozen from rational arithmetic or classical
series, never from the code under test."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selhaz.numerics import (
    DomainError,
    QuadratureConvergenceError,
    QuadratureSpec,
    _psi_gap,
    adaptive_quad,
    digamma,
    gamma_cdf,
    reg_inc_beta,
)
from conftest import (
    digamma_int_oracle,
    euler_gamma_oracle,
    inc_beta_binomial_oracle,
    inc_beta_half_oracle,
)

EULER_GAMMA = euler_gamma_oracle()


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_recurrence_at_one(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
    def test_integer_values(self, n):
        assert digamma(float(n)) == pytest.approx(
            digamma_int_oracle(n, EULER_GAMMA), abs=1e-10
        )

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200)
    def test_recurrence_property(self, a):
        assert abs(digamma(a + 1.0) - digamma(a) - 1.0 / a) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


class TestPsiGap:
    """psi(m+1) - ln m against 60-digit mpmath, on both sides of x = 10,
    where the recurrence gives way to the series. The series' first omitted
    term is 8e-16 at x = 10, 1.5e-14 of the gap there."""

    @pytest.mark.parametrize(
        "m", [0.25, 1.0, 4.0, 7.0, 8.5, 9.0, 9.5, 10.0, 99.0, 1e4, 1e6, 1e9, 1e15]
    )
    def test_matches_mpmath(self, m):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            want = mp.digamma(mp.mpf(m) + 1) - mp.log(mp.mpf(m))
        assert _psi_gap(m) == pytest.approx(float(want), rel=2e-14, abs=0)

    def test_finite_at_the_top_of_the_float_range(self):
        # Past m ~ 1e16 the gap is 1/(2m) to within rounding.
        assert _psi_gap(1e300) == pytest.approx(0.5e-300, rel=1e-15)

    @pytest.mark.parametrize("m", [1.0, 4.0, 7.0, 8.0])
    def test_below_ten_is_digamma_minus_log(self, m):
        # The same bits as before the series form, so bounds keeps its
        # minimax digits for n <= 9.
        assert _psi_gap(m) == digamma(m + 1.0) - math.log(m)


class TestRegIncBeta:
    @pytest.mark.parametrize("a", [1.0, 2.5, 7.0])
    def test_symmetric_midpoint(self, a):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-10)

    def test_binomial_oracle_half(self):
        assert reg_inc_beta(0.5, 5, 4) == pytest.approx(
            float(inc_beta_half_oracle(5, 4)), abs=1e-12
        )
        assert float(inc_beta_half_oracle(5, 4)) == 93.0 / 256.0

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("b", [1, 2, 4, 7])
    @pytest.mark.parametrize("x_frac", [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)])
    def test_binomial_oracle_grid(self, a, b, x_frac):
        exact = inc_beta_binomial_oracle(x_frac, a, b)
        assert reg_inc_beta(float(x_frac), a, b) == pytest.approx(
            float(exact), abs=1e-10
        )

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.0, 7.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 7.0) == 1.0

    @pytest.mark.parametrize(
        "x,a,b",
        [(0.3, 2.5, 3.7), (0.7, 0.8, 2.2), (0.2, 6.5, 1.3), (0.9, 12.4, 0.6)],
    )
    def test_continued_fraction_against_quadrature(self, x, a, b):
        # Non-integer parameters: this pins the continued fraction to an
        # independent integral away from the integer oracles above.
        density_norm = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        quad_value = adaptive_quad(
            lambda v: v ** (a - 1.0) * (1.0 - v) ** (b - 1.0) / density_norm,
            0.0,
            x,
        )
        assert reg_inc_beta(x, a, b) == pytest.approx(quad_value, abs=1e-9)

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=0.2, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_complement_identity(self, x, a, b):
        assert abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [10**6, 10**7])
    def test_continued_fraction_at_large_n(self, n):
        # At x = 1/2 the continued fraction needs 536 terms at n = 1e6 and
        # 1146 at n = 1e7. 2 I_{1/2}(n, n-1) = 1 - C(2n-2, n-1) / 4^(n-1).
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            exact = (1 - mp.binomial(2 * n - 2, n - 1) / mp.mpf(4) ** (n - 1)) / 2
        assert reg_inc_beta(0.5, n, n - 1) == pytest.approx(float(exact), rel=1e-8)

    def test_monotone_in_x(self):
        values = [reg_inc_beta(x / 20.0, 5, 4) for x in range(21)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 2.0, -1.0)


class TestGammaCdf:
    def test_origin(self):
        assert gamma_cdf(0.0, 2.0, 5) == 0.0

    def test_total_mass(self):
        assert gamma_cdf(float("inf"), 2.0, 5) == 1.0
        assert gamma_cdf(1e9, 1.0, 3) == pytest.approx(1.0, abs=1e-14)

    def test_erlang_by_hand(self):
        # shape 2, rate 1 at y = 1: 1 - e^-1 (1 + 1).
        assert gamma_cdf(1.0, 1.0, 2) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), abs=1e-14
        )

    def test_shape_one_is_exponential(self):
        for y in (0.1, 1.0, 4.0):
            assert gamma_cdf(y, 1.5, 1) == pytest.approx(
                -math.expm1(-1.5 * y), abs=1e-14
            )

    @pytest.mark.parametrize("shape", [2, 5, 8])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0, 10.0])
    def test_against_density_quadrature(self, shape, rate, y):
        def density(t: float) -> float:
            return math.exp(
                shape * math.log(rate)
                + (shape - 1) * math.log(t)
                - rate * t
                - math.lgamma(shape)
            )

        assert gamma_cdf(y, rate, shape) == pytest.approx(
            adaptive_quad(density, 0.0, y), abs=1e-8
        )

    def test_monotone_in_y(self):
        values = [gamma_cdf(0.5 * j, 1.0, 5) for j in range(40)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_cdf(-1.0, 1.0, 2)
        with pytest.raises(DomainError):
            gamma_cdf(1.0, 0.0, 2)
        with pytest.raises(DomainError):
            gamma_cdf(1.0, 1.0, 0)
        with pytest.raises(DomainError):
            gamma_cdf(1.0, 1.0, 2.5)


class TestAdaptiveQuad:
    def test_unit_constant(self):
        assert adaptive_quad(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("degree", range(7))
    def test_polynomial_exactness(self, degree):
        # integral of t^d over [0, 1] is 1/(d+1), exact for the rule.
        assert adaptive_quad(lambda t, d=degree: t**d, 0.0, 1.0) == pytest.approx(
            1.0 / (degree + 1.0), abs=1e-12
        )

    def test_mixed_polynomial(self):
        # 3t^6 - 2t^3 + t over [0, 2]: exact value 3*128/7 - 8 + 2.
        exact = 3.0 * (2.0**7) / 7.0 - 2.0 * (2.0**4) / 4.0 + (2.0**2) / 2.0
        value = adaptive_quad(lambda t: 3.0 * t**6 - 2.0 * t**3 + t, 0.0, 2.0)
        assert value == pytest.approx(exact, abs=1e-12)

    def test_exponential_tail(self):
        assert adaptive_quad(lambda t: math.exp(-t), 0.0, math.inf) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_log_times_exponential_matches_digamma(self):
        # integral of ln t e^-t over (0, inf) equals psi(1).
        value = adaptive_quad(lambda t: math.log(t) * math.exp(-t), 0.0, math.inf)
        assert value == pytest.approx(digamma(1.0), abs=1e-9)

    def test_reversed_limits_flip_sign(self):
        fwd = adaptive_quad(lambda t: t * t, 0.0, 1.0)
        rev = adaptive_quad(lambda t: t * t, 1.0, 0.0)
        assert rev == pytest.approx(-fwd, abs=1e-14)

    def test_zero_width(self):
        assert adaptive_quad(lambda t: t, 2.0, 2.0) == 0.0

    def test_budget_exhaustion_raises(self):
        tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
        with pytest.raises(QuadratureConvergenceError):
            adaptive_quad(lambda t: math.log(t) * math.exp(-t), 0.0, 1.0, tight)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError):
            adaptive_quad(lambda t: float("nan"), 0.0, 1.0)

    def test_nan_limits_rejected(self):
        with pytest.raises(DomainError):
            adaptive_quad(lambda t: t, float("nan"), 1.0)

    def test_infinite_lower_limit_rejected(self):
        with pytest.raises(DomainError):
            adaptive_quad(lambda t: t, -math.inf, 1.0)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-10
        assert spec.max_subdivisions == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)
