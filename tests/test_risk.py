"""Monte Carlo engine, exact two-population risk, and closed-form risk values.

The vectorized loss kernel must agree with plain-float transcriptions of
the paper's formulas (the estimate, selection and loss oracles in
conftest) to floating-point roundoff, elementwise on the same simulated
sums. Closed-form values use the harmonic-sum
digamma oracle from conftest; the exact k=2 risk is held to a 40-digit
mpmath quadrature (skipped when mpmath is absent).
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selhaz.risk
from selhaz.estimators import (
    EstimatorKind,
    EstimatorSpec,
    _estimates,
    admissible_range,
    ml,
    ml_improved,
    n1,
    n2,
    n2_improved,
)
from selhaz.model import PopulationSet, RngSpec, _sum_blocks, draw_sums
from selhaz.numerics import DomainError, digamma
from selhaz.risk import (
    BayesPrior,
    PairedComparison,
    RiskEstimate,
    _blocks,
    _exact_risks_k2,
    _losses_for_sums,
    bayes_risk,
    entropy_loss,
    exact_risk_scaleinv_k2,
    gb_component_risk,
    h_of_q,
    mc_dominance,
    mc_risk,
    mc_risk_component,
    mc_risks,
    sup_risk_scaleinv,
)
from conftest import (
    digamma_int_oracle,
    euler_gamma_oracle,
    entropy_loss_oracle,
    estimate_oracle,
    expected_log_selected_oracle,
    k2_risk_oracle,
    selected_index_oracle,
)

POP = PopulationSet(n=5, rates=(1.0, 2.0))
RNG = RngSpec(seed=20260819, stream_id=0)

GAMMA = euler_gamma_oracle()


def gb_oracle(n: int) -> float:
    """psi(n) - ln(n-1) assembled from the exact harmonic representation."""
    return digamma_int_oracle(n, GAMMA) - math.log(n - 1)


class TestEntropyLoss:
    def test_zero_at_truth(self):
        assert entropy_loss(3.0, 3.0) == 0.0

    def test_hand_value(self):
        # d = e * sigma gives e - ln e - 1 = e - 2.
        assert entropy_loss(math.e * 2.0, 2.0) == pytest.approx(
            math.e - 2.0, rel=1e-15
        )

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_depends_only_on_ratio(self, ratio, sigma):
        assert entropy_loss(ratio * sigma, sigma) == pytest.approx(
            entropy_loss(ratio, 1.0), rel=1e-9, abs=1e-12
        )

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_nonnegative(self, d, sigma):
        assert entropy_loss(d, sigma) >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_loss(0.0, 1.0)
        with pytest.raises(DomainError):
            entropy_loss(1.0, -1.0)


def assert_kernel_matches_oracles(specs, pop: PopulationSet, sums: np.ndarray) -> None:
    """Each estimate against estimate_oracle, the selection against
    selected_index_oracle, and each loss against entropy_loss_oracle at the
    kernel's estimate, all elementwise at rtol 1e-13. Losses are not held
    to the oracle estimate: near x = 1 a one-ulp change in an estimate
    moves x - ln x - 1 by more than 1e-13 relative."""
    rows = [[float(v) for v in row] for row in sums]
    picks = [selected_index_oracle(row) for row in rows]
    estimates, jj = _estimates(specs, pop.n, sums)
    losses = _losses_for_sums(specs, pop, sums)
    assert losses.shape == estimates.shape == (len(specs), len(rows))
    assert jj.tolist() == picks
    for spec, est, loss in zip(specs, estimates, losses):
        want = [estimate_oracle(spec, pop.n, row) for row in rows]
        np.testing.assert_allclose(est, want, rtol=1e-13, atol=0.0)
        want = [entropy_loss_oracle(d, pop.rates[j]) for d, j in zip(est, picks)]
        np.testing.assert_allclose(loss, want, rtol=1e-13, atol=0.0)


class TestLossKernelMatchesEvaluate:
    """Lock the vectorized kernel to the independent oracles in conftest."""

    @pytest.mark.parametrize(
        "spec_factory",
        [lambda: n2(5), lambda: n2_improved(5, 2), lambda: ml_improved(5, 2)],
        ids=["N2", "N2I", "MLI"],
    )
    def test_elementwise_agreement(self, spec_factory):
        spec = spec_factory()
        sums = _sum_blocks(POP.n, np.asarray(POP.rates), RNG, 0, 512)
        assert_kernel_matches_oracles((spec,), POP, sums)


class TestLossKernelSharedWork:
    """One kernel call scores many specs: the selection is shared, and the
    geometric mean is computed once per distinct h_count."""

    POP5 = PopulationSet(n=4, rates=(1.0, 2.0, 1.25, 3.0, 0.5))

    def test_mixed_tuple_matches_evaluate(self):
        pop = self.POP5
        h3 = n2_improved(4, 5, h_count=3)
        specs = (h3, ml_improved(4, 5), h3, n2(4))
        sums = _sum_blocks(pop.n, np.asarray(pop.rates), RNG, 0, 512)
        losses = _losses_for_sums(specs, pop, sums)
        np.testing.assert_array_equal(losses[0], losses[2])
        assert_kernel_matches_oracles(specs, pop, sums)

    def test_identical_improved_specs_give_exact_zero(self):
        spec = n2_improved(4, 5, h_count=3)
        cmp = mc_dominance(spec, spec, self.POP5, 5000, RNG)
        assert cmp.mean_diff == 0.0
        assert cmp.std_error_diff == 0.0


class TestMcRisk:
    def test_deterministic(self):
        a = mc_risk(n2(5), POP, 2000, RNG)
        b = mc_risk(n2(5), POP, 2000, RNG)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_worker_count_invariant(self):
        # The engine is serial, so this is a rerun across the
        # 4096-replication block edge.
        base = mc_risk(n2(5), POP, 6000, RNG)
        other = mc_risk(n2(5), POP, 6000, RNG)
        assert other.mean == base.mean
        assert other.std_error == base.std_error

    def test_single_replication_has_zero_se(self):
        est = mc_risk(n2(5), POP, 1, RNG)
        assert est.std_error == 0.0
        assert est.replications == 1

    def test_matches_exact_quadrature(self):
        est = mc_risk(n2(5), POP, 100_000, RNG)
        exact = exact_risk_scaleinv_k2(4.0, POP.rates, 5)
        assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_estimate_metadata(self):
        est = mc_risk(n2(5), POP, 100, RngSpec(seed=7, stream_id=3))
        assert est.seed == 7
        assert est.replications == 100

    def test_invalid_improved_spec_raises(self):
        bad = EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.9, h_count=2)
        with pytest.raises(DomainError):
            mc_risk(bad, POP, 100, RNG)

    def test_invalid_improved_spec_named_in_error(self):
        bad = EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.3, h_count=2)
        match = r"^i4:0\.3:2 at n=5, k=2: alpha above its upper bound \(limit 0\.272727, got 0\.3\)$"
        with pytest.raises(DomainError, match=match):
            mc_risk(bad, POP, 100, RNG)
        with pytest.raises(DomainError, match=match):
            mc_dominance(n2(5), bad, POP, 100, RNG)

    def test_count_beyond_float_range_rejected(self):
        # float(10**400) used to raise OverflowError before the counter check.
        with pytest.raises(DomainError, match="overflow the 64-bit draw counter"):
            mc_risk(n2(5), POP, 10**400, RNG)

    def test_bool_count_rejected(self):
        # True used to run one replication.
        with pytest.raises(DomainError, match="replications must be a positive integer, got True"):
            mc_risk(n2(5), POP, True, RNG)

    def test_integral_counts_of_any_type_agree(self):
        want = mc_risk(n2(5), POP, 50, RNG)
        for reps in (np.int64(50), np.uint16(50), 50.0, np.float64(50.0)):
            assert mc_risk(n2(5), POP, reps, RNG) == want

    def test_domain(self):
        with pytest.raises(DomainError):
            mc_risk(n2(5), POP, 0, RNG)


class TestMcDominance:
    def test_identical_specs_give_exact_zero(self):
        cmp = mc_dominance(n2(5), n2(5), POP, 3000, RNG)
        assert cmp.mean_diff == 0.0
        assert cmp.std_error_diff == 0.0

    def test_n2_beats_n1_with_common_random_numbers(self):
        cmp = mc_dominance(n1(5), n2(5), POP, 10_000, RNG)
        assert cmp.mean_diff > 3.0 * cmp.std_error_diff

    def test_swapping_flips_sign_exactly(self):
        fwd = mc_dominance(n1(5), n2(5), POP, 4000, RNG)
        rev = mc_dominance(n2(5), n1(5), POP, 4000, RNG)
        assert rev.mean_diff == -fwd.mean_diff
        assert rev.std_error_diff == fwd.std_error_diff

    def test_deterministic_and_worker_invariant(self):
        base = mc_dominance(n1(5), n2(5), POP, 6000, RNG)
        again = mc_dominance(n1(5), n2(5), POP, 6000, RNG)
        assert again.mean_diff == base.mean_diff
        assert again.std_error_diff == base.std_error_diff


class TestMcRiskComponent:
    def test_matches_closed_form(self):
        for n in (2, 5, 8):
            est = mc_risk_component(n, 1.0, float(n - 1), 20_000, RNG)
            assert abs(est.mean - gb_oracle(n)) < 4.0 * est.std_error

    def test_rate_invariance_of_distribution(self):
        # The loss of c/Y against the true rate is scale-free, so the risk
        # estimate is the same for any rate with the same seed only in
        # distribution; check agreement within MC error instead.
        a = mc_risk_component(5, 1.0, 4.0, 20_000, RNG)
        b = mc_risk_component(5, 3.0, 4.0, 20_000, RngSpec(seed=99, stream_id=1))
        assert abs(a.mean - b.mean) < 4.0 * math.hypot(a.std_error, b.std_error)

    def test_deterministic(self):
        a = mc_risk_component(5, 1.0, 4.0, 5000, RNG)
        b = mc_risk_component(5, 1.0, 4.0, 5000, RNG)
        assert a.mean == b.mean

    def test_domain(self):
        with pytest.raises(DomainError):
            mc_risk_component(1, 1.0, 1.0, 100, RNG)
        with pytest.raises(DomainError):
            mc_risk_component(5, -1.0, 4.0, 100, RNG)
        with pytest.raises(DomainError):
            mc_risk_component(5, 1.0, 0.0, 100, RNG)


class TestHOfQ:
    def test_symmetric_value_n5(self):
        assert h_of_q(1.0, 5) == pytest.approx(93.0 / 512.0, abs=1e-12)

    def test_reciprocal_of_upper_endpoint(self):
        for n in range(2, 21):
            assert 1.0 / h_of_q(1.0, n) == pytest.approx(
                admissible_range(n).c_upper, abs=1e-10
            )

    def test_closed_form_n2(self):
        # For n = 2 the regularized beta terms collapse to
        # h(q) = 1 - 2u(1-u) with u = 1/(1+q).
        for q in (1.0, 2.5, 10.0, 1e4):
            u = 1.0 / (1.0 + q)
            assert h_of_q(q, 2) == pytest.approx(1.0 - 2.0 * u * (1.0 - u), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
    def test_nondecreasing_on_log_grid(self, n):
        grid = np.logspace(0.0, 6.0, 121)
        values = [h_of_q(float(q), n) for q in grid]
        diffs = np.diff(values)
        assert diffs.min() >= -1e-14

    @pytest.mark.parametrize("n", [3, 5, 8, 20])
    def test_limit_at_large_ratio(self, n):
        assert abs(h_of_q(1e6, n) - 1.0 / (n - 1.0)) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            h_of_q(0.0, 5)
        with pytest.raises(DomainError):
            h_of_q(1.0, 1)

    def test_n_beyond_float_range_names_n(self):
        # float(10**400) used to escape as a raw OverflowError.
        with pytest.raises(DomainError, match=r"sample size n must be below 2\*\*1024"):
            h_of_q(2.0, 10**400)

    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0, 10.0, 100.0, 1e4])
    def test_against_50_digit_central_term(self, n, q):
        # (1 - C(2n-2, n-1) (u(1-u))^(n-1)) / (n-1) with u = 1/(1+q), at the
        # value of q itself; the sum of two incomplete beta tails missed it
        # by up to 2.1e-13 at n = 200.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            u = 1 / (1 + mp.mpf(q))
            exact = (1 - mp.binomial(2 * n - 2, n - 1) * (u * (1 - u)) ** (n - 1)) / (n - 1)
        assert h_of_q(q, n) == pytest.approx(float(exact), rel=2e-14, abs=0)

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_nonfinite_ratio_names_q(self, q):
        with pytest.raises(DomainError, match="rate ratio q must be finite"):
            h_of_q(q, 5)

    def test_exact_risk_with_overflowing_ratio_names_q(self):
        with pytest.raises(DomainError, match="rate ratio q must be finite"):
            exact_risk_scaleinv_k2(4.0, (1e-200, 1e200), 5)


class TestExactRisk:
    def test_scale_invariance(self):
        a = exact_risk_scaleinv_k2(4.0, (2.0, 3.0), 5)
        b = exact_risk_scaleinv_k2(4.0, (4.0, 6.0), 5)
        assert a == b

    @settings(max_examples=100)
    @given(
        c=st.floats(0.1, 100.0),
        rate=st.floats(1e-3, 1e3),
        q=st.floats(1.0, 1e9),
        n=st.integers(2, 40),
        power=st.integers(-40, 40),
        factor=st.floats(1e-3, 1e3),
    )
    def test_invariant_under_a_common_rate_factor(self, c, rate, q, n, power, factor):
        rates = (rate, rate * q)
        risk = exact_risk_scaleinv_k2(c, rates, n)
        # A power of two leaves q's bits alone, so the risk keeps its bits too.
        assert exact_risk_scaleinv_k2(c, tuple(r * 2.0**power for r in rates), n) == risk
        scaled = exact_risk_scaleinv_k2(c, tuple(r * factor for r in rates), n)
        assert scaled == pytest.approx(risk, rel=0, abs=1e-13)

    @settings(max_examples=100)
    @given(
        c=st.floats(0.1, 100.0),
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
        n=st.integers(2, 40),
    )
    def test_symmetric_in_the_two_rates(self, c, a, b, n):
        assert exact_risk_scaleinv_k2(c, (a, b), n) == exact_risk_scaleinv_k2(c, (b, a), n)

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 12),
        c_over_n=st.floats(0.5, 1.5),
        q=st.floats(1.0, 1e4),
        stream=st.integers(0, 2**32),
    )
    def test_agrees_with_mc_risk_within_4_se(self, n, c_over_n, q, stream):
        c = c_over_n * n
        spec = EstimatorSpec(kind=EstimatorKind.SCALE_INVERSE, c=c, name="c")
        pop = PopulationSet(n=n, rates=(1.0, q))
        est = mc_risk(spec, pop, 100_000, RngSpec(seed=RNG.seed, stream_id=stream))
        assert abs(est.mean - exact_risk_scaleinv_k2(c, pop.rates, n)) < 4.0 * est.std_error

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20, 60])
    @pytest.mark.parametrize("q", [1.0, 1.5, 5.0, 1e2, 1e4, 1e6, 1e9])
    def test_expected_log_matches_mpmath_oracle(self, n, q):
        # E[ln(sigma_J Y_J)] enters the risk with weight one, so the risks of
        # N2 and ML pin it: here against the risk written out in conftest and
        # integrated over T = Y_1/S, which shares no step with the engine.
        pytest.importorskip("mpmath")
        for c in (n - 1.0, float(n)):
            want = k2_risk_oracle(c, q, n)
            assert abs(exact_risk_scaleinv_k2(c, (1.0, q), n) - want) <= 1e-14

    @pytest.mark.parametrize("n", [1000, 1074, 1075, 3000, 20000])
    @pytest.mark.parametrize("q", [1.0, 1.5, 1e2])
    def test_expected_log_large_n_matches_mpmath_oracle(self, n, q):
        # The risk of N2 is about 1/(2n), so this is relative: the loss is
        # near 0 over the whole Beta(n, n) bulk. The finite sum this engine
        # replaced was 2.4e-7 off at n = 2e4.
        pytest.importorskip("mpmath")
        want = k2_risk_oracle(n - 1.0, q, n)
        assert exact_risk_scaleinv_k2(n - 1.0, (1.0, q), n) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("q", [1e100, 1e300, 1.7e308])
    def test_extreme_ratio_reaches_the_sup_limit(self, n, q):
        # O(q^-(n-1)) below the q -> infinity limit, which is below 1e-100
        # here; nothing in the engine may warn, overflow or return NaN.
        for c in (n / 2.0, n - 1.0, float(n)):
            risk = exact_risk_scaleinv_k2(c, (1.0, q), n)
            assert math.isfinite(risk)
            assert risk == pytest.approx(sup_risk_scaleinv(c, n), rel=0, abs=1e-14)

    @pytest.mark.parametrize(
        "n, scales", [(2, (1.0, 1.0)), (3, (0.3, 1.0)), (5, (0.3, 0.2)), (8, (1.0, 0.1))]
    )
    def test_improved_specs_match_the_mpmath_oracle(self, n, scales):
        # N2I and MLI come out of the same engine with no code of their
        # own: held to the improved form written out in conftest.
        pytest.importorskip("mpmath")
        rates = tuple(1.0 / s for s in scales)
        q = max(rates) / min(rates)
        specs = (n2_improved(n, 2), ml_improved(n, 2))
        for spec, risk in zip(specs, _exact_risks_k2(specs, rates, n)):
            want = k2_risk_oracle(spec.c, q, n, spec.alpha)
            assert risk == pytest.approx(want, rel=1e-13, abs=0)

    def test_improved_n5_reference_cell(self):
        # N2I at n=5, scales (0.3, 0.2): 0.0694732468770542 by a 30-digit
        # mpmath integral.
        (risk,) = _exact_risks_k2((n2_improved(5, 2),), (1 / 0.3, 1 / 0.2), 5)
        assert risk == pytest.approx(0.0694732468770542, rel=0, abs=2e-15)

    @pytest.mark.parametrize("scales", [(0.3, 0.2), (1.0, 1.0), (0.5, 1.0)])
    def test_improved_specs_agree_with_mc_risks_within_4_se(self, scales):
        pop = PopulationSet(n=5, rates=tuple(1.0 / s for s in scales))
        specs = (n2(5), ml(5), n2_improved(5, 2), ml_improved(5, 2))
        exact = _exact_risks_k2(specs, pop.rates, pop.n)
        for est, risk in zip(mc_risks(specs, pop, 200_000, RNG), exact):
            assert abs(est.mean - risk) < 4.0 * est.std_error

    def test_engine_is_symmetric_in_the_rates_for_every_spec(self):
        specs = (n1(5), n2(5), ml(5), n2_improved(5, 2), ml_improved(5, 2))
        a = _exact_risks_k2(specs, (2.0, 3.0), 5)
        assert np.array_equal(a, _exact_risks_k2(specs, (3.0, 2.0), 5))
        assert np.array_equal(a, _exact_risks_k2(specs, (2.0**-30 * 2.0, 2.0**-30 * 3.0), 5))

    def test_estimates_come_from_the_monte_carlo_kernel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("_estimates called")

        monkeypatch.setattr(selhaz.risk, "_estimates", forbidden)
        with pytest.raises(AssertionError, match="_estimates called"):
            exact_risk_scaleinv_k2(4.0, (1.0, 3.0), 5)

    def test_n_past_2_pow_53_is_a_domain_error(self):
        assert math.isfinite(exact_risk_scaleinv_k2(4.0, (1.0, 2.0), 2**53))
        with pytest.raises(DomainError, match=r"needs n <= 2\*\*53"):
            exact_risk_scaleinv_k2(4.0, (1.0, 2.0), 2**53 + 2)

    @pytest.mark.parametrize("n", [10**6, 10**8])
    def test_cost_does_not_grow_with_n(self, n):
        # The finite sum took 0.63 s at n = 1e6 and 69 s at n = 1e8; the
        # panel count here does not depend on n once the kernel is narrow.
        start = time.perf_counter()
        risk = exact_risk_scaleinv_k2(n - 1.0, (1.0, 2.0), n)
        assert time.perf_counter() - start < 0.05
        assert risk == pytest.approx(sup_risk_scaleinv(n - 1.0, n), rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 2e9, 1e200])
    def test_oracle_refuses_unchecked_ratios(self, q):
        # At n = 5, q = 1e200 the quadrature returned 0.8846, where the
        # q -> inf limit is psi(5) = 1.5061.
        with pytest.raises(ValueError, match=r"\[1, 1e9\]"):
            expected_log_selected_oracle(q, 5)

    def test_n2_q1e4_regression(self):
        # Adaptive quadrature over (0, inf) misses the narrow peak near
        # y = 2/q here by 3.8e-8 while reporting convergence. At n = 2,
        # I_x(2, 1) = x^2, so h(q) = (q^2 + 1) / (1 + q)^2 and the risk at
        # c = 1 is h + E - 1.
        pytest.importorskip("mpmath")
        q = 1e4
        want = (q * q + 1.0) / (1.0 + q) ** 2 + expected_log_selected_oracle(q, 2) - 1.0
        assert abs(exact_risk_scaleinv_k2(1.0, (1.0, q), 2) - want) <= 1e-13

    def test_calls_no_quadrature(self, monkeypatch):
        import selhaz.numerics
        import selhaz.risk

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called")

        for module in (selhaz.numerics, selhaz.risk):
            monkeypatch.setattr(module, "adaptive_quad", forbidden)
            monkeypatch.setattr(module, "gamma_cdf", forbidden)
        assert math.isfinite(exact_risk_scaleinv_k2(4.0, (1.0, 3.0), 5))

    def test_mc_cross_check_equal_rates(self):
        exact = exact_risk_scaleinv_k2(4.0, (1.0, 1.0), 5)
        est = mc_risk(n2(5), PopulationSet(n=5, rates=(1.0, 1.0)), 100_000, RNG)
        assert abs(est.mean - exact) < 3.0 * est.std_error

    def test_mc_cross_check_unequal_rates(self):
        exact = exact_risk_scaleinv_k2(3.0, (1.0, 4.0), 5)
        est = mc_risk(n1(5), PopulationSet(n=5, rates=(1.0, 4.0)), 100_000, RNG)
        assert abs(est.mean - exact) < 3.0 * est.std_error

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_equal_rates_at_lower_endpoint_below_minimax(self, n):
        # The selection risk of (n-1)/Y at equal rates stays below the
        # single-population minimax value.
        risk = exact_risk_scaleinv_k2(float(n - 1), (1.0, 1.0), n)
        assert risk <= gb_component_risk(n) + 1e-8

    def test_requires_two_rates(self):
        with pytest.raises(DomainError):
            exact_risk_scaleinv_k2(4.0, (1.0, 2.0, 3.0), 5)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_risk_scaleinv_k2(0.0, (1.0, 2.0), 5)
        with pytest.raises(DomainError):
            exact_risk_scaleinv_k2(4.0, (1.0, -2.0), 5)


class TestClosedFormRisks:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_component_minimax_value(self, n):
        assert gb_component_risk(n) == pytest.approx(gb_oracle(n), abs=1e-10)

    @pytest.mark.parametrize("n", [10**4, 10**6, 10**9])
    def test_large_n_against_mpmath(self, n):
        # psi(n) - ln(n-1) by subtraction was 1.7e-11, 9.7e-10 and 3.6e-6
        # off (relative) at these n.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            gap = mp.digamma(n) - mp.log(n - 1)
            sup_at_n = mp.mpf(n) / (n - 1) - mp.log(n) + mp.digamma(n) - 1
            bayes = mp.digamma(n + 2.5) - mp.log(n + 1.5)
        assert gb_component_risk(n) == pytest.approx(float(gap), rel=1e-12, abs=0)
        assert sup_risk_scaleinv(float(n - 1), n) == gb_component_risk(n)
        assert sup_risk_scaleinv(float(n), n) == pytest.approx(float(sup_at_n), rel=1e-12, abs=0)
        prior = BayesPrior(shape=2.5, rate=1.0)
        assert bayes_risk(n, prior) == pytest.approx(float(bayes), rel=1e-12, abs=0)

    def test_named_values(self):
        # psi(5) - ln 4 and psi(8) - ln 7 rounded to seven places.
        assert gb_component_risk(5) == pytest.approx(0.1198233, abs=5e-8)
        assert gb_component_risk(8) == pytest.approx(0.0697313, abs=5e-8)

    def test_bayes_matches_shifted_component(self):
        # Integer shift: prior shape a adds a pseudo-observations.
        assert bayes_risk(5, BayesPrior(shape=1.0, rate=2.0)) == pytest.approx(
            digamma(6.0) - math.log(5.0), abs=1e-12
        )

    def test_bayes_rate_free(self):
        a = bayes_risk(5, BayesPrior(shape=0.5, rate=1.0))
        b = bayes_risk(5, BayesPrior(shape=0.5, rate=250.0))
        assert a == b

    def test_bayes_shrinks_with_prior_mass(self):
        shapes = [0.1, 0.5, 1.0, 2.0, 5.0]
        values = [bayes_risk(5, BayesPrior(shape=s, rate=1.0)) for s in shapes]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_bayes_small_shape_limit(self):
        assert bayes_risk(5, BayesPrior(shape=1e-9, rate=1.0)) == pytest.approx(
            gb_component_risk(5), abs=1e-7
        )

    def test_sup_risk_at_lower_endpoint_is_minimax(self):
        for n in (2, 5, 8):
            assert sup_risk_scaleinv(float(n - 1), n) == pytest.approx(
                gb_component_risk(n), abs=1e-14
            )

    def test_sup_risk_minimized_at_lower_endpoint(self):
        grid = np.linspace(0.5, 8.0, 151)
        values = [sup_risk_scaleinv(float(c), 5) for c in grid]
        assert grid[int(np.argmin(values))] == pytest.approx(4.0, abs=0.05)

    def test_sup_risk_hand_assembly(self):
        # c/(n-1) - ln c + psi(n) - 1 at (c, n) = (3, 5) and (5, 5).
        psi5 = digamma_int_oracle(5, GAMMA)
        assert sup_risk_scaleinv(3.0, 5) == pytest.approx(
            0.75 - math.log(3.0) + psi5 - 1.0, abs=1e-12
        )
        assert sup_risk_scaleinv(5.0, 5) == pytest.approx(
            1.25 - math.log(5.0) + psi5 - 1.0, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            gb_component_risk(1)
        with pytest.raises(DomainError):
            sup_risk_scaleinv(0.0, 5)
        with pytest.raises(DomainError):
            bayes_risk(5, BayesPrior(shape=-1.0, rate=1.0))


class TestResultTypes:
    def test_risk_estimate_validation(self):
        with pytest.raises(DomainError):
            RiskEstimate(mean=0.1, std_error=-0.01, replications=10, seed=1)
        with pytest.raises(DomainError):
            RiskEstimate(mean=0.1, std_error=0.01, replications=0, seed=1)

    def test_paired_comparison_validation(self):
        with pytest.raises(DomainError):
            PairedComparison(mean_diff=0.0, std_error_diff=-1.0, replications=10)

    def test_bayes_prior_validation(self):
        with pytest.raises(DomainError):
            BayesPrior(shape=0.0, rate=1.0)
        with pytest.raises(DomainError):
            BayesPrior(shape=1.0, rate=0.0)


class TestSerialEngine:
    """The engine runs every block on the calling thread, with no pool."""

    def test_cli_import_loads_no_thread_pool(self):
        src = os.path.dirname(os.path.dirname(selhaz.risk.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, selhaz.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_blocks_run_on_the_calling_thread(self, monkeypatch):
        seen = []
        sum_blocks = selhaz.risk._sum_blocks

        def spy(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            return sum_blocks(*args)

        reps = 2 * 4096 + 1
        before = threading.active_count()
        monkeypatch.setattr(selhaz.risk, "_sum_blocks", spy)
        mc_risks((n2(5), ml(5)), POP, reps, RNG)
        assert len(_blocks(reps)) == 3
        assert seen == [(threading.get_ident(), before)] * 3
        assert threading.active_count() == before

    def test_workers_argument_is_gone(self):
        with pytest.raises(TypeError):
            mc_risk(n2(5), POP, 100, RNG, workers=2)


class TestMcRisks:
    """Scoring several estimators on shared draws changes no bit of any one."""

    @pytest.mark.parametrize("full_blocks", [1, 2, 8])
    @pytest.mark.parametrize(
        "pop, specs",
        [
            (POP, (n1(5), n2(5), n2_improved(5, 2), ml(5), ml_improved(5, 2))),
            (
                PopulationSet(n=3, rates=(1.0, 2.0, 1.25, 3.0, 0.5)),
                (n2_improved(3, 5, h_count=3), n2(3)),
            ),
        ],
        ids=["k2-named", "k5-N2I-h3"],
    )
    def test_rows_equal_single_calls(self, pop, specs, full_blocks):
        reps = full_blocks * 4096 + 11
        joint = mc_risks(specs, pop, reps, RNG)
        assert len(joint) == len(specs)
        for spec, est in zip(specs, joint):
            alone = mc_risk(spec, pop, reps, RNG)
            assert est.mean == alone.mean
            assert est.std_error == alone.std_error
            assert est.replications == reps and est.seed == RNG.seed

    def test_domain(self):
        with pytest.raises(DomainError):
            mc_risks((), POP, 100, RNG)
        with pytest.raises(DomainError):
            mc_risks((n2(5),), POP, 0, RNG)


class TestNonFiniteInputs:
    """An infinite constant or rate is a DomainError, never a NaN risk."""

    @pytest.mark.parametrize("rate, c", [(math.inf, 4.0), (1.0, math.inf), (math.nan, 4.0)])
    def test_mc_risk_component(self, rate, c):
        with pytest.raises(DomainError, match="finite"):
            mc_risk_component(5, rate, c, 100, RNG)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_exact_risk_scaleinv_k2(self, c):
        with pytest.raises(DomainError, match="estimator constant c"):
            exact_risk_scaleinv_k2(c, (1.0, 2.0), 5)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_sup_risk_scaleinv(self, c):
        with pytest.raises(DomainError, match="estimator constant c"):
            sup_risk_scaleinv(c, 5)

    def test_overflowing_risk_names_the_estimator(self):
        # Finite rates whose ratio is 1e400: the improved correction's
        # losses reach about 1e200, and their squares overflow the SE.
        pop = PopulationSet(n=5, rates=(1e200, 1e-200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="N2I: Monte Carlo risk is not finite"):
                mc_risks((n2(5), n2_improved(5, 2)), pop, 200, RNG)
            with pytest.raises(DomainError, match="N2I - N2: Monte Carlo risk is not finite"):
                mc_dominance(n2_improved(5, 2), n2(5), pop, 200, RNG)
            # The plain estimate is scale free: its risk stays finite.
            assert math.isfinite(mc_risk(n2(5), pop, 200, RNG).std_error)



class TestCounterOverflowBeforeBlocks:
    """A replication count whose draw counters overflow is rejected before
    the engine lists its blocks: at 2**62 reps that list alone holds about
    1e15 entries. _blocks and _assemble are replaced by failures, so a
    check that came too late fails here instead of allocating."""

    REPS = 2**62

    @pytest.fixture(autouse=True)
    def no_blocks(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("blocks listed before the counter check")

        monkeypatch.setattr(selhaz.risk, "_blocks", forbidden)
        monkeypatch.setattr(selhaz.risk, "_assemble", forbidden)

    @pytest.mark.parametrize(
        "run",
        [
            lambda reps: mc_risk(n2(5), POP, reps, RNG),
            lambda reps: mc_risks((n2(5), ml(5)), POP, reps, RNG),
            lambda reps: mc_dominance(n2(5), ml(5), POP, reps, RNG),
            lambda reps: mc_risk_component(5, 1.0, 4.0, 2 * reps, RNG),
        ],
        ids=["mc_risk", "mc_risks", "mc_dominance", "mc_risk_component"],
    )
    def test_rejected_without_listing_blocks(self, run):
        with pytest.raises(DomainError, match=r"\[0, \d+\) overflow the 64-bit draw counter"):
            run(self.REPS)

def _bit_digest(n: int, k: int) -> str:
    """sha256 over float.hex of every Monte Carlo output at (n, k).

    Covers mc_risks (plain, h = k and h = 2 improved specs), mc_dominance,
    mc_risk_component and draw_sums, at counts on both sides of the
    4096-replication block edge. Each count's engine values enter twice:
    the digests were taken when the second pass ran on two workers.
    """
    pop = PopulationSet(n=n, rates=(1.0, 2.0, 1.25, 3.0, 0.5)[:k])
    rng = RngSpec(seed=20260819, stream_id=n * 10 + k)
    specs = (n2(n), ml(n), n2_improved(n, k), ml_improved(n, k, h_count=2))
    values = []
    for reps in (1, 4095, 4097, 9000):
        for _ in range(2):
            for est in mc_risks(specs, pop, reps, rng):
                values += [est.mean, est.std_error]
            cmp = mc_dominance(specs[2], specs[0], pop, reps, rng)
            values += [cmp.mean_diff, cmp.std_error_diff]
            est = mc_risk_component(n, 1.5, n - 1.0, reps, rng)
            values += [est.mean, est.std_error]
    for replication in (0, 4095, 4096, 8999):
        values += draw_sums(pop, rng, replication)
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


class TestBitPins:
    """Last-bit pins of the Monte Carlo engine. The golden CSVs round to six
    decimals; these digests see any drift in the sampler, the loss kernel or
    block assembly, down to the last bit of a mean or standard error."""

    @pytest.mark.parametrize(
        "n, k, digest",
        [
            (2, 2, "1b60f9917002ff85330c788c6900e0f1130e429aa8827a32e3d06383bd5e72b6"),
            (5, 2, "6077437a2000aac914187bb5847bd38e1895229d2ae0b2a232b233c9e54b0a79"),
            (5, 5, "9a762cf416d1f37445769d4a11218f1a1bb7a38eb633dead9d9a862f204ad999"),
            (7, 3, "09caa9e5c520d49a513f7eaad87a24f3a6690f836aab3b31691329885c7fc4c2"),
            (8, 2, "f2a5b7c108d9bca2a49d293212d85e77c8acab049e30f6f755e72361ef35e92f"),
            (8, 5, "8ccea060b2731d53959cb0b7da6096fced483d1f92cfa2bb7f74ed8a3d96b53c"),
            (20, 3, "a792a1c99002dbee03868eadc9ac27aef09ccff7be4a51ab2797f540730fe174"),
            (60, 5, "cbf288ad103c826c027bd7b36e93161e1424e742b8fa4cbfa11dc1a9260689d8"),
        ],
    )
    def test_digest(self, n, k, digest):
        assert _bit_digest(n, k) == digest


def _branch_digest(n: int, k: int) -> str:
    """sha256 over float.hex of draw_sums and mc_risks at (n, k).

    The sampler sums n terms and the improved specs sum h = k and h = 2
    logs, so n in {9, 16, 129, 257} and k in {8, 9, 12} reach every branch
    of numpy's pairwise summation (sequential below 8 terms, eight
    accumulators up to 128, recursive halving above) and both sides of the
    k at which the kernel stops ordering columns with a sorting network.
    """
    rates = tuple(1.0 + 0.5 * ((5 * i) % k) for i in range(k))
    pop = PopulationSet(n=n, rates=rates)
    rng = RngSpec(seed=20261018, stream_id=n * 100 + k)
    specs = (n2(n), ml(n), n2_improved(n, k), ml_improved(n, k, h_count=2))
    values = []
    for reps in (1, 4097):
        for est in mc_risks(specs, pop, reps, rng):
            values += [est.mean, est.std_error]
    for replication in (0, 4096):
        values += draw_sums(pop, rng, replication)
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


class TestBranchPins:
    """Last-bit pins beyond TestBitPins' (n, k): long samples and many
    populations. Taken before the sampler and the kernel were laid out
    population-major, and unchanged by it."""

    @pytest.mark.parametrize(
        "n, k, digest",
        [
            (9, 2, "6d1bc1d1202fec5eb0d9a92c322f9c5a5749532b6c66dd6d1a1027451404337a"),
            (16, 2, "a781a9b96209de401faaaa67d38bf44377fc2e402d6ec7a9e6cd2442cf575e83"),
            (129, 2, "9210fa3b6cd3f90f8155cba668dd7178ea3bee7567180ae8083bb8fbc8d2fd4c"),
            (257, 2, "3e30d71bdb7b9df8065875c1f1459586fef300124c118dd0fbdc47470a0db692"),
            (5, 8, "27ecffbce468d51917beb6d04ce6377454244c335956754174d5063bcf9f5e08"),
            (5, 9, "78f2dffcb522d4dd82b59d437ecfa6b9152e87efbf34ccca7a1e1afb45d3447d"),
            (5, 12, "ce86d6ff38d0b4d8945b7151d6c4615e6188c3c1c77866f1f6ca6bca28d8d7b5"),
        ],
    )
    def test_digest(self, n, k, digest):
        assert _branch_digest(n, k) == digest
