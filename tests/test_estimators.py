"""Estimator family, admissibility interval, and improved-form validation.

Closed-form oracles: the admissible upper endpoint for n = 2, 3, 5 comes
out in exact rationals (2, 16/5, 512/93), derived from the binomial form
of the symmetric incomplete beta value.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selhaz.estimators import (
    Admissibility,
    EstimatorKind,
    EstimatorSpec,
    _estimates,
    _ordered,
    admissible_range,
    alpha_upper_bound,
    classify_c,
    estimate,
    ml,
    ml_improved,
    n1,
    n2,
    n2_improved,
    validate_improved,
)
from selhaz.model import PopulationSet, RngSpec, _sum_blocks
from selhaz.numerics import DomainError
from conftest import inc_beta_half_oracle

POP52 = PopulationSet(n=5, rates=(1.0, 2.0))


def c_star_oracle(n: int) -> Fraction:
    """(n-1) / (2 I_{1/2}(n, n-1)) in exact rational arithmetic."""
    return Fraction(n - 1) / (2 * inc_beta_half_oracle(n, n - 1))


class TestNamedFamily:
    def test_constants(self):
        assert ml(5).c == 5.0
        assert n1(5).c == 3.0
        assert n2(5).c == 4.0

    def test_labels(self):
        assert ml(5).label() == "ML"
        assert n1(5).label() == "N1"
        assert n2(5).label() == "N2"
        assert n2_improved(5, 2).label() == "N2I"
        assert ml_improved(5, 2).label() == "MLI"

    def test_n1_needs_three_observations(self):
        with pytest.raises(DomainError):
            n1(2)
        assert n1(3).c == 1.0

    def test_improved_defaults(self):
        spec = n2_improved(5, 2)
        assert spec.alpha == pytest.approx(3.0 / 11.0, abs=1e-15)
        assert spec.h_count == 2
        spec_ml = ml_improved(5, 2)
        assert spec_ml.alpha == pytest.approx(1.0 / 11.0, abs=1e-15)

    def test_improved_rejects_alpha_above_bound(self):
        with pytest.raises(DomainError):
            n2_improved(5, 2, alpha=0.3)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            ml(1)
        with pytest.raises(DomainError):
            n2(0)


class TestEstimatorSpecValidation:
    def test_rejects_nonpositive_c(self):
        with pytest.raises(DomainError):
            EstimatorSpec(EstimatorKind.SCALE_INVERSE, 0.0)

    def test_improved_needs_alpha_and_h(self):
        with pytest.raises(DomainError):
            EstimatorSpec(EstimatorKind.IMPROVED, 4.0)
        with pytest.raises(DomainError):
            EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.1)

    def test_scale_inverse_takes_no_correction_fields(self):
        with pytest.raises(DomainError):
            EstimatorSpec(EstimatorKind.SCALE_INVERSE, 4.0, alpha=0.1)

    def test_improved_alpha_positive(self):
        with pytest.raises(DomainError):
            EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.0, h_count=2)

    def test_improved_h_count_at_least_two(self):
        with pytest.raises(DomainError):
            EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.1, h_count=1)

    @pytest.mark.parametrize("alpha", [None, 0.1])
    def test_named_improved_rejects_fractional_h_count(self, alpha):
        # 2.7 used to be truncated to h_count = 2 without a word.
        with pytest.raises(DomainError, match="h_count must be an integer >= 2, got 2.7"):
            n2_improved(5, 3, alpha=alpha, h_count=2.7)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_rejects_nonfinite_c(self, c):
        with pytest.raises(DomainError, match="c must be positive and finite"):
            EstimatorSpec(EstimatorKind.SCALE_INVERSE, c)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=alpha, h_count=2)


def one_row(spec: EstimatorSpec, pop: PopulationSet, sums) -> float:
    """estimate() on a single replication's sums."""
    (value,) = estimate(spec, pop, [sums])
    return float(value)


class TestEvaluate:
    """estimate(): the checked, public form of the estimator kernel."""

    def test_scale_inverse_is_division(self):
        spec = EstimatorSpec(EstimatorKind.SCALE_INVERSE, 4.0)
        assert one_row(spec, POP52, (2.0, 1.0)) == 2.0

    def test_improved_closed_form_by_hand(self):
        cases = [
            # n=5, k=2, c=4, alpha=3/11, sums (2, 1): Y_J = 2, X = sqrt(2),
            # estimate = 2 + (3/11) * 9 / (2 sqrt(2)).
            (POP52, (2.0, 1.0), n2_improved(5, 2, alpha=3.0 / 11.0),
             2.0 + (3.0 / 11.0) * 9.0 / (2.0 * math.sqrt(2.0))),
            # n=5, k=3, h=2, sums (8, 2, 4): Y_J = 8 and X = sqrt(8 * 4), the
            # geometric mean of the two largest; estimate = 4/8 + 0.1 * 9 / (2 X).
            (PopulationSet(n=5, rates=(1.0, 2.0, 3.0)), (8.0, 2.0, 4.0),
             n2_improved(5, 3, alpha=0.1, h_count=2),
             0.5 + 0.1 * 9.0 / (2.0 * math.sqrt(32.0))),
        ]
        for pop, sums, spec, expected in cases:
            assert one_row(spec, pop, sums) == pytest.approx(expected, rel=1e-14)

    def test_vanishing_alpha_recovers_scale_inverse(self):
        base = one_row(n2(5), POP52, (3.0, 1.5))
        small = one_row(n2_improved(5, 2, alpha=1e-14), POP52, (3.0, 1.5))
        assert small == pytest.approx(base, abs=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_correction_strictly_positive(self, s1, s2):
        sums = (s1, s2)
        assert one_row(n2_improved(5, 2), POP52, sums) > one_row(n2(5), POP52, sums)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100)
    def test_scale_inverse_equivariance(self, lam):
        spec = n2(5)
        assert one_row(spec, POP52, (3.0 * lam, 1.5 * lam)) == pytest.approx(
            one_row(spec, POP52, (3.0, 1.5)) / lam, rel=1e-12
        )

    def test_rejects_invalid_improved_spec(self):
        bad = EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.9, h_count=2)
        with pytest.raises(
            DomainError, match=r"^i4:0\.9:2 at n=5, k=2: alpha above its upper bound"
        ):
            estimate(bad, POP52, [(2.0, 1.0)])

    @pytest.mark.parametrize(
        "spec, sums, row, value",
        [
            # c/Y_J at Y_J = 1e-320 overflows; the first row is fine.
            (n2(5), [(1.0, 2.0), (1e-320, 1e-321)], 1, "inf"),
            # The correction's geometric mean is subnormal: 1/X overflows.
            (n2_improved(5, 2), [(1e-320, 5e-324)], 0, "inf"),
            # The smallest c over Y_J = 2 rounds to 0.
            (EstimatorSpec(EstimatorKind.SCALE_INVERSE, 5e-324), [(2.0, 1.0)], 0, "0"),
        ],
    )
    def test_estimate_beyond_the_float_range_names_spec_and_row(self, spec, sums, row, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                estimate(spec, POP52, sums)
        assert str(info.value).startswith(f"{spec.label()}: estimate is not finite")
        first = sums[row]
        assert f"at row {row} ({first[0]!r}, {first[1]!r}), got {value}" in str(info.value)

    def test_rows_match_one_row_calls_to_the_bit(self):
        # A row's estimate must not depend on the rows computed with it,
        # or a replication's loss would depend on the size of its block.
        # numpy's log of a reversed slice of the sorted sums can take a loop
        # whose last bit, for a few rows in a thousand, moves with the
        # number of rows; these draws contain such rows.
        pop = PopulationSet(n=4, rates=(1.0, 2.0, 1.25, 3.0, 0.5))
        sums = _sum_blocks(pop.n, np.asarray(pop.rates), RngSpec(seed=1), 0, 2048)
        specs = [n2(4)] + [n2_improved(4, 5, h_count=h) for h in range(2, 6)]
        for spec in specs:
            whole = estimate(spec, pop, sums)
            assert whole.shape == (len(sums),)
            rows = [estimate(spec, pop, sums[i : i + 1])[0] for i in range(len(sums))]
            assert whole.tobytes() == np.asarray(rows).tobytes(), spec.label()


class TestColumnKernel:
    """_estimates works on whole columns of a block; each piece must agree
    with numpy's row-wise operation, ties included."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_ordering_matches_np_sort(self, k):
        # All 2**k columns of zeros and ones: a comparator network that
        # sorts these sorts every input (the 0-1 principle). Then small
        # integers, where most columns hold ties.
        zero_one = (np.arange(2**k) >> np.arange(k)[:, None]) & 1
        ties = np.random.default_rng(k).integers(0, 3, size=(k, 3000))
        for cols in (zero_one.astype(float), ties.astype(float)):
            np.testing.assert_array_equal(_ordered(cols), np.sort(cols, axis=0))

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 12])
    def test_selection_matches_argmax_on_ties(self, k):
        sums = np.random.default_rng(k).integers(1, 4, size=(3000, k)).astype(float)
        (est,), jj = _estimates((n2(5),), 5, sums)
        np.testing.assert_array_equal(jj, np.argmax(sums, axis=1))
        np.testing.assert_array_equal(est, 4.0 / sums.max(axis=1))

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_selection_matches_first_row_maximum(self, k):
        # Continuous sums with ties forced in: a later column duplicating an
        # earlier one, rows of equal sums, and rows whose maximum recurs in
        # a later column. The reference takes J row by row as the first
        # index of the row maximum, and Y_J as that entry.
        gen = np.random.default_rng(100 + k)
        sums = gen.gamma(5.0, size=(900, k))
        sums[:300, k - 1] = sums[:300, 0]
        sums[300:400] = sums[300:400, :1]
        for r in range(400, 900):
            first = int(np.argmax(sums[r]))
            if first < k - 1:
                sums[r, gen.integers(first + 1, k)] = sums[r, first]
        c = 3.7
        spec = EstimatorSpec(EstimatorKind.SCALE_INVERSE, c)
        ref_j = np.array([row.tolist().index(max(row.tolist())) for row in sums])
        ref_yj = sums[np.arange(len(sums)), ref_j]
        assert len(set(ref_j.tolist())) > 1
        for layout in (np.ascontiguousarray(sums), np.asfortranarray(sums)):
            (est,), jj = _estimates((spec,), 5, layout)
            assert jj.dtype == np.intp
            np.testing.assert_array_equal(jj, ref_j)
            assert layout[np.arange(len(sums)), jj].tobytes() == ref_yj.tobytes()
            assert est.tobytes() == np.divide(c, ref_yj).tobytes()

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_layouts_and_single_rows_agree_to_the_bit(self, k):
        n = 4
        rates = np.linspace(0.5, 3.0, k)
        sums_f = _sum_blocks(n, rates, RngSpec(seed=3), 0, 600)
        assert sums_f.flags.f_contiguous
        sums_c = np.ascontiguousarray(sums_f)
        specs = [n2(n)] + [n2_improved(n, k, h_count=h) for h in range(2, k + 1)]
        est_f, jj_f = _estimates(specs, n, sums_f)
        est_c, jj_c = _estimates(specs, n, sums_c)
        rows = [_estimates(specs, n, sums_c[i : i + 1]) for i in range(len(sums_c))]
        est_rows = np.concatenate([est for est, _ in rows], axis=1)
        assert est_f.tobytes() == est_c.tobytes() == est_rows.tobytes()
        np.testing.assert_array_equal(jj_f, jj_c)
        np.testing.assert_array_equal(jj_f, np.concatenate([jj for _, jj in rows]))


class TestAdmissibleRange:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, Fraction(2)), (3, Fraction(16, 5)), (5, Fraction(512, 93))],
    )
    def test_upper_endpoint_closed_forms(self, n, expected):
        assert expected == c_star_oracle(n)
        assert admissible_range(n).c_upper == pytest.approx(
            float(expected), abs=1e-10
        )

    @pytest.mark.parametrize("n", range(2, 51))
    def test_lower_endpoint_exact_and_interval_nonempty(self, n):
        rng = admissible_range(n)
        assert rng.c_lower == float(n - 1)
        assert rng.c_upper > rng.c_lower

    @pytest.mark.parametrize("n", range(2, 51))
    def test_upper_endpoint_above_lower_relative(self, n):
        # c_upper/(n-1) = 1/(2 I_{1/2}(n, n-1)) stays above 1 because the
        # Beta(n, n-1) distribution puts less than half its mass below 1/2.
        rng = admissible_range(n)
        assert rng.c_upper / (n - 1.0) > 1.0

    @pytest.mark.parametrize("n", [10**5, 10**7, 10**9])
    def test_upper_endpoint_at_large_n(self, n):
        # c* = (n-1)/(1 - C(2n-2, n-1)/4^(n-1)); the continued fraction for
        # 2 I_{1/2}(n, n-1) missed it by 3.6e-10, 4.4e-9 and 9.4e-7.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = (n - 1) / (1 - mp.binomial(2 * n - 2, n - 1) / mp.mpf(4) ** (n - 1))
        assert admissible_range(n).c_upper == pytest.approx(float(exact), rel=1e-10)

    @pytest.mark.parametrize(
        "n", [10**13, 10**16, 10**30, 10**300], ids=["1e13", "1e16", "1e30", "1e300"]
    )
    def test_upper_endpoint_past_the_lgamma_range(self, n):
        # An lgamma difference for ln C(2n-2, n-1) loses eps n ln n here: the
        # central term is 2% off at n = 1e13 and exp overflows at n = 1e30.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            m = mp.mpf(n - 1)
            tau = mp.exp(mp.loggamma(2 * m + 1) - 2 * mp.loggamma(m + 1) - m * mp.log(4))
            exact = m / (1 - tau)
        assert admissible_range(n).c_upper == pytest.approx(float(exact), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            admissible_range(1)


class TestClassifyC:
    def test_below_interval(self):
        result = classify_c(5, 3.0)
        assert result.status is Admissibility.INADMISSIBLE_LOW
        assert result.dominating_c == 4.0

    def test_lower_endpoint_admissible(self):
        result = classify_c(5, 4.0)
        assert result.status is Admissibility.ADMISSIBLE
        assert result.dominating_c is None

    def test_above_interval(self):
        result = classify_c(5, 6.0)
        assert result.status is Admissibility.INADMISSIBLE_HIGH
        assert result.dominating_c == pytest.approx(512.0 / 93.0, abs=1e-10)

    def test_upper_endpoint_admissible(self):
        c_star = admissible_range(5).c_upper
        assert classify_c(5, c_star).status is Admissibility.ADMISSIBLE

    def test_consistent_with_range_on_grid(self):
        for n in (2, 3, 5, 8, 20):
            rng = admissible_range(n)
            for c in (rng.c_lower, rng.c_upper, 0.5 * rng.c_lower, rng.c_upper + 1.0):
                result = classify_c(n, c)
                inside = rng.c_lower <= c <= rng.c_upper
                assert (result.status is Admissibility.ADMISSIBLE) == inside

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_c(5, 0.0)
        with pytest.raises(DomainError):
            classify_c(1, 1.0)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_rejects_nonfinite_c(self, c):
        with pytest.raises(DomainError, match="c must be positive and finite"):
            classify_c(5, c)


class TestAlphaUpperBound:
    def test_named_bounds(self):
        assert alpha_upper_bound(5, 2, 4.0) == pytest.approx(
            float(Fraction(3, 11)), abs=1e-15
        )
        assert alpha_upper_bound(5, 2, 5.0) == pytest.approx(
            float(Fraction(1, 11)), abs=1e-15
        )

    def test_decreasing_in_c(self):
        values = [alpha_upper_bound(5, 2, c / 10.0) for c in range(1, 51)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_general_formula(self):
        # ((n-c)h + 1)/(nh + 1) by direct rational arithmetic.
        assert alpha_upper_bound(8, 3, 6.0) == pytest.approx(
            float(Fraction((8 - 6) * 3 + 1, 8 * 3 + 1)), abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_upper_bound(5, 2, 6.0)
        with pytest.raises(DomainError):
            alpha_upper_bound(5, 2, 0.0)
        with pytest.raises(DomainError):
            alpha_upper_bound(5, 1, 4.0)


class TestValidateImproved:
    """validate_improved returns None or raises a DomainError naming the
    spec's label, n, k and the first broken condition: c, then h_count,
    then alpha."""

    def test_boundary_alpha_accepted(self):
        spec = EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=3.0 / 11.0, h_count=2)
        assert validate_improved(spec, 5, 2) is None

    def test_alpha_above_bound_rejected_with_limit(self):
        spec = EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.3, h_count=2)
        with pytest.raises(
            DomainError,
            match=r"^i4:0\.3:2 at n=5, k=2: alpha above its upper bound "
            r"\(limit 0\.272727, got 0\.3\)$",
        ):
            validate_improved(spec, 5, 2)

    def test_c_above_n_rejected(self):
        spec = EstimatorSpec(EstimatorKind.IMPROVED, 6.0, alpha=0.01, h_count=2)
        with pytest.raises(
            DomainError, match=r"^i6:0\.01:2 at n=5, k=2: c must lie in \(0, n\] \(limit 5, got 6\)$"
        ):
            validate_improved(spec, 5, 2)

    def test_h_count_above_k_rejected(self):
        spec = EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.1, h_count=3)
        with pytest.raises(
            DomainError, match=r"^i4:0\.1:3 at n=5, k=2: h_count must lie in \[2, k\] \(limit 2, got 3\)$"
        ):
            validate_improved(spec, 5, 2)

    def test_scale_inverse_spec_always_valid(self):
        assert validate_improved(n2(5), 5, 2) is None
        assert validate_improved(EstimatorSpec(EstimatorKind.SCALE_INVERSE, 60.0), 5, 2) is None

    def test_names_first_violation(self):
        # With all three broken, c is named; with h_count and alpha, h_count.
        for c, h, condition in ((6.0, 3, "c must lie"), (4.0, 3, "h_count must lie")):
            bad = EstimatorSpec(EstimatorKind.IMPROVED, c, alpha=0.9, h_count=h, name="N2I")
            with pytest.raises(DomainError, match=rf"^N2I at n=5, k=2: {condition}"):
                validate_improved(bad, 5, 2)
