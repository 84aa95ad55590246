"""Sampling determinism, distributional correctness, and the selection rule.

The selection rule and the geometric mean live in the estimator kernel;
they are checked here through estimate() and the loss kernel.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import selhaz.model
from selhaz.estimators import EstimatorKind, EstimatorSpec, _estimates, estimate, n2
from selhaz.model import (
    MAX_DRAWS,
    PopulationSet,
    RngSpec,
    _CHUNK_DRAWS,
    _GOLDEN,
    _check_counter,
    _check_draws,
    _chunk_ramp,
    _mix64,
    _pairwise_sum,
    _ramp,
    _stream_key,
    _sum_blocks,
    _uniforms,
    draw_sums,
)
from selhaz.numerics import DomainError
from selhaz.risk import _losses_for_sums, entropy_loss
from conftest import erlang_cdf_oracle

POP = PopulationSet(n=5, rates=(1.0, 2.0))
RNG = RngSpec(seed=1, stream_id=0)


class TestPopulationSet:
    def test_k_property(self):
        assert POP.k == 2
        assert PopulationSet(n=3, rates=(1.0, 1.0, 4.0)).k == 3

    def test_rejects_single_population(self):
        with pytest.raises(DomainError):
            PopulationSet(n=5, rates=(1.0,))

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            PopulationSet(n=1, rates=(1.0, 2.0))

    def test_rejects_n_beyond_float_range(self):
        # float(10**400) used to escape as a raw OverflowError.
        with pytest.raises(DomainError, match=r"sample size n must be below 2\*\*1024"):
            PopulationSet(n=10**400, rates=(1.0, 1.0))

    @pytest.mark.parametrize(
        "bad_rate", [0.0, -1.0, float("inf"), float("nan"), float("-inf")]
    )
    def test_rejects_bad_rates(self, bad_rate):
        with pytest.raises(DomainError, match="^every rate must be finite and positive, got"):
            PopulationSet(n=5, rates=(1.0, bad_rate))

    def test_accepts_the_smallest_subnormal_rate(self):
        assert PopulationSet(n=5, rates=(1.0, 5e-324)).rates == (1.0, 5e-324)


class TestRngSpec:
    def test_defaults(self):
        assert RngSpec(seed=7).stream_id == 0

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_range(self, bad):
        with pytest.raises(DomainError):
            RngSpec(seed=bad)
        with pytest.raises(DomainError):
            RngSpec(seed=1, stream_id=bad)

    @pytest.mark.parametrize("bad", [1.5, -0.5, 7.0, True, "7"])
    def test_rejects_non_integer_labels(self, bad):
        with pytest.raises(DomainError, match="seed must be an integer"):
            RngSpec(seed=bad)
        with pytest.raises(DomainError, match="stream_id must be an integer"):
            RngSpec(seed=1, stream_id=bad)

    def test_numpy_integer_labels_become_ints(self):
        rng = RngSpec(seed=np.uint64(7), stream_id=np.int64(3))
        assert rng == RngSpec(seed=7, stream_id=3)
        assert type(rng.seed) is int and type(rng.stream_id) is int
        assert draw_sums(POP, rng, 0) == draw_sums(POP, RngSpec(seed=7, stream_id=3), 0)


class TestDrawSums:
    def test_determinism(self):
        first = draw_sums(POP, RNG, 0)
        second = draw_sums(POP, RNG, 0)
        assert first == second

    def test_replications_differ(self):
        assert draw_sums(POP, RNG, 0) != draw_sums(POP, RNG, 1)

    def test_streams_differ(self):
        other = RngSpec(seed=1, stream_id=1)
        assert draw_sums(POP, RNG, 0) != draw_sums(POP, other, 0)

    def test_seeds_differ(self):
        other = RngSpec(seed=2, stream_id=0)
        assert draw_sums(POP, RNG, 0) != draw_sums(POP, other, 0)

    def test_partition_independence(self):
        # The same replications, cut into different batches, must give
        # bit-identical sums; this is what makes worker counts invisible.
        rates = np.asarray(POP.rates)
        whole = _sum_blocks(POP.n, rates, RNG, 0, 100)
        pieces = np.vstack(
            [
                _sum_blocks(POP.n, rates, RNG, 0, 37),
                _sum_blocks(POP.n, rates, RNG, 37, 63),
            ]
        )
        np.testing.assert_array_equal(whole, pieces)

    def test_single_draw_matches_block_row(self):
        rates = np.asarray(POP.rates)
        block = _sum_blocks(POP.n, rates, RNG, 0, 10)
        assert draw_sums(POP, RNG, 7) == tuple(block[7])

    def test_law_of_large_numbers(self):
        # E[Y_1 / n] = 1/sigma_1 = 0.5; var(Y_1/n) = 1/(sigma^2 n).
        pop = PopulationSet(n=5, rates=(2.0, 1.0))
        reps = 100_000
        sums = _sum_blocks(pop.n, np.asarray(pop.rates), RngSpec(seed=3), 0, reps)
        means = sums[:, 0] / pop.n
        se = math.sqrt(1.0 / (4.0 * pop.n) / reps)
        assert abs(means.mean() - 0.5) <= 4.0 * se

    def test_kolmogorov_smirnov_against_gamma_cdf(self):
        # Empirical CDF of Y_1 for sigma = 1 against the Erlang closed form,
        # at n on both sides of the sampler's 16-row product groups (40 is
        # two full groups and a partial one); the 1% critical value of the
        # KS statistic is 1.628/sqrt(N).
        reps = 10_000
        empirical_hi = np.arange(1, reps + 1) / reps
        empirical_lo = np.arange(0, reps) / reps
        for n in (2, 3, 17, 40):
            sums = _sum_blocks(n, np.asarray([1.0, 1.0]), RngSpec(seed=4), 0, reps)
            y = np.sort(sums[:, 0])
            theo = np.asarray([erlang_cdf_oracle(v, n) for v in y])
            ks = max(
                np.max(np.abs(empirical_hi - theo)), np.max(np.abs(theo - empirical_lo))
            )
            assert ks < 1.628 / math.sqrt(reps), n

    def test_equal_rates_select_uniformly(self):
        reps = 100_000
        k = 3
        pop = PopulationSet(n=4, rates=(1.5, 1.5, 1.5))
        sums = _sum_blocks(pop.n, np.asarray(pop.rates), RngSpec(seed=5), 0, reps)
        winners = np.argmax(sums, axis=1)
        se = math.sqrt((1.0 / k) * (1.0 - 1.0 / k) / reps)
        for idx in range(k):
            freq = float(np.mean(winners == idx))
            assert abs(freq - 1.0 / k) <= 4.0 * se

    def test_rejects_negative_replication(self):
        with pytest.raises(DomainError):
            draw_sums(POP, RNG, -1)


def selected(pop: PopulationSet, sums) -> int:
    """The kernel's selected index for one replication's sums."""
    return int(_estimates((n2(pop.n),), pop.n, np.asarray([sums], dtype=np.float64))[1][0])


def kernel_loss(pop: PopulationSet, sums) -> float:
    """The loss kernel's N2 loss on one replication's sums."""
    return float(_losses_for_sums((n2(pop.n),), pop, np.asarray([sums], dtype=np.float64))[0, 0])


class TestSelect:
    """The natural rule: the largest sum is selected, ties to the lowest index."""

    def test_argmax(self):
        assert selected(POP, (3.2, 5.1)) == 1
        assert estimate(n2(5), POP, [(3.2, 5.1)])[0] == 4.0 / 5.1
        assert kernel_loss(POP, (3.2, 5.1)) == entropy_loss(4.0 / 5.1, 2.0)

    def test_tie_breaks_low(self):
        assert selected(POP, (7.0, 7.0)) == 0
        # The rates differ, so the loss shows which one was used: rates[0].
        loss = kernel_loss(POP, (7.0, 7.0))
        assert loss == entropy_loss(4.0 / 7.0, 1.0)
        assert loss != entropy_loss(4.0 / 7.0, 2.0)

    def test_three_populations(self):
        pop = PopulationSet(n=5, rates=(5.0, 6.0, 7.0))
        assert selected(pop, (1.0, 9.0, 4.0)) == 1
        assert kernel_loss(pop, (1.0, 9.0, 4.0)) == entropy_loss(4.0 / 9.0, 6.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match=r"shape \(rows, 2\)"):
            estimate(n2(5), POP, [(1.0, 2.0, 3.0)])
        with pytest.raises(DomainError, match=r"shape \(rows, 2\)"):
            estimate(n2(5), POP, (1.0, 2.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_sums(self, bad):
        with pytest.raises(DomainError, match="finite and positive"):
            estimate(n2(5), POP, [(1.0, 2.0), (1.0, bad)])

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=6
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_scale_covariant_index(self, sums, lam):
        # Scaling all sums by a positive constant cannot move the argmax,
        # as long as the maximum is not a floating-point near-tie.
        best = max(sums)
        runner_up = max((s for s in sums if s != best), default=None)
        if runner_up is not None and runner_up > best * (1.0 - 1e-9):
            return
        pop = PopulationSet(n=2, rates=tuple(1.0 for _ in sums))
        assert selected(pop, sums) == selected(pop, [lam * s for s in sums])

    def test_sigma_matches_rates_entry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            pop = PopulationSet(
                n=3, rates=tuple(float(r) for r in rng.uniform(0.1, 5.0, size=k))
            )
            sums = tuple(float(s) for s in rng.uniform(0.1, 50.0, size=k))
            j = sums.index(max(sums))
            assert selected(pop, sums) == j
            assert estimate(n2(3), pop, [sums])[0] == 2.0 / max(sums)
            assert kernel_loss(pop, sums) == entropy_loss(2.0 / max(sums), pop.rates[j])


def improved(h: int) -> EstimatorSpec:
    """4/Y_J + 0.1 (5h - 1)/(h X) at n = 5, valid for every h in [2, k]."""
    return EstimatorSpec(EstimatorKind.IMPROVED, 4.0, alpha=0.1, h_count=h)


def improved_by_hand(sums, h: int, x: float) -> float:
    """The same estimate with the geometric mean X given."""
    return 4.0 / max(sums) + 0.1 * (5 * h - 1.0) / (h * x)


class TestGeometricMeanStat:
    """X, the geometric mean of the h largest sums, as the kernel uses it."""

    def test_pair(self):
        assert estimate(improved(2), POP, [(4.0, 9.0)])[0] == pytest.approx(
            improved_by_hand((4.0, 9.0), 2, 6.0), rel=1e-14
        )

    def test_identical(self):
        pop = PopulationSet(n=5, rates=(1.0, 1.0, 1.0))
        assert estimate(improved(3), pop, [(1.0, 1.0, 1.0)])[0] == pytest.approx(
            improved_by_hand((1.0, 1.0, 1.0), 3, 1.0), rel=1e-14
        )

    def test_uses_largest(self):
        # h=2 of sums (8, 2, 4): X = sqrt(8 * 4), not a mean over all three.
        pop = PopulationSet(n=5, rates=(1.0, 2.0, 3.0))
        assert estimate(improved(2), pop, [(8.0, 2.0, 4.0)])[0] == pytest.approx(
            improved_by_hand((8.0, 2.0, 4.0), 2, math.sqrt(32.0)), rel=1e-14
        )

    @pytest.mark.parametrize("h", [1, 4, 0, -2])
    def test_h_range(self, h):
        pop = PopulationSet(n=5, rates=(1.0, 2.0, 3.0))
        with pytest.raises(DomainError, match="h_count"):
            estimate(improved(h), pop, [(1.0, 2.0, 3.0)])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError, match="finite and positive"):
            estimate(improved(2), POP, [(1.0, 0.0)])

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=5)
    )
    @settings(max_examples=100)
    def test_between_min_and_max(self, sums):
        # X between the smallest and largest sum puts the correction
        # between its values at those two ends.
        h = len(sums)
        pop = PopulationSet(n=5, rates=(1.0,) * h)
        value = estimate(improved(h), pop, [sums])[0]
        low, high = (improved_by_hand(sums, h, x) for x in (max(sums), min(sums)))
        assert low * (1.0 - 1e-12) <= value <= high * (1.0 + 1e-12)


class TestCounterRange:
    """Draw counters are uint64; a range that would wrap must fail loudly."""

    POP4 = PopulationSet(n=4, rates=(1.0, 2.0))

    def test_last_representable_replication_draws(self):
        # (2**61 - 1 + 1) * k * n = 2**64: the last counter is 2**64 - 1.
        sums = draw_sums(self.POP4, RNG, 2**61 - 1)
        assert len(sums) == 2 and all(s > 0 for s in sums)

    @pytest.mark.parametrize("replication", [2**61, 3 + 2**61, 2**64 + 3])
    def test_wrapping_replication_rejected(self, replication):
        # 3 + 2**61 wrapped onto replication 3's counters; 2**64 + 3 did not
        # fit in uint64 at all and surfaced as a raw OverflowError.
        with pytest.raises(DomainError, match="64-bit"):
            draw_sums(self.POP4, RNG, replication)

    def test_index_beyond_float_range_rejected(self):
        # float(10**400) used to raise OverflowError before the counter check.
        with pytest.raises(DomainError, match="64-bit"):
            draw_sums(self.POP4, RNG, 10**400)

    def test_bool_index_rejected(self):
        # True used to draw replication 1.
        with pytest.raises(DomainError, match="replication must be a nonnegative integer"):
            draw_sums(self.POP4, RNG, True)

    def test_block_reaching_past_the_counter_rejected(self):
        rates = np.asarray(self.POP4.rates)
        with pytest.raises(DomainError, match="64-bit"):
            _sum_blocks(4, rates, RNG, 2**61 - 4096, 4097)

    def test_check_counter_boundary(self):
        # At k * n = 8, replication 2**61 - 1 ends on counter 2**64 - 1.
        _check_counter(0, 2**61, 2, 4)
        _check_counter(2**61 - 1, 2**61, 2, 4)
        with pytest.raises(DomainError, match=r"\[0, 2305843009213693953\) overflow the 64-bit"):
            _check_counter(0, 2**61 + 1, 2, 4)


def _rowwise(n: int, rates: tuple[float, ...], rep_start: int, count: int) -> np.ndarray:
    pop = PopulationSet(n=n, rates=rates)
    return np.asarray([draw_sums(pop, RNG, rep_start + i) for i in range(count)])


class TestChunkEdges:
    """A block is drawn in chunks of whole replications; where the chunks
    fall must not change a bit of any replication's sums."""

    def test_count_not_a_multiple_of_the_chunk(self):
        rates = (1.0, 2.0)
        per_chunk = _CHUNK_DRAWS // (2 * 5)
        count = 2 * per_chunk + 7
        block = _sum_blocks(5, np.asarray(rates), RNG, 11, count)
        np.testing.assert_array_equal(block, _rowwise(5, rates, 11, count))

    def test_replication_larger_than_a_chunk(self):
        # k * n = 2 * (_CHUNK_DRAWS + 1): one replication per chunk.
        n, rates = _CHUNK_DRAWS + 1, (1.0, 3.0)
        block = _sum_blocks(n, np.asarray(rates), RNG, 5, 3)
        np.testing.assert_array_equal(block, _rowwise(n, rates, 5, 3))

    def test_block_ending_at_the_last_counter(self):
        # k * n = 8, so the replications end exactly at counter 2**64 - 1.
        rates = (1.0, 2.0)
        count = _CHUNK_DRAWS // 8 + 5
        start = 2**61 - count
        block = _sum_blocks(4, np.asarray(rates), RNG, start, count)
        np.testing.assert_array_equal(block, _rowwise(4, rates, start, count))


class TestSamplerMemory:
    """The sampler works in a fixed budget, whatever the block size or k * n,
    as long as one replication fits in a chunk."""

    BUDGET = 1 << 20  # bytes, beyond the (count, k) result

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "n, k, count", [(5, 2, 4096), (8, 2, 4096), (5, 2, 20_000), (60, 5, 4096), (3, 5, 1)]
    )
    def test_peak_beyond_the_result(self, n, k, count):
        rates = np.linspace(1.0, 2.0, k)
        peak = self._peak(lambda: _sum_blocks(n, rates, RNG, 0, count))
        assert peak - 8 * count * k < self.BUDGET

    def test_overflow_rejected_before_allocating(self):
        rates = np.asarray([1.0, 2.0])

        def call():
            with pytest.raises(DomainError, match="64-bit"):
                _sum_blocks(4, rates, RNG, 2**61 - 4096, 4097)

        assert self._peak(call) < 64 * 1024

    def test_too_many_draws_rejected_before_allocating(self):
        # k * n = MAX_DRAWS + 2: the three chunk buffers alone would take
        # over 384 MiB.
        rates = np.asarray([1.0, 2.0])

        def call():
            with pytest.raises(DomainError, match=r"k \* n = 2 \* 8388609 uniforms"):
                _sum_blocks(MAX_DRAWS // 2 + 1, rates, RNG, 0, 1)

        assert self._peak(call) < 64 * 1024

    def test_largest_replication_is_accepted(self):
        _check_draws(MAX_DRAWS // 4, 4)
        with pytest.raises(DomainError):
            _check_draws(MAX_DRAWS // 4 + 1, 4)


class TestSamplerReuse:
    """The full-chunk ramp is built once per (n, k) and cannot be written, and
    a result made without out shares no memory with a reused buffer."""

    def test_cached_read_only_and_equal_to_a_fresh_ramp(self):
        ramp = _chunk_ramp(5, 3)
        assert _chunk_ramp(5, 3) is ramp
        assert not ramp.flags.writeable
        assert ramp.shape == (5, 3, _CHUNK_DRAWS // 15)
        np.testing.assert_array_equal(ramp, _ramp(5, 3, _CHUNK_DRAWS // 15))
        np.testing.assert_array_equal(ramp[:, :, :7], _ramp(5, 3, 7))

    def test_results_without_out_are_new_arrays(self):
        rates = np.asarray(POP.rates)
        first = _sum_blocks(POP.n, rates, RNG, 0, 300)
        kept = first.copy()
        second = _sum_blocks(POP.n, rates, RNG, 300, 300)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        for buf in selhaz.model._WORKSPACE.buffers.values():
            assert not np.shares_memory(first, buf)


def _hash_py(key: int, counter: int) -> int:
    """splitmix64 of the counter's hash input, key + (counter + 1) * golden
    mod 2**64, in Python ints: no numpy wrap-around or shift semantics."""
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def _uniform_py(key: int, counter: int) -> float:
    """The counter's uniform (t + 1/2) * 2**-52 from the top 52 hash bits t;
    (2t + 1) * 2**-53 has at most 53 significant bits, so the float is exact."""
    return (2 * (_hash_py(key, counter) >> 12) + 1) * 2.0**-53


class TestUniformConversion:
    """_uniforms puts the top 52 hash bits t into the mantissa of 1.0 and
    subtracts 1 - 2**-53, which leaves u = (t + 1/2) * 2**-52 exactly:
    centred in its cell, never 0.0 and never 1.0."""

    def test_edge_values_are_centred_exactly(self, monkeypatch):
        # With the hash replaced by the identity and a zero key and counter,
        # the ramp itself is the hash output; the low 12 bits, all ones
        # here, must not show.
        t = [0, 1, 2**51, 2**52 - 1]
        monkeypatch.setattr(selhaz.model, "_mix64", lambda z, tmp: z)
        ramp = (np.array(t, dtype=np.uint64) << np.uint64(12)) | np.uint64(0xFFF)
        work, scratch = np.empty_like(ramp), np.empty_like(ramp)
        u = _uniforms(np.uint64(0), 0, ramp, work, scratch)
        assert [Fraction(float(v)) for v in u] == [(x + Fraction(1, 2)) / 2**52 for x in t]
        assert u[0] == 2.0**-53 and u[-1] == 1.0 - 2.0**-53

    def test_hashed_draws_match_python_ints(self):
        # Entry (j, i, r) of _ramp(n, k, m) is counter offset (r * k + i) * n + j.
        n, k, m, first = 5, 3, 200, 123 * 15
        ramp = _ramp(n, k, m)
        work, scratch = np.empty_like(ramp), np.empty_like(ramp)
        key = _stream_key(7, 2)
        u = _uniforms(key, first, ramp, work, scratch)
        assert np.all((u > 0.0) & (u < 1.0))
        expected = [
            _uniform_py(int(key), first + (r * k + i) * n + j)
            for j in range(n)
            for i in range(k)
            for r in range(m)
        ]
        assert u.tobytes() == np.asarray(expected).reshape(n, k, m).tobytes()


class TestSumOracle:
    """_sum_blocks against sums taken term by term in Python: math.fsum of
    -ln(u) / rate over uniforms recomputed from the counters.

    Bound, in units of r = 2**-53, for a sum S/rate of n terms in G groups of
    at most 16: each group product carries at most 15 roundings, which shift
    its log by at most 15 r, so (n - G) r in all; the G logs, G - 1
    additions and one division are each within 4 ulps of a value of size at
    most S; the reference's logs and divisions are within 2 ulps each and
    fsum rounds once. So |got - want| <= (n + (4 G + 4) S) r / rate, and
    a few ulps of the sum wherever S is not small against n.
    """

    RATES = (1e-3, 1.0, 1e3)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 33, 257])
    def test_matches_term_by_term_sums(self, n):
        k, start, count = len(self.RATES), 5, 4
        rng = RngSpec(seed=20261022, stream_id=n)
        got = _sum_blocks(n, np.asarray(self.RATES), rng, start, count)
        key = int(_stream_key(rng.seed, rng.stream_id))
        groups = -(-n // 16)
        for r in range(count):
            for i, rate in enumerate(self.RATES):
                base = ((start + r) * k + i) * n
                s = math.fsum(-math.log(_uniform_py(key, base + j)) for j in range(n))
                want = math.fsum(-math.log(_uniform_py(key, base + j)) / rate for j in range(n))
                bound = (n + (4 * groups + 4) * s) * 2.0**-53 / rate
                assert abs(got[r, i] - want) <= bound, (r, i)


class TestPairwiseSum:
    """_pairwise_sum sums over axis 0 in numpy's own reduction order, so the
    population-major kernel keeps the bits of numpy's row sums."""

    @given(
        st.lists(
            st.floats(min_value=-1e250, max_value=1e250, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=300)
    def test_matches_numpy_reduce_to_the_bit(self, terms):
        x = np.asarray(terms)
        # numpy starts its reduction from +0.0, so a sum of only -0.0 terms
        # is +0.0 there; sampler and kernel sums are never zero.
        assume(not np.all((x == 0) & np.signbit(x)))
        got = _pairwise_sum(x[:, None].copy())
        assert got.tobytes() == np.add.reduce(x, axis=-1, keepdims=True).tobytes()

    def test_every_length_to_300(self):
        # Magnitudes over sixteen decades, so the order of additions shows.
        gen = np.random.default_rng(5)
        for length in range(1, 301):
            rows = gen.standard_normal((4, length)) * 10.0 ** gen.integers(-8, 9, (4, length))
            expected = np.add.reduce(rows, axis=-1).tobytes()
            in_place = _pairwise_sum(np.ascontiguousarray(rows.T))
            into_out = _pairwise_sum(np.ascontiguousarray(rows.T), out=np.empty(4))
            assert in_place.tobytes() == into_out.tobytes() == expected, length
