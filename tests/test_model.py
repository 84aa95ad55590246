"""Sampling determinism, distributional correctness, and the selection rule."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selhaz.model import (
    PopulationSet,
    RngSpec,
    SelectionOutcome,
    _CHUNK_DRAWS,
    _sum_blocks,
    draw_sums,
    geometric_mean_stat,
    select,
)
from selhaz.numerics import DomainError, gamma_cdf

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

    @pytest.mark.parametrize("bad_rate", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_rates(self, bad_rate):
        with pytest.raises(DomainError):
            PopulationSet(n=5, rates=(1.0, bad_rate))


class TestRngSpec:
    def test_defaults(self):
        assert RngSpec(seed=7).stream_id == 0

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_range(self, bad):
        with pytest.raises(DomainError):
            RngSpec(seed=bad)
        with pytest.raises(DomainError):
            RngSpec(seed=1, stream_id=bad)


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
        # Empirical CDF of Y_1 for (sigma=1, n=2) against the closed form;
        # 1% critical value for the KS statistic is 1.628/sqrt(N).
        reps = 10_000
        sums = _sum_blocks(2, np.asarray([1.0, 1.0]), RngSpec(seed=4), 0, reps)
        y = np.sort(sums[:, 0])
        theo = np.asarray([gamma_cdf(v, 1.0, 2) for v in y])
        empirical_hi = np.arange(1, reps + 1) / reps
        empirical_lo = np.arange(0, reps) / reps
        ks = max(
            np.max(np.abs(empirical_hi - theo)), np.max(np.abs(theo - empirical_lo))
        )
        assert ks < 1.628 / math.sqrt(reps)

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


class TestSelect:
    def test_argmax(self):
        out = select(POP, (3.2, 5.1))
        assert out.selected_index == 1
        assert out.y_selected == 5.1
        assert out.sigma_selected == 2.0

    def test_tie_breaks_low(self):
        out = select(POP, (7.0, 7.0))
        assert out.selected_index == 0

    def test_three_populations(self):
        pop = PopulationSet(n=5, rates=(5.0, 6.0, 7.0))
        out = select(pop, (1.0, 9.0, 4.0))
        assert out.selected_index == 1
        assert out.sigma_selected == 6.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            select(POP, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_sums(self, bad):
        with pytest.raises(DomainError):
            select(POP, (1.0, bad))

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
        base = select(pop, sums).selected_index
        scaled = select(pop, [lam * s for s in sums]).selected_index
        assert base == scaled

    def test_sigma_matches_rates_entry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            pop = PopulationSet(
                n=3, rates=tuple(float(r) for r in rng.uniform(0.1, 5.0, size=k))
            )
            sums = tuple(float(s) for s in rng.uniform(0.1, 50.0, size=k))
            out = select(pop, sums)
            assert out.sigma_selected == pop.rates[out.selected_index]
            assert out.y_selected == max(sums)
            assert out.y_selected == out.sums[out.selected_index]


class TestGeometricMeanStat:
    def test_pair(self):
        assert geometric_mean_stat((4.0, 9.0), 2) == pytest.approx(6.0, rel=1e-14)

    def test_identical(self):
        assert geometric_mean_stat((1.0, 1.0, 1.0), 3) == pytest.approx(1.0, rel=1e-14)

    def test_uses_largest(self):
        assert geometric_mean_stat((8.0, 2.0, 4.0), 2) == pytest.approx(
            math.sqrt(32.0), rel=1e-14
        )

    @pytest.mark.parametrize("h", [1, 4, 0, -2])
    def test_h_range(self, h):
        with pytest.raises(DomainError):
            geometric_mean_stat((1.0, 2.0, 3.0), h)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            geometric_mean_stat((1.0, 0.0), 2)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=5)
    )
    @settings(max_examples=100)
    def test_between_min_and_max(self, sums):
        value = geometric_mean_stat(sums, len(sums))
        assert min(sums) * (1.0 - 1e-12) <= value <= max(sums) * (1.0 + 1e-12)


class TestSelectionOutcomeShape:
    def test_fields(self):
        out = SelectionOutcome(
            sums=(1.0, 3.0), selected_index=1, y_selected=3.0, sigma_selected=0.5
        )
        assert out.sums[out.selected_index] == out.y_selected


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

    def test_block_reaching_past_the_counter_rejected(self):
        rates = np.asarray(self.POP4.rates)
        with pytest.raises(DomainError, match="64-bit"):
            _sum_blocks(4, rates, RNG, 2**61 - 4096, 4097)


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
