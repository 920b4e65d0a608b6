"""The O(m^2) kernels in reldep._backend against direct computation."""

import itertools
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import blas_thread_outputs, unfolded_tile

import reldep
from reldep import _backend
from reldep.dataset import PreconditionError, Sample, align
from reldep.kernels import KernelConfig, KernelSpec, build_zero_diag_gram, median_heuristic
from reldep.reltest import dependent_test, joint_summary
from reldep.synthbench import SynthConfig, sample_synthetic

TILE = _backend.TILE
# Rows per stripe of the dense fill that came before the square tiles.
STRIPE = 64
# Largest m whose inner products once came from a single x @ x.T call.
ONE_CALL_M = 512


def linear_gram(x):
    return _backend.fill_square(_backend.linear_rows(x), np.empty((len(x), len(x))))


# Both dense fills of the tile function: squared distances and the linear Gram.
FILLS = [_backend.pairwise_sq_dists, linear_gram]


def test_backend_name_is_constant():
    assert reldep.backend_name() == "python"


def sorted_pool(d2):
    return np.sort(d2[np.triu_indices(d2.shape[0], k=1)])


def rank_pairs(n):
    """(k1, k2) pairs at both ends and in the middle of an n-pair pool."""
    pairs = {(0, 0), (n - 1, n - 1), (0, n - 1), (n // 2, n // 2), (n // 3, 2 * n // 3)}
    if n >= 2:
        pairs.add((n // 2 - 1, n // 2))
    return sorted(pairs)


class TestNumpyBackendBasics:
    def test_pairwise_matches_direct_loop(self, rng):
        x = rng.standard_normal((12, 3))
        d2 = _backend.pairwise_sq_dists(x)
        for i in range(12):
            for j in range(12):
                direct = float(((x[i] - x[j]) ** 2).sum())
                assert d2[i, j] == pytest.approx(direct, abs=1e-10)

    def test_order_stats_match_sorting(self, rng):
        # Duplicate rows put zeros into the pool, which holds no diagonal;
        # m=2 is a pool of one.
        inputs = [rng.standard_normal((m, 2)) for m in (2, 3, 4, 7, 10)]
        dup = rng.standard_normal((6, 2))
        inputs.append(np.vstack([dup, dup[:3]]))
        for x in inputs:
            m = x.shape[0]
            d2 = _backend.pairwise_sq_dists(x)
            pool = np.sort(d2[np.triu_indices(m, k=1)])
            for k1, k2 in [(0, 0), (0, len(pool) - 1), (len(pool) // 2 - 1, len(pool) // 2)]:
                if k1 < 0:
                    continue
                lo, hi = _backend.sq_distance_order_stats(_backend.distance_rows(x), k1, k2)
                assert lo == pool[k1]
                assert hi == pool[k2]


class TestBlockedDistances:
    @pytest.mark.parametrize(
        "m",
        [2, 5, STRIPE - 1, STRIPE + 1, TILE - 1, TILE + 1, ONE_CALL_M, ONE_CALL_M + 1, 700, 1001],
    )
    def test_exactly_symmetric_zero_diagonal(self, rng, m):
        x = rng.standard_normal((m, 3)) + 50.0
        d2 = _backend.pairwise_sq_dists(x)
        assert np.array_equal(d2, d2.T)
        assert not np.diagonal(d2).any()
        assert d2.min() >= 0.0
        rows = rng.choice(m, size=min(m, 40), replace=False)
        direct = ((x[rows, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(d2[rows], direct, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("m", [5, STRIPE + 1, TILE + 1, ONE_CALL_M + 1])
    def test_symmetric_whatever_the_blas_returns(self, rng, monkeypatch, m):
        # Inner products with bits that differ between (i, j) and (j, i),
        # as block GEMMs can return at tile edges.
        matmul, noise = np.matmul, np.random.default_rng(0)

        def asymmetric(a, b, out):
            matmul(a, b, out=out)
            out *= 1.0 + 1e-12 * noise.random(out.shape)
            return out

        monkeypatch.setattr(_backend.np, "matmul", asymmetric)
        x = rng.standard_normal((m, 3))
        for fill in FILLS:
            a = fill(x)
            assert np.array_equal(a, a.T)
            assert not np.diagonal(a).any()

    def test_row_permutation_permutes_distances_exactly(self, rng):
        # Every tile's BLAS call covers whole register tiles, so no pair's
        # bits depend on where it falls, in either fill.
        x = rng.standard_normal((700, 2))
        perm = rng.permutation(700)
        for fill in FILLS:
            assert np.array_equal(fill(x)[np.ix_(perm, perm)], fill(x[perm]))

    @pytest.mark.parametrize("m, seed", [(20, 13), (61, 5), (500, 200)])
    def test_row_permutation_exact_at_small_m(self, m, seed):
        # Inputs on which one unpadded x @ x.T call gave permuted rows
        # other bits, enough to move the median bandwidth's last bit; the
        # linear Gram once came from such a call too.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        perm = rng.permutation(m)
        a, b = _backend.pairwise_sq_dists(x), _backend.pairwise_sq_dists(x[perm])
        assert np.array_equal(a[np.ix_(perm, perm)], b)
        assert median_heuristic(Sample(x)) == median_heuristic(Sample(x[perm]))
        linear = KernelSpec(family="linear")
        a, b = (build_zero_diag_gram(Sample(v), linear) for v in (x, x[perm]))
        assert np.array_equal(a[np.ix_(perm, perm)], b)

    def test_row_permutation_keeps_bandwidths_bitwise(self, rng):
        m = 700
        t = rng.uniform(0.0, 2.0 * np.pi, size=m)
        j = align(
            Sample(np.column_stack([t, np.sin(t)]) + 0.3 * rng.standard_normal((m, 2))),
            Sample(np.column_stack([np.cos(t), t]) + 0.5 * rng.standard_normal((m, 2))),
            Sample(rng.standard_normal((m, 3))),
        )
        perm = rng.permutation(m)
        shuffled = align(j.x.rows(perm), j.y.rows(perm), j.z.rows(perm))
        a, b = dependent_test(j), dependent_test(shuffled)
        assert b.kernel_info == a.kernel_info


# Every diagonal tile height, for both fills, on a block view whose rows are
# longer than the tile: the bands set what one mask over the tile sets.
# Linear rows fill with 0; raw distance rows with NaN, their padding too.
@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_banded_diagonal_fill_equals_one_mask(rng, fill):
    kind = _backend.linear_rows if fill == 0.0 else _backend.distance_rows
    rows = kind(np.zeros((1, 1)))  # no sigma: _mapped only fills
    for h in range(1, TILE + 1):
        block = rng.standard_normal((TILE + 8, TILE + 8))
        want = block.copy()
        np.copyto(want[:h, :h], fill, where=np.tri(h, h, 0, dtype=bool))
        if fill != 0.0:
            want[h : h + -h % 8, : h + 8] = want[: h + -h % 8, h : h + 8] = fill
        tile = _backend._mapped(rows, block[: h + -h % 8, : h + 8], h, h, True)
        assert tile.shape == (h, h) and np.shares_memory(tile, block)
        assert np.array_equal(block, want, equal_nan=True)


class TestExactSelection:
    """The streamed selection must equal the sorted packed pool exactly."""

    def check(self, x):
        # Rows as an estimate call's first median pass gets them: with a
        # block when one fits KEEP_BYTES.
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        rows = _backend.distance_rows(x, np.empty(_backend.KEEP_BYTES // 8))
        for k1, k2 in rank_pairs(pool.size):
            want = (pool[k1], pool[k2])
            assert _backend.sq_distance_order_stats(rows, k1, k2) == want
            bracket = _backend._sample_bracket(rows, k1, k2)
            assert _backend._select_in_bracket(rows, k1, k2, *bracket) == want

    @pytest.mark.parametrize(
        "m",
        [2, 3, 4, 5, STRIPE - 1, STRIPE, STRIPE + 1, 2 * STRIPE + 1,
         TILE - 1, TILE, TILE + 1, 2 * TILE + 1],
    )
    def test_sizes_around_the_tile(self, rng, m):
        self.check(rng.standard_normal((m, 2)))

    # Both read a kept block unless KEEP_BYTES is 0; then m = 700 streams its
    # pool tiles and draws its bracket sample in 24 chunks.
    @pytest.mark.parametrize("keep_bytes", [_backend.KEEP_BYTES, 0])
    @pytest.mark.parametrize("m", [300, 700])
    def test_wide_rows(self, rng, monkeypatch, m, keep_bytes):
        monkeypatch.setattr(_backend, "KEEP_BYTES", keep_bytes)
        self.check(rng.standard_normal((m, 400)))

    # First, last, equal and adjacent ranks of 1000 values with many ties.
    @pytest.mark.parametrize("ranks", [(0,), (999,), (0, 999), (5, 5), (498, 499),
                                       (0, 1, 998, 999)])
    def test_select_matches_sort(self, rng, ranks):
        a = rng.integers(0, 7, size=1000).astype(float)
        want = np.sort(a)
        _backend._select(a, ranks)
        assert [a[r] for r in ranks] == [want[r] for r in ranks]

    def test_pool_mostly_zeros(self, rng):
        # 100 identical rows: 4950 of the 7140 pairs are at distance 0.
        x = np.vstack([np.ones((100, 2)), rng.standard_normal((20, 2))])
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        assert np.count_nonzero(pool == 0.0) > pool.size // 2
        self.check(x)
        zeros = np.count_nonzero(pool == 0.0)
        rows = _backend.distance_rows(x)
        assert _backend.sq_distance_order_stats(rows, zeros - 1, zeros) == (0.0, pool[zeros])

    def test_ties_on_both_bracket_edges(self, rng):
        # Integer points: squared distances are small integers with many ties.
        x = rng.integers(0, 6, size=(150, 2)).astype(float)
        rows = _backend.distance_rows(x)
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        k1, k2 = pool.size // 2 - 1, pool.size // 2
        brackets = [(pool[k1], pool[k2]), (pool[k1], pool[k1]), (pool[k1 - 500], pool[k2 + 500])]
        for lo, hi in brackets:
            assert pool[np.searchsorted(pool, lo) + 1] == lo  # lo is tied
            assert pool[np.searchsorted(pool, hi, side="right") - 2] == hi  # so is hi
            assert _backend._select_in_bracket(rows, k1, k2, lo, hi) == (pool[k1], pool[k2])

    def test_every_bracket_miss_falls_back_to_the_whole_pool(self, rng, monkeypatch):
        x = rng.standard_normal((200, 2))
        rows = _backend.distance_rows(x)
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        k1, k2 = pool.size // 2 - 1, pool.size // 2
        miss = (pool[k2 + 10], pool[k2 + 20])
        assert _backend._select_in_bracket(rows, k1, k2, *miss) is None
        calls = []
        select = _backend._select_in_bracket

        def spy(*args):
            calls.append(args[1:])
            return select(*args)

        monkeypatch.setattr(_backend, "_sample_bracket", lambda *args: miss)
        monkeypatch.setattr(_backend, "_select_in_bracket", spy)
        assert _backend.sq_distance_order_stats(rows, k1, k2) == (pool[k1], pool[k2])
        assert calls == [(k1, k2, *miss), (k1, k2, *miss), (k1, k2, -np.inf, np.inf)]


class TestBracketMissMemory:
    def test_first_miss_retries_within_twice_the_no_miss_peak(self, rng, monkeypatch):
        # The first bracket is pinned to its own upper edge, so it misses
        # the lower rank; the retry must draw a finite bracket, not rerun
        # over the whole pool.
        s = Sample(rng.standard_normal((4000, 1)))
        sample_bracket, select = _backend._sample_bracket, _backend._select_in_bracket
        calls = []

        def first_misses(*args):
            lo, hi = sample_bracket(*args)
            return (hi, hi) if not calls else (lo, hi)

        def spy(v, k1, k2, lo, hi):
            calls.append((lo, hi, select(v, k1, k2, lo, hi)))
            return calls[-1][2]

        sigmas, peaks = [], []
        for forced in (False, True):
            if forced:
                monkeypatch.setattr(_backend, "_sample_bracket", first_misses)
                monkeypatch.setattr(_backend, "_select_in_bracket", spy)
            tracemalloc.start()
            try:
                sigmas.append(median_heuristic(s))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [c[2] is None for c in calls] == [True, False]
        assert np.isfinite(calls[1][:2]).all()
        assert sigmas[1] == sigmas[0]
        assert peaks[1] <= 2 * peaks[0]


class TestTiedMedianMemory:
    def test_binary_peak_stays_near_gaussian(self, rng):
        # Half the pairs of a balanced binary column tie at 0 and half at 1.
        m = 4000
        binary = Sample(rng.permutation(np.repeat([0.0, 1.0], m // 2))[:, None])
        gaussian = Sample(rng.standard_normal((m, 1)))
        peaks = []
        for s in (binary, gaussian):
            tracemalloc.start()
            try:
                median_heuristic(s)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * peaks[1]


class TestOverflowGuard:
    """Inputs whose squared norms would overflow the expansion are refused."""

    def huge(self, rng, m=12):
        x = Sample(np.arange(m, dtype=float)[:, None] * 1e200, "x")
        return align(x, Sample(rng.standard_normal((m, 2))), Sample(rng.standard_normal((m, 2))))

    def test_dependent_test_raises(self, rng):
        with pytest.raises(PreconditionError, match="too large for squared distances"):
            dependent_test(self.huge(rng))

    def test_user_bandwidth_raises_too(self, rng):
        with pytest.raises(PreconditionError, match="rescale"):
            build_zero_diag_gram(self.huge(rng).x, KernelSpec(bandwidth=1.0))

    @pytest.mark.parametrize("scale", [1e160, 1e100])
    def test_linear_estimate_overflow_raises(self, rng, scale):
        # 1e160 overflows the Gram itself, 1e100 only the estimate's square;
        # either is refused without a NumPy RuntimeWarning.
        j = self.huge(rng)
        big = align(Sample(np.arange(12.0)[:, None] * scale), j.y, j.z)
        linear = KernelConfig(x=KernelSpec(family="linear"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PreconditionError, match="HSIC estimate 0-1 overflows float64"):
                dependent_test(big, linear)

    def test_large_representable_inputs_stay_finite(self, rng):
        j = self.huge(rng)
        scaled = align(Sample(j.x.data * 1e-50), j.y, j.z)  # up to 1.1e151
        res = dependent_test(scaled)
        assert np.isfinite([res.statistic, res.std_dev, res.p_value]).all()
        assert res.kernel_info["x"]["bandwidth"] == pytest.approx(4.0e150, rel=1e-9)


def scaled_sample(c):
    j = sample_synthetic(SynthConfig(m=200, gamma3=1.2, seed=3))
    return j, align(*(Sample(s.data * c) for s in (j.x, j.y, j.z)))


class TestUnderflowGuard:
    """Bandwidths whose square leaves float64 are refused; inside, scale is free."""

    @pytest.mark.parametrize("c", [1e-150, 1e150])
    def test_scaling_keeps_p_and_scales_bandwidths(self, c):
        j, scaled = scaled_sample(c)
        a, b = dependent_test(j), dependent_test(scaled)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-9, abs=0)
        for v in "xyz":
            want = c * a.kernel_info[v]["bandwidth"]
            assert b.kernel_info[v]["bandwidth"] == pytest.approx(want, rel=1e-9)

    def test_median_bandwidth_that_underflows_raises(self):
        with pytest.raises(PreconditionError, match="square underflows float64"):
            dependent_test(scaled_sample(1e-156)[1])

    @pytest.mark.parametrize("sigma, word", [(1e-200, "underflows"), (1e200, "overflows")])
    def test_user_bandwidth_out_of_range_raises(self, rng, sigma, word):
        s = Sample(rng.standard_normal((12, 2)))
        with pytest.raises(PreconditionError, match=f"square {word} float64; rescale the input"):
            build_zero_diag_gram(s, KernelSpec(bandwidth=sigma))


class TestMemoryGuard:
    """m x m allocations that cannot fit in physical memory fail up front."""

    @pytest.fixture(scope="class")
    def big(self):
        return Sample(np.zeros((2_000_000, 1)))  # one Gram would take 32 TB

    @pytest.mark.parametrize(
        "spec", [KernelSpec(), KernelSpec(bandwidth=1.0), KernelSpec(family="linear")]
    )
    def test_gram_raises_before_allocating(self, big, spec):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="bytes"):
                build_zero_diag_gram(big, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_message_counts_every_gram_held(self, big):
        need = "an m x m matrix at m = 2000000 needs 32000000000000 bytes"
        with pytest.raises(PreconditionError, match=need):
            build_zero_diag_gram(big, KernelSpec())
        # The tests hold no m x m matrix.  Rows that are all the same are
        # refused from their column ranges, before any O(m) allocation and
        # before the 2e12 pairs of a streamed pass.
        j = align(big, big, big)
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="zero median distance"):
                dependent_test(j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_median_heuristic_guarded(self, big):
        with pytest.raises(PreconditionError):
            median_heuristic(big)


def dense_reductions(k, l):
    """The streamed reductions written out from two dense Grams."""
    return np.einsum("ij,ij->i", k, l), k @ l.sum(axis=1), l @ k.sum(axis=1)


class TestStreamedReductions:
    """hsic_h_reductions against the same sums over dense Gram matrices."""

    SPECS = [KernelSpec(), KernelSpec(bandwidth=1.3), KernelSpec(family="linear")]

    @pytest.mark.parametrize("m", [4, 5, TILE - 1, TILE, TILE + 1, 2 * TILE + 1, 700])
    @pytest.mark.parametrize("family", ["gaussian", "linear"])
    def test_match_dense_grams(self, rng, m, family):
        from reldep.kernels import kernel_rows

        specs = self.SPECS if family == "gaussian" else self.SPECS[::-1]
        samples = [Sample(rng.standard_normal((m, d)) + 3.0) for d in (1, 2, 3)]
        rows = [kernel_rows(s, spec) for s, spec in zip(samples, specs)]
        grams = [build_zero_diag_gram(s, spec) for s, spec in zip(samples, specs)]
        # No variable in every pair; stars on 0 and on 1, which the passes
        # read three times; one pair.  Tiles kept in the store's shares, and
        # all formed again.
        pair_sets = ((0, 1), (0, 2), (2, 1)), ((0, 1), (0, 2)), ((1, 0), (1, 2)), ((0, 1),)
        for pairs, store in itertools.product(
                pair_sets, (np.empty(_backend.KEEP_BYTES // 8), np.empty(0))):
            row_sums, per_pair = _backend.hsic_h_reductions(*rows, pairs=pairs, store=store)
            for got, g in zip(row_sums, grams):
                assert np.allclose(got, g.sum(axis=1), rtol=1e-13, atol=0)
            for (a, b), got in zip(pairs, per_pair):
                for streamed, dense in zip(got, dense_reductions(grams[a], grams[b])):
                    scale = np.abs(dense).max()
                    assert np.allclose(streamed, dense, rtol=0, atol=1e-13 * scale)

    def test_kept_tiles_change_no_bit(self, rng, monkeypatch):
        m = 1000
        t = rng.uniform(0.0, 2.0 * np.pi, size=m)
        j = align(
            Sample(np.column_stack([t, np.sin(t)]) + 0.3 * rng.standard_normal((m, 2))),
            Sample(np.column_stack([np.cos(t), t]) + 0.5 * rng.standard_normal((m, 2))),
            Sample(rng.standard_normal((m, 3))),
        )
        pairs = ((0, 1), (0, 2), (1, 2))
        linear = KernelConfig(y=KernelSpec(family="linear"))
        default = dependent_test(j), joint_summary(j, pairs, linear)
        monkeypatch.setattr(_backend, "KEEP_BYTES", 0)
        recomputed = dependent_test(j), joint_summary(j, pairs, linear)
        assert recomputed[0] == default[0]
        assert np.array_equal(recomputed[1].means, default[1].means)
        assert np.array_equal(recomputed[1].covariance, default[1].covariance)


def curve_sample(rng, m):
    """x and y on a shared curve, z independent: a dependent test with signal."""
    t = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return align(
        Sample(np.column_stack([t, np.sin(t)]) + 0.3 * rng.standard_normal((m, 2))),
        Sample(np.column_stack([np.cos(t), t]) + 0.5 * rng.standard_normal((m, 2))),
        Sample(rng.standard_normal((m, 3))),
    )


def block_bytes(m):
    """Bytes of one variable's kept block of padded upper distance tiles."""
    return 8 * _backend.block_size(m)


def kept_rows(x):
    """Distance rows of x with a block, as an estimate call's first median pass has them."""
    return _backend.distance_rows(x, np.empty(_backend.block_size(len(x))))


def spy_reductions(monkeypatch):
    """Per ``hsic_h_reductions`` call: which variables carry a block, and the store's bytes."""
    reductions, calls = _backend.hsic_h_reductions, []

    def spy(*variables, pairs, store):
        calls.append(([v.block is not None for v in variables], store.nbytes))
        return reductions(*variables, pairs=pairs, store=store)

    monkeypatch.setattr(_backend, "hsic_h_reductions", spy)
    return calls


def spy_kernel_tiles(monkeypatch):
    """The (i0, i1, j0, j1) of each tile ``_kernel_tile`` forms."""
    kernel_tile, formed = _backend._kernel_tile, []

    def spy(*args, **kwargs):
        formed.append(args[1:5])
        return kernel_tile(*args, **kwargs)

    monkeypatch.setattr(_backend, "_kernel_tile", spy)
    return formed


def split_result(j):
    from reldep.reltest import independent_test

    ind = independent_test(j)
    return ind, ind.summary.covariance.tobytes()


def pair_estimate(j):
    est = reldep.hsic_estimate(j.x, j.y)
    return est.value.hex(), est.h_vector.tobytes(), est.kernel_info


class TestKeptDistanceTiles:
    """One store per estimate call keeps tiles; that changes time, never a bit."""

    def results(self, j):
        from reldep.reltest import independent_test

        dep, ind = dependent_test(j), independent_test(j)
        return dep, ind, dep.summary.covariance.tobytes(), ind.summary.covariance.tobytes()

    @pytest.mark.parametrize("m", [250, TILE, TILE + 1, 500, 2 * TILE, 616, 617, 720, 728])
    def test_tests_and_bandwidths_bitwise(self, rng, monkeypatch, m):
        j = curve_sample(rng, m)
        calls = spy_reductions(monkeypatch)
        kept = self.results(j), median_heuristic(j.y)
        assert [blocks for blocks, _ in calls] == [[True, True, m <= 720], [True] * 4]
        monkeypatch.setattr(_backend, "KEEP_BYTES", 0)
        assert (self.results(j), median_heuristic(j.y)) == kept
        assert not any(any(blocks) for blocks, _ in calls[2:])

    # First fit: each median pass takes its block off the call's store while
    # one fits, so the last variables of a call lose theirs first.
    @pytest.mark.parametrize("route, m, blocks", [
        (dependent_test, 720, [True] * 3), (dependent_test, 728, [True, True, False]),
        (split_result, 2 * 616, [True] * 4), (split_result, 2 * 617, [True] * 3 + [False]),
        (pair_estimate, 904, [True] * 2), (pair_estimate, 912, [True, False]),
    ])
    def test_keep_edges_bitwise(self, rng, monkeypatch, route, m, blocks):
        j = curve_sample(rng, m)
        calls = spy_reductions(monkeypatch)
        kept = route(j)
        assert calls[0][0] == blocks
        monkeypatch.setattr(_backend, "KEEP_BYTES", 0)
        assert route(j) == kept

    @pytest.mark.parametrize("spare", [0, -8, 8])
    def test_budget_edge_bitwise(self, rng, monkeypatch, spare):
        m = 500
        j = curve_sample(rng, m)
        keep_bytes = 3 * block_bytes(m) + spare
        monkeypatch.setattr(_backend, "KEEP_BYTES", keep_bytes)
        calls = spy_reductions(monkeypatch)
        edge = self.results(j)
        blocks = [True, True, spare >= 0]
        assert calls[0] == (blocks, keep_bytes - sum(blocks) * block_bytes(m))
        monkeypatch.setattr(_backend, "KEEP_BYTES", 0)
        assert self.results(j) == edge

    # m = 600 has six upper tiles in _tiles order: (0, 0) and (0, 1) of
    # 256 x 256, (0, 2) of 256 x 88, (1, 1), (1, 2) and (2, 2).  Three
    # fixed-bandwidth variables form no block, so each gets a third of the
    # store, which here ends at the end of (0, 2), or 8 bytes either side.
    @pytest.mark.parametrize("spare", [0, -8, 8])
    def test_share_edge_bitwise(self, rng, monkeypatch, spare):
        from reldep.hsic import hsic_estimates

        m, share = 600, 8 * (2 * TILE * TILE + TILE * 88)
        specs = [KernelSpec(bandwidth=b) for b in (1.0, 1.5, 2.0)]
        args = curve_sample(rng, m).samples, specs, [(0, 1), (0, 2), (1, 2)], ["xy", "xz", "yz"]
        formed = spy_kernel_tiles(monkeypatch)
        results = []
        for keep_bytes in (3 * (share + spare), 0):
            monkeypatch.setattr(_backend, "KEEP_BYTES", keep_bytes)
            formed.clear()
            estimates, infos = hsic_estimates(*args)
            results.append([(e.value.hex(), e.h_vector.tobytes()) for e in estimates] + infos)
            # No variable is in every pair, so pass 1 forms all 3 x 6 tiles
            # and pass 2 those not kept.
            kept = 0 if keep_bytes == 0 else 3 if spare >= 0 else 2
            assert len(formed) - 3 * 6 == 3 * (6 - kept)
        assert results[0] == results[1]

    # The hub, the variable in every pair, is formed in passes 0, 1 and 2,
    # each other variable in pass 1 alone; with no hub each is formed twice.
    @pytest.mark.parametrize("pairs, formed", [
        (((0, 1), (0, 2)), 3 * 6 + 2 * 6), (((1, 0), (1, 2)), 3 * 6 + 2 * 6),
        (((0, 1), (0, 2), (1, 2)), 3 * 2 * 6),
    ])
    def test_hub_forms_its_targets_once(self, rng, monkeypatch, pairs, formed):
        from reldep.hsic import hsic_estimates

        specs = [KernelSpec(bandwidth=b) for b in (1.0, 1.5, 2.0)]
        samples = curve_sample(rng, 600).samples
        calls = spy_kernel_tiles(monkeypatch)
        monkeypatch.setattr(_backend, "KEEP_BYTES", 0)
        hsic_estimates(samples, specs, pairs, [str(p) for p in pairs])
        assert len(calls) == formed

    # Median kernels with blocks, and fixed bandwidths at m = 1000, whose
    # hub keeps only part of its tiles in the store.
    @pytest.mark.parametrize("m, bandwidths", [(300, None), (1000, (1.0, 1.5, 2.0))])
    def test_hub_index_changes_no_bit(self, rng, m, bandwidths):
        from reldep.hsic import hsic_estimates

        x, y, z = curve_sample(rng, m).samples
        specs = [KernelSpec(bandwidth=b) for b in bandwidths or (None,) * 3]
        first = hsic_estimates([x, y, z], specs, [(0, 1), (0, 2)], ["xy", "xz"])
        second = hsic_estimates([y, x, z], [specs[1], specs[0], specs[2]],
                                [(1, 0), (1, 2)], ["xy", "xz"])
        assert [first[1][i] for i in (1, 0, 2)] == second[1]
        for a, b in zip(first[0], second[0]):
            assert a.value.hex() == b.value.hex()
            assert a.h_vector.tobytes() == b.h_vector.tobytes()

    def test_same_samples_in_two_calls_give_the_same_bytes(self, rng, monkeypatch):
        from reldep.hsic import hsic_estimates

        j = curve_sample(rng, 300)
        calls = spy_reductions(monkeypatch)
        args = j.samples, [KernelSpec()] * 3, [(0, 1), (0, 2)], ["xy", "xz"]
        first, second = hsic_estimates(*args), hsic_estimates(*args)
        assert [blocks for blocks, _ in calls] == [[True] * 3] * 2
        assert first[1] == second[1]
        for a, b in zip(first[0], second[0]):
            assert a.value == b.value
            assert a.h_vector.tobytes() == b.h_vector.tobytes()

    def test_one_sample_at_two_indices_equals_two_copies(self, rng, monkeypatch):
        from reldep.hsic import hsic_estimates

        s = Sample(rng.standard_normal((300, 2)))
        calls = spy_reductions(monkeypatch)
        args = [KernelSpec()] * 2, [(0, 1)], ["xx"]
        (twice,), _ = hsic_estimates([s, s], *args)
        (copies,), _ = hsic_estimates([s, Sample(s.data.copy())], *args)
        assert [blocks for blocks, _ in calls] == [[True] * 2] * 2
        assert twice.value == copies.value
        assert twice.h_vector.tobytes() == copies.h_vector.tobytes()

    def test_forced_bracket_miss_reads_the_kept_tiles(self, rng, monkeypatch):
        m = 500
        x = rng.standard_normal((m, 2))
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        k1, k2 = pool.size // 2 - 1, pool.size // 2
        miss = (pool[k2 + 10], pool[k2 + 20])
        select, kept_at_select = _backend._select_in_bracket, []

        def spy(v, *args):
            kept_at_select.append(v.block is not None)
            return select(v, *args)

        monkeypatch.setattr(_backend, "_sample_bracket", lambda *args: miss)
        monkeypatch.setattr(_backend, "_select_in_bracket", spy)
        rows = kept_rows(x)
        assert _backend.sq_distance_order_stats(rows, k1, k2) == (pool[k1], pool[k2])
        assert kept_at_select == [True, True, True]

    def drawn_sizes(self, monkeypatch):
        """Sizes of the bracket samples drawn, per cached sampler, with both caches cleared."""
        drawn = {"_block_index": [], "_sample_pairs": []}
        for name, sizes in drawn.items():
            cached = getattr(_backend, name)
            cached.cache_clear()

            def spy(m, size, seed, cached=cached, sizes=sizes):
                sizes.append(size)
                return cached(m, size, seed)

            monkeypatch.setattr(_backend, name, spy)
        return drawn

    # n^(2/3) pairs for streamed rows, four times as many for rows with a
    # kept block.  At m = 800 the third block no longer fits the store, so
    # z streams; the first block index draws its pairs once for x and y.
    @pytest.mark.parametrize("m, kept", [(500, 3), (800, 2)])
    def test_kept_blocks_draw_four_times_the_sample(self, rng, monkeypatch, m, kept):
        base = int((m * (m - 1) // 2) ** (2.0 / 3.0))
        drawn = self.drawn_sizes(monkeypatch)
        dependent_test(curve_sample(rng, m))
        assert drawn["_block_index"] == [4 * base] * kept
        assert drawn["_sample_pairs"] == [4 * base] + [base] * (3 - kept)

    def test_forced_miss_on_a_kept_block_draws_sixteen_times_the_sample(self, rng, monkeypatch):
        m = 500
        x = rng.standard_normal((m, 2))
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        k1, k2 = pool.size // 2 - 1, pool.size // 2
        select, calls = _backend._select_in_bracket, []

        def miss_once(*args):
            calls.append(args)
            return None if len(calls) == 1 else select(*args)

        monkeypatch.setattr(_backend, "_select_in_bracket", miss_once)
        drawn = self.drawn_sizes(monkeypatch)
        assert _backend.sq_distance_order_stats(kept_rows(x), k1, k2) == (pool[k1], pool[k2])
        base = int(pool.size ** (2.0 / 3.0))
        assert drawn["_block_index"] == drawn["_sample_pairs"] == [4 * base, 16 * base]

    def test_bracket_sample_reads_pool_values(self, rng):
        x = rng.standard_normal((300, 2))
        rows = kept_rows(x)
        n = 300 * 299 // 2
        _backend.sq_distance_order_stats(rows, 0, 0)  # forms the block
        lo, hi = _backend._sample_bracket(rows, n // 2 - 1, n // 2)
        pool = _backend.pairwise_sq_dists(x)
        assert lo in pool and hi in pool

    def test_kept_tiles_stay_within_keep_bytes(self, rng, monkeypatch):
        m = 500
        j = curve_sample(rng, m)
        calls = spy_reductions(monkeypatch)
        peaks = []
        for keep_bytes in (_backend.KEEP_BYTES, 0):
            monkeypatch.setattr(_backend, "KEEP_BYTES", keep_bytes)
            dependent_test(j)  # warm the caches outside the trace
            tracemalloc.start()
            try:
                dependent_test(j)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        keep_bytes = 8 << 20
        # Three blocks off the store's front, and the reductions' rest of it; at
        # KEEP_BYTES = 0 no block and an empty store.
        assert calls[0] == ([True] * 3, keep_bytes - 3 * block_bytes(m))
        assert calls[2] == ([False] * 3, 0)
        assert peaks[0] - peaks[1] <= keep_bytes


# Minor page faults per m=500 dependent test, over 10 calls after 3 warm-ups.
_FAULT_PROBE = """
import resource
from reldep import dependent_test
from reldep.synthbench import SynthConfig, sample_synthetic
j = sample_synthetic(SynthConfig(m=500, seed=3))
for _ in range(3):
    dependent_test(j)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    dependent_test(j)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator on Linux")
def test_repeated_dependent_tests_take_few_page_faults():
    # One store per call is one allocation that the allocator reuses from
    # call to call, so the kept tiles' pages are not faulted in anew.
    src = str(Path(reldep.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 100


def parent_tile(v, i0, i1, j0, j1, out, work):
    """``_kernel_tile`` of distance rows as it was: max(unfolded, 0) in the tile, then the map."""
    blk = np.maximum(unfolded_tile(v, i0, i1, j0, j1), 0.0)
    held = out[: blk.size].reshape(blk.shape)
    held[...] = blk
    return _backend._mapped(v, held, i1 - i0, j1 - j0, i0 == j0)


def near_duplicates(n):
    """1-d rows at -1e6 and 1e6 and n rows a few ulps apart just above 5e5.

    The two outer rows pin the midrange at 0, so the centring leaves the
    cluster far from the origin.  There ||a||^2 + ||b||^2 - 2<a, b> cancels
    to rounding noise of either sign, so some raw distances are negative.
    """
    return np.concatenate([[-1e6, 1e6], 5e5 + np.arange(n) * np.spacing(5e5)])[:, None]


def raw_distances(v):
    """The m x m unclamped distances of v's tiles, from the unfolded formula."""
    raw = np.zeros((v.m, v.m))
    for i0, i1, j0, j1 in _backend._tiles(v.m):
        raw[i0:i1, j0:j1] = unfolded_tile(v, i0, i1, j0, j1)[: i1 - i0, : j1 - j0]
    return np.triu(raw, 1)


class TestNearDuplicatesFarFromOrigin:
    """Raw distances below 0 are clamped wherever they are read, as before."""

    @pytest.mark.parametrize("n", [300, 700])
    def test_order_stats_clamp_negative_raw_distances(self, n):
        # n = 700 is past the kept-block size, so the tiles are formed one
        # by one.
        rows = _backend.distance_rows(near_duplicates(n))
        raw = raw_distances(rows)[np.triu_indices(rows.m, 1)]
        negative = np.count_nonzero(raw < 0.0)
        assert negative > 0
        pool = np.sort(np.maximum(raw, 0.0))
        for k1, k2 in [(0, negative - 1), (negative - 1, negative),
                       (pool.size // 2 - 1, pool.size // 2), (0, pool.size - 1)]:
            assert _backend.sq_distance_order_stats(rows, k1, k2) == (pool[k1], pool[k2])

    def test_ranks_below_a_zero_bracket_edge_are_zero_without_a_miss(self, monkeypatch):
        # Ten values, each on 70 rows: the bracket sample, clamped at zero,
        # sees many zeros and brackets a low rank with [0, 0], while the
        # pool holds raw distances below 0 there.
        x = np.vstack([near_duplicates(0), np.repeat(near_duplicates(10)[2:], 70, axis=0)])
        rows = _backend.distance_rows(x)
        raw = raw_distances(rows)[np.triu_indices(rows.m, 1)]
        k = np.count_nonzero(raw < 0.0) // 2
        assert k > 0 and _backend._sample_bracket(rows, k, k) == (0.0, 0.0)
        select, calls = _backend._select_in_bracket, []

        def spy(*args):
            calls.append(args[1:])
            return select(*args)

        monkeypatch.setattr(_backend, "_select_in_bracket", spy)
        assert _backend.sq_distance_order_stats(rows, k, k) == (0.0, 0.0)
        assert calls == [(k, k, 0.0, 0.0)]

    @pytest.mark.parametrize("n", [700, 2000])
    def test_median_takes_one_finite_bracket(self, monkeypatch, n):
        # Past the kept-block size the bracket sample forms its own
        # distances, and they must follow the pool's expansion: exact
        # differences (about 1e-16 here) lie outside its rounding noise, so
        # both brackets would miss and the pass would collect the whole pool.
        rows = _backend.distance_rows(near_duplicates(n))
        n_pairs = rows.m * (rows.m - 1) // 2
        k1, k2 = (n_pairs - 1) // 2, n_pairs // 2
        select, calls = _backend._select_in_bracket, []

        def spy(*args):
            calls.append(args[3:])
            return select(*args)

        monkeypatch.setattr(_backend, "_select_in_bracket", spy)
        pool = np.sort(np.maximum(raw_distances(rows)[np.triu_indices(rows.m, 1)], 0.0))
        assert _backend.sq_distance_order_stats(rows, k1, k2) == (pool[k1], pool[k2])
        assert len(calls) == 1 and np.isfinite(calls[0]).all()

    def test_gaussian_tiles_match_the_clamped_formula(self):
        sigma = 1.0
        rows = _backend.distance_rows(near_duplicates(600))
        g = replace(rows, sigma=sigma)
        out, work = np.empty(TILE * TILE), np.empty(TILE * TILE)
        raw = raw_distances(rows)
        want = np.maximum(raw, 0.0)
        want *= -0.5 / (sigma * sigma)
        np.exp(want, out=want)
        assert np.any(want != np.exp(-0.5 * raw))  # the clamp decides some values
        for i0, i1, j0, j1 in _backend._tiles(rows.m):
            tile = _backend._kernel_tile(g, i0, i1, j0, j1, out, work)
            expect = want[i0:i1, j0:j1]
            if i0 == j0:
                upper = ~_backend._triangles(i1 - i0)
                tile, expect = tile[upper], expect[upper]
            assert np.array_equal(tile, expect)

    def test_median_and_tests_match_the_parent_formula(self, rng, monkeypatch):
        x = near_duplicates(300)
        spread = np.vstack([x, 5e5 + 1e5 * rng.standard_normal((100, 1))])
        y, z = rng.standard_normal((402, 2)), rng.standard_normal((402, 2))
        j = align(Sample(spread), Sample(y), Sample(z))
        near = align(Sample(x), Sample(y[:302]), Sample(z[:302]))
        user = KernelConfig(x=KernelSpec(bandwidth=1.0))

        def results():
            out = [median_heuristic(j.x)]
            for sample, cfg in ((j, KernelConfig()), (j, user), (near, user)):
                res = dependent_test(sample, cfg)
                out += [float(v).hex() for v in (res.statistic, res.std_dev, res.p_value)]
            return out

        now = results()
        monkeypatch.setattr(_backend, "_kernel_tile", parent_tile)
        assert results() == now


def traced_peak(f):
    """tracemalloc peak of f(), called once before to warm the caches."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWideInputMemory:
    """At any width the median pass and a test hold a few tiles beyond the rows."""

    def test_median_peak_within_four_inputs(self, rng):
        s = Sample(rng.standard_normal((700, 400)))
        assert traced_peak(lambda: median_heuristic(s)) <= 4 * s.data.nbytes

    def test_median_peak_at_m3200(self, rng):
        s = Sample(rng.standard_normal((3200, 400)))  # 10 MB of rows
        assert traced_peak(lambda: median_heuristic(s)) <= 40e6

    def test_dependent_test_peak_at_m1000(self, rng):
        j = align(*(Sample(rng.standard_normal((1000, 400))) for _ in range(3)))
        assert traced_peak(lambda: dependent_test(j)) <= 35e6


# A dependent test of 400-column rows: a distance tile's inner products
# span two feature chunks, where one GEMM's bits follow the thread count.
_WIDE_PROBE = """
import numpy as np
from reldep import Sample, align, dependent_test
rng = np.random.default_rng(11)
x = rng.standard_normal((300, 400))
y, z = (x + s * rng.standard_normal((300, 400)) for s in (0.8, 1.2))
res = dependent_test(align(Sample(x), Sample(y), Sample(z)))
print(*(float(v).hex() for v in (res.p_value, res.statistic, res.std_dev)),
      *(info["bandwidth"].hex() for info in res.kernel_info.values()))
"""

# One source and 32 targets: the hub's last pass multiplies each tile by
# the 32 targets' row sums at once.
_HUB_PROBE = """
import numpy as np
from reldep import Sample, joint_summary
rng = np.random.default_rng(12)
x = rng.standard_normal((500, 2))
targets = [x + s * rng.standard_normal((500, 2)) for s in np.linspace(0.5, 2.0, 32)]
summary = joint_summary([Sample(a) for a in [x, *targets]], [(0, k) for k in range(1, 33)])
print(*(v.hex() for v in summary.means), *(v.hex() for v in summary.covariance.ravel()))
"""


@pytest.mark.parametrize("probe", [_WIDE_PROBE, _HUB_PROBE], ids=["d400", "hub32"])
def test_results_do_not_depend_on_the_blas_thread_count(probe):
    one, two = blas_thread_outputs(probe)
    assert one == two
