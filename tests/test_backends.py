"""The O(m^2) kernels in reldep._backend against direct computation."""

import tracemalloc
import warnings

import numpy as np
import pytest

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
        a, b = (build_zero_diag_gram(Sample(v), linear).values for v in (x, x[perm]))
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


class TestExactSelection:
    """The streamed selection must equal the sorted packed pool exactly."""

    def check(self, x):
        pool = sorted_pool(_backend.pairwise_sq_dists(x))
        rows = _backend.distance_rows(x)
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

    def test_bracket_miss_reruns_unbounded(self, rng, monkeypatch):
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
        assert calls == [(k1, k2, *miss), (k1, k2, -np.inf, np.inf)]


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


def dense_reductions(kt, lt):
    """The streamed reductions written out from two dense Grams."""
    k, l = kt.values, lt.values
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
        pairs = [(0, 1), (0, 2), (2, 1)]
        rows = [kernel_rows(s, spec) for s, spec in zip(samples, specs)]
        grams = [build_zero_diag_gram(s, spec) for s, spec in zip(samples, specs)]
        row_sums, per_pair = _backend.hsic_h_reductions(*rows, pairs=pairs)
        for got, g in zip(row_sums, grams):
            assert np.allclose(got, g.values.sum(axis=1), rtol=1e-13, atol=0)
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
