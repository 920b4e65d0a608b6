import numpy as np
import pytest

from reldep._backend import pairwise_sq_dists
from reldep.dataset import PreconditionError, Sample
from reldep.kernels import (
    KernelConfig,
    KernelSpec,
    build_zero_diag_gram,
    kernel_info,
    kernel_rows,
    median_heuristic,
)


def gaussian(s, sigma):
    return build_zero_diag_gram(s, KernelSpec(bandwidth=sigma))


def linear(s):
    return build_zero_diag_gram(s, KernelSpec(family="linear"))


class TestPairwiseSqDistances:
    def test_3_4_5_triangle(self):
        s = Sample(np.array([[0.0, 0.0], [3.0, 4.0]]), "s")
        d2 = pairwise_sq_dists(s.data)
        assert d2[0, 1] == pytest.approx(25.0)
        assert d2[0, 0] == 0.0

    def test_identical_rows_all_zero(self):
        s = Sample(np.ones((4, 3)), "s")
        assert np.all(pairwise_sq_dists(s.data) == 0.0)

    def test_one_dim_values(self):
        s = Sample(np.array([1.0, 2.0, 4.0]), "s")
        expected = np.array([[0, 1, 9], [1, 0, 4], [9, 4, 0]], dtype=float)
        assert np.allclose(pairwise_sq_dists(s.data), expected, atol=1e-12)

    def test_exactly_symmetric(self, rng):
        s = Sample(rng.standard_normal((25, 4)), "s")
        d2 = pairwise_sq_dists(s.data)
        assert np.array_equal(d2, d2.T)
        assert np.all(d2 >= 0.0)


class TestMedianHeuristic:
    def test_two_points(self):
        s = Sample(np.array([[0.0], [5.0]]), "s")
        assert median_heuristic(s) == pytest.approx(5.0)

    def test_odd_count_median(self):
        # distances {1, 2, 3}
        s = Sample(np.array([0.0, 1.0, 3.0]), "s")
        assert median_heuristic(s) == pytest.approx(2.0)

    def test_even_count_averages_central_pair(self):
        # points 0,1,4,6 -> distances {1,2,3,4,5,6}, median (3+4)/2
        s = Sample(np.array([0.0, 1.0, 4.0, 6.0]), "s")
        assert median_heuristic(s) == pytest.approx(3.5)

    def test_degenerate_constant_sample(self):
        s = Sample(np.zeros((3, 1)), "s")
        with pytest.raises(PreconditionError, match="zero median distance"):
            median_heuristic(s)

    def test_majority_duplicates_also_degenerate(self):
        s = Sample(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), "s")
        with pytest.raises(PreconditionError, match="zero median distance"):
            median_heuristic(s)

    def test_duplicates_in_pool_but_positive_median(self):
        # distances {0,0,0,1,1,1} -> median 0.5
        s = Sample(np.array([0.0, 0.0, 0.0, 1.0]), "s")
        assert median_heuristic(s) == pytest.approx(0.5)

    def test_single_point_rejected(self):
        with pytest.raises(PreconditionError):
            median_heuristic(Sample(np.array([1.0]), "s"))

    def test_matches_naive_median(self, rng):
        for m in (5, 6, 9, 14, 23, 33):
            s = Sample(rng.standard_normal((m, 3)), "s")
            d2 = pairwise_sq_dists(s.data)
            naive = float(np.median(np.sqrt(d2[np.triu_indices(m, k=1)])))
            assert median_heuristic(s) == pytest.approx(naive, rel=1e-14)
            if m * (m - 1) // 2 % 2:  # an odd pool's median is one distance, exactly
                assert median_heuristic(s) == naive

    def test_rigid_motion_invariance(self, rng):
        s = Sample(rng.standard_normal((30, 3)), "s")
        base = median_heuristic(s)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = Sample(s.data @ q.T + np.array([5.0, -2.0, 11.0]), "moved")
        assert median_heuristic(moved) == pytest.approx(base, rel=1e-12)


class TestGramGaussian:
    def test_diagonal_masked_offdiagonal_in_unit_interval(self, rng):
        s = Sample(rng.standard_normal((10, 2)), "s")
        g = gaussian(s, 1.5)
        off = ~np.eye(10, dtype=bool)
        assert np.all(np.diag(g) == 0.0)
        assert np.all(g[off] > 0.0) and np.all(g[off] <= 1.0)

    def test_distance_sigma_sqrt2_gives_exp_minus_one(self):
        s = Sample(np.array([[0.0], [np.sqrt(2.0) * 1.7]]), "s")
        g = gaussian(s, 1.7)
        assert g[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_unit_points_sigma_one(self):
        s = Sample(np.array([0.0, 1.0]), "s")
        g = gaussian(s, 1.0)
        assert g[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_positive_semidefinite_small_instances(self, rng):
        # The full Gaussian Gram is the masked one plus the unit diagonal.
        for _ in range(10):
            m = int(rng.integers(2, 21))
            s = Sample(rng.standard_normal((m, int(rng.integers(1, 4)))), "s")
            g = gaussian(s, float(rng.uniform(0.3, 3.0)))
            eigmin = np.linalg.eigvalsh(g + np.eye(m))[0]
            assert eigmin >= -1e-10

    def test_monotone_in_sigma(self):
        s = Sample(np.array([0.0, 1.0, 2.5]), "s")
        lo = gaussian(s, 0.5)
        hi = gaussian(s, 2.0)
        off = ~np.eye(3, dtype=bool)
        assert np.all(hi[off] > lo[off])

    def test_values_readonly(self, rng):
        g = gaussian(Sample(rng.standard_normal((5, 2)), "s"), 1.0)
        with pytest.raises(ValueError):
            g[0, 0] = 7.0


class TestKernelConfigAndInfo:
    def test_config_is_the_sequence_of_x_y_z_specs(self):
        a, b = KernelSpec(family="linear"), KernelSpec(bandwidth=2.0)
        cfg = KernelConfig(x=a, z=b)
        assert list(cfg) == [a, KernelSpec(), b]
        assert (cfg.x, cfg.y, cfg.z) == tuple(cfg)

    def test_kernel_info_reads_the_resolved_rows(self, rng):
        s = Sample(rng.standard_normal((12, 2)), "s")
        assert kernel_info(kernel_rows(s, KernelSpec(family="linear"))) == {
            "family": "linear", "bandwidth": None
        }
        assert kernel_info(kernel_rows(s, KernelSpec(bandwidth=1.5))) == {
            "family": "gaussian", "bandwidth": 1.5
        }
        assert kernel_info(kernel_rows(s, KernelSpec())) == {
            "family": "gaussian", "bandwidth": median_heuristic(s)
        }


class TestGramLinear:
    def test_unit_rows(self):
        s = Sample(np.array([[1.0, 0.0], [0.0, 1.0]]), "s")
        assert np.array_equal(linear(s), np.zeros((2, 2)))

    def test_scalars(self):
        s = Sample(np.array([2.0, 3.0]), "s")
        assert np.array_equal(linear(s), [[0.0, 6.0], [6.0, 0.0]])

    def test_single_row_squared_norm(self):
        # A row paired with an identical row gives its squared norm.
        s = Sample(np.array([[1.0, 2.0, 2.0], [1.0, 2.0, 2.0]]), "s")
        assert linear(s)[0, 1] == pytest.approx(9.0)


class TestZeroDiagonal:
    def test_masks_diagonal_only(self):
        s = Sample(np.array([2.0, 3.0]), "s")
        g = linear(s)
        assert np.array_equal(g, [[0.0, 6.0], [6.0, 0.0]])


class TestBuildGram:
    def test_bandwidth_override(self, rng):
        s = Sample(rng.standard_normal((8, 2)), "s")
        g = build_zero_diag_gram(s, KernelSpec(bandwidth=2.5))
        want = np.exp(pairwise_sq_dists(s.data) * (-0.5 / 2.5**2))
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(g, want)

    def test_median_resolved(self, rng):
        s = Sample(rng.standard_normal((8, 2)), "s")
        g = build_zero_diag_gram(s, KernelSpec())
        assert np.array_equal(g, build_zero_diag_gram(s, KernelSpec(bandwidth=median_heuristic(s))))

    def test_linear_family(self, rng):
        s = Sample(rng.standard_normal((8, 2)), "s")
        g = build_zero_diag_gram(s, KernelSpec(family="linear"))
        assert np.allclose(g, s.data @ s.data.T - np.diag((s.data**2).sum(axis=1)), rtol=1e-14)

    def test_fused_zero_diag_matches_public_path(self, rng):
        # Bit-identical to the kernel map written out from the public pieces.
        for spec in (KernelSpec(), KernelSpec(bandwidth=0.9), KernelSpec(family="linear")):
            s = Sample(rng.standard_normal((17, 2)), "s")
            b = build_zero_diag_gram(s, spec)
            if spec.family == "linear":
                a, sigma = s.data @ s.data.T, None
            else:
                sigma = spec.bandwidth or median_heuristic(s)
                a = np.exp(pairwise_sq_dists(s.data) * (-0.5 / (sigma * sigma)))
            np.fill_diagonal(a, 0.0)
            assert np.array_equal(a, b)
            assert kernel_info(kernel_rows(s, spec)) == {"family": spec.family, "bandwidth": sigma}

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec(family="cubic")
        with pytest.raises(ValueError):
            KernelSpec(family="linear", bandwidth=1.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1.0)
        with pytest.raises(ValueError, match="bandwidth must be a positive real"):
            KernelSpec(bandwidth=0.0)
