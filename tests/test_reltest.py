import dataclasses
import math

import numpy as np
import pytest

from reldep.dataset import DatasetError, PreconditionError, Sample, align
from reldep.kernels import KernelConfig, KernelSpec
from reldep.reltest import (
    JointGaussianSummary,
    RotationMatrix,
    dependent_test,
    generalized_test,
    independent_test,
    joint_summary,
    normal_cdf,
    rotation_matrix,
)
from reldep.synthbench import SynthConfig, sample_synthetic

# Reference values computed once with a 50-digit Maclaurin series for erf
# (cross-checked against an independent arbitrary-precision implementation);
# truncated here to well beyond double precision.
NORMAL_CDF_TABLE = [
    (-3.0, 0.001349898031630094526652),
    (-1.0, 0.1586552539314570514148),
    (-0.5, 0.3085375387259868963623),
    (0.5, 0.6914624612740131036377),
    (1.0, 0.8413447460685429485852),
    (1.6448536269514722, 0.9499999999999999460658),
    (2.0, 0.9772498680518207927997),
    (2.5, 0.993790334674223864833),
    (5.0, 0.9999997133484281208061),
]


class TestNormalCdf:
    def test_zero_is_half(self):
        assert normal_cdf(0.0) == 0.5

    def test_frozen_reference_table(self):
        for x, expected in NORMAL_CDF_TABLE:
            assert normal_cdf(x) == pytest.approx(expected, abs=1e-13)

    def test_upper_quantile(self):
        assert normal_cdf(1.6448536269514722) == pytest.approx(0.95, abs=1e-7)

    def test_symmetry(self, rng):
        for x in rng.uniform(-6, 6, size=1000):
            assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-14

    def test_monotone(self, rng):
        xs = np.sort(rng.uniform(-8, 8, size=200))
        vals = [normal_cdf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestRotationMatrix:
    def test_caller_matrix_stays_writable(self):
        q = np.eye(2)
        r = RotationMatrix(q)
        q[0, 0] = 2.0
        assert not r.q.flags.writeable and np.shares_memory(r.q, q)

    def test_aligned_vector_gives_identity(self):
        r = rotation_matrix([1.0, 0.0, 0.0])
        assert np.array_equal(r.q, np.eye(3))

    def test_two_dim_quarter_turn(self):
        r = rotation_matrix([1.0, -1.0])
        expected = (np.sqrt(2) / 2) * np.array([[1.0, -1.0], [1.0, 1.0]])
        assert np.allclose(r.q, expected, atol=1e-15)
        out = r.q @ np.array([1.0, -1.0])
        assert out[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert abs(out[1]) < 1e-15

    def test_property_random_vectors(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            v = rng.standard_normal(n) * 10.0 ** float(rng.integers(-3, 4))
            r = rotation_matrix(v)
            norm = np.linalg.norm(v)
            out = r.q @ v
            assert np.abs(r.q.T @ r.q - np.eye(n)).max() < 1e-10
            assert out[0] == pytest.approx(norm, rel=1e-10)
            assert np.all(np.abs(out[1:]) < 1e-10 * norm)
            assert np.linalg.det(r.q) == pytest.approx(1.0, abs=1e-8)

    def test_leading_zeros(self):
        r = rotation_matrix([0.0, 0.0, 2.0])
        out = r.q @ np.array([0.0, 0.0, 2.0])
        assert out[0] == pytest.approx(2.0, rel=1e-15)
        assert np.all(np.abs(out[1:]) < 1e-14)

    def test_negative_leading_component(self):
        r = rotation_matrix([-3.0, 0.0])
        out = r.q @ np.array([-3.0, 0.0])
        assert out[0] == pytest.approx(3.0, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rotation_matrix([0.0, 0.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            rotation_matrix([1.0])

    def test_validation_rejects_reflection(self):
        with pytest.raises(ValueError, match="reflection"):
            RotationMatrix(np.diag([1.0, -1.0]))


def synthetic_joint(m=120, gamma3=0.9, seed=5):
    return sample_synthetic(SynthConfig(m=m, gamma3=gamma3, seed=seed))


class TestDependentTest:
    def test_identical_targets_give_half(self):
        j0 = synthetic_joint()
        j = align(j0.x, j0.y, j0.y)
        res = dependent_test(j)
        assert res.statistic == 0.0
        assert res.p_value == 0.5
        assert not res.reject_null

    def test_swap_negates_statistic(self):
        j = synthetic_joint()
        swapped = align(j.x, j.z, j.y)
        a = dependent_test(j)
        b = dependent_test(swapped)
        assert b.statistic == -a.statistic
        assert a.p_value + b.p_value == pytest.approx(1.0, abs=1e-12)

    def test_result_invariants(self):
        res = dependent_test(synthetic_joint())
        assert 0.0 <= res.p_value <= 1.0
        assert res.std_dev >= 0.0
        assert res.reject_null == (res.p_value < res.alpha)
        assert res.method == "dependent"

    def test_small_m_warning(self):
        res = dependent_test(synthetic_joint(m=60))
        assert res.small_m_warning and res.warnings()
        res = dependent_test(synthetic_joint(m=150))
        assert not res.small_m_warning

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            dependent_test(synthetic_joint(), alpha=1.5)

    def test_needs_z(self):
        j = synthetic_joint()
        with pytest.raises(PreconditionError, match="three variables"):
            dependent_test(align(j.x, j.y))

    def test_kernel_info_reports_bandwidths(self):
        res = dependent_test(synthetic_joint())
        assert set(res.kernel_info) == {"x", "y", "z"}
        assert res.kernel_info["x"]["family"] == "gaussian"
        assert res.kernel_info["x"]["bandwidth"] > 0

    def test_linear_kernel_config(self):
        cfg = KernelConfig(x=KernelSpec(family="linear"))
        res = dependent_test(synthetic_joint(), cfg)
        assert res.kernel_info["x"] == {"family": "linear", "bandwidth": None}


class TestIndependentTest:
    def test_small_sample_rejected(self, rng):
        j = align(
            Sample(rng.standard_normal((7, 2)), "x"),
            Sample(rng.standard_normal((7, 2)), "y"),
            Sample(rng.standard_normal((7, 2)), "z"),
        )
        with pytest.raises(PreconditionError, match="m >= 8"):
            independent_test(j)

    def test_runs_and_reports(self):
        res = independent_test(synthetic_joint(m=150))
        assert res.method == "independent"
        assert 0.0 <= res.p_value <= 1.0
        # the warning tracks the half-sample size, 75 here
        assert res.small_m_warning
        assert not independent_test(synthetic_joint(m=250)).small_m_warning

    def test_x_bandwidths_reported_per_half(self):
        res = independent_test(synthetic_joint(m=200))
        bw = res.kernel_info["x"]["bandwidth"]
        assert len(bw) == 2 and all(b > 0 for b in bw)

    def test_shuffle_seed_changes_split(self):
        j = synthetic_joint(m=200)
        a = independent_test(j)
        b = independent_test(j, shuffle_seed=3)
        assert a.statistic != b.statistic
        c = independent_test(j, shuffle_seed=3)
        assert b.statistic == c.statistic


class TestResultSummary:
    """Every result keeps the joint summary its verdict projected."""

    KEYS = ["method", "statistic", "std_dev", "p_value", "alpha", "reject_null", "m",
            "kernel", "warnings"]

    def test_dependent_summary_is_the_joint_summary(self):
        j = synthetic_joint(seed=4)
        got = dependent_test(j).summary
        want = joint_summary(j, ((0, 1), (0, 2)))
        assert got.means.tobytes() == want.means.tobytes()
        assert got.covariance.tobytes() == want.covariance.tobytes()
        assert got.m == j.m

    def test_split_summary_is_diagonal_over_the_half_size(self):
        j = synthetic_joint(m=201)
        res = independent_test(j)
        cov = res.summary.covariance
        assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0
        assert res.summary.m == j.m // 2 == 100
        assert res.m == 201
        assert res.statistic == res.summary.means[0] - res.summary.means[1]
        assert res.std_dev == math.sqrt(cov[0, 0] + cov[1, 1])

    def test_generalized_keeps_the_summary_it_was_given(self):
        summary = joint_summary(synthetic_joint(), [(0, 1), (0, 2), (1, 2)])
        assert generalized_test(summary, [1.0, 1.0, -2.0]).summary is summary

    def test_to_dict_keys_unchanged(self):
        j = synthetic_joint()
        summary = joint_summary(j, [(0, 1), (0, 2)])
        for res in (dependent_test(j), independent_test(j), generalized_test(summary, [1, -1])):
            assert list(res.to_dict()) == self.KEYS

    def test_replace_and_equality_ignore_the_summary(self):
        j = synthetic_joint()
        res = dependent_test(j)
        assert res == dependent_test(j)
        assert dataclasses.replace(res, summary=None) == res
        moved = dataclasses.replace(res, statistic=res.statistic * 2)
        assert moved != res
        assert moved.summary is res.summary
        assert "summary" not in repr(res)


class TestJointSummaryAndGeneralized:
    def test_reduction_matches_dependent(self):
        for seed in range(5):
            j = synthetic_joint(seed=seed)
            dep = dependent_test(j)
            summary = joint_summary(j, [(0, 1), (0, 2)])
            gen = generalized_test(summary, [1.0, -1.0])
            assert gen.p_value == pytest.approx(dep.p_value, abs=1e-12)
            assert gen.statistic == pytest.approx(dep.statistic, rel=1e-12)

    def test_dependent_is_generalized_with_weights_one_minus_one(self):
        for m, seed in ((20, 0), (120, 1), (400, 2)):
            j = synthetic_joint(m=m, seed=seed)
            dep = dependent_test(j)
            gen = generalized_test(joint_summary(j, ((0, 1), (0, 2))), (1.0, -1.0))
            got = (gen.statistic, gen.std_dev, gen.p_value)
            assert got == (dep.statistic, dep.std_dev, dep.p_value)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_variance_equals_rotated_form(self, rng, n):
        # The paper's construction: rotate v onto the first axis, read the
        # (0, 0) entry of the rotated covariance and scale by ||v||^2.
        for _ in range(20):
            a = rng.standard_normal((n, n)) * 1e-2
            summary = JointGaussianSummary(rng.standard_normal(n), a @ a.T, m=200)
            v = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 3))
            q = rotation_matrix(v).q
            rotated = float((q @ summary.covariance @ q.T)[0, 0] * (v @ v))
            res = generalized_test(summary, v)
            assert res.std_dev**2 == pytest.approx(rotated, rel=1e-12)

    def test_kernel_info_lists_every_variable_used(self, rng):
        samples = [Sample(rng.standard_normal((30, 2)), f"v{k}") for k in range(4)]
        specs = [KernelSpec(), KernelSpec(bandwidth=0.7), KernelSpec(), KernelSpec("linear")]
        summary = joint_summary(samples, [(0, 1), (0, 3)], specs)
        res = generalized_test(summary, [1.0, -1.0])
        assert list(res.kernel_info) == ["0", "1", "3"]
        assert res.kernel_info["1"] == {"family": "gaussian", "bandwidth": 0.7}
        assert res.kernel_info["3"] == {"family": "linear", "bandwidth": None}
        assert res.kernel_info["0"]["bandwidth"] > 0
        assert res.kernel_info == summary.kernel_info

    def test_scale_invariance(self):
        # At c = 1e-5 a variance floor fixed in absolute terms, not scaled
        # with the weights, once took over and moved p.
        summary = joint_summary(synthetic_joint(), [(0, 1), (0, 2)])
        a = generalized_test(summary, [1.0, -1.0])
        for c in (17.5, 1e-5):
            b = generalized_test(summary, [c, -c])
            assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_three_statistic_weights(self):
        j = synthetic_joint()
        summary = joint_summary(j, [(0, 1), (0, 2), (1, 2)])
        res = generalized_test(summary, [1.0, 1.0, -2.0])
        assert 0.0 <= res.p_value <= 1.0
        assert res.method == "generalized"

    def test_duplicated_pair_perfectly_correlated(self):
        j = synthetic_joint()
        summary = joint_summary(j, [(0, 1), (0, 1)])
        cov = summary.covariance
        assert cov[0, 0] == cov[1, 1]
        assert cov[0, 1] == pytest.approx(cov[0, 0], rel=1e-12)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-18

    def test_matches_pairwise_covariance_summary(self):
        from reldep.hsic import covariance_summary, hsic_estimate
        from reldep.kernels import build_zero_diag_gram

        j = synthetic_joint()
        ktx, kty, ktz = (build_zero_diag_gram(s, KernelSpec()) for s in (j.x, j.y, j.z))
        e_xy, e_xz = hsic_estimate(ktx, kty), hsic_estimate(ktx, ktz)
        cov = covariance_summary([e_xy, e_xz])
        summary = joint_summary(j, [(0, 1), (0, 2)])
        assert summary.means[0] == pytest.approx(e_xy.value, rel=1e-14)
        assert summary.means[1] == pytest.approx(e_xz.value, rel=1e-14)
        assert summary.covariance[0, 0] == pytest.approx(cov[0, 0], rel=1e-14)
        assert summary.covariance[0, 1] == pytest.approx(cov[0, 1], rel=1e-14)

    def test_caller_arrays_stay_writable(self):
        means, cov = np.array([1.0, 0.5]), np.eye(2)
        summary = JointGaussianSummary(means, cov, m=200)
        means[0], cov[0, 0] = 2.0, 3.0
        for held, given in ((summary.means, means), (summary.covariance, cov)):
            assert not held.flags.writeable and np.shares_memory(held, given)

    def test_kernel_config_needs_one_spec_per_sample(self, rng):
        # A KernelConfig is three specs; a fourth sample has none.
        samples = [Sample(rng.standard_normal((12, 2)), f"v{k}") for k in range(4)]
        with pytest.raises(ValueError, match="3 kernel specs for 4 samples; need one per"):
            joint_summary(samples, [(0, 1), (0, 3)], KernelConfig())

    def test_kernel_spec_count_must_match_samples(self, rng):
        samples = [Sample(rng.standard_normal((12, 2)), f"v{k}") for k in range(4)]
        pairs = [(0, 1), (0, 3)]
        for n_specs in (2, 5):
            with pytest.raises(ValueError, match=f"{n_specs} kernel specs for 4 samples"):
                joint_summary(samples, pairs, [KernelSpec()] * n_specs)
        assert joint_summary(samples, pairs, [KernelSpec()] * 4).n == 2

    def test_constant_target_zero_row(self):
        j = synthetic_joint()
        const = Sample(np.ones((j.m, 2)), "const")
        specs = [KernelSpec(), KernelSpec(), KernelSpec(family="linear")]
        summary = joint_summary(
            [j.x, j.y, const], [(0, 1), (0, 2)], specs
        )
        assert abs(summary.means[1]) < 1e-12
        assert abs(summary.covariance[0, 1]) < 1e-12
        assert summary.covariance[1, 1] <= 1e-12  # floored variance only

    def test_misaligned_samples(self, rng):
        a = Sample(rng.standard_normal((10, 2)), "a")
        b = Sample(rng.standard_normal((11, 2)), "b")
        with pytest.raises(DatasetError, match="sample sizes 10,11 differ"):
            joint_summary([a, b], [(0, 1), (1, 0)])

    def test_weight_length_mismatch(self):
        summary = joint_summary(synthetic_joint(), [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="does not match"):
            generalized_test(summary, [1.0, -1.0, 0.0])

    def test_zero_weights_rejected(self):
        summary = joint_summary(synthetic_joint(), [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="nonzero"):
            generalized_test(summary, [0.0, 0.0])

    def test_summary_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            JointGaussianSummary(
                np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), m=10
            )
        with pytest.raises(ValueError, match="positive semidefinite"):
            JointGaussianSummary(
                np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), m=10
            )
        with pytest.raises(ValueError, match="at least two"):
            JointGaussianSummary(np.zeros(1), np.eye(1), m=10)

    @pytest.mark.parametrize(
        "means, cov",
        [
            ([np.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([np.inf, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
        ],
        ids=["nan-mean", "inf-mean", "inf-variance", "nan-covariance"],
    )
    def test_summary_refuses_non_finite(self, means, cov):
        with pytest.raises(ValueError, match="must be finite"):
            JointGaussianSummary(np.array(means), np.array(cov), m=10)


class TestPValueMonotonicity:
    def test_p_decreases_in_statistic(self):
        stats = np.linspace(-3, 8, 40)
        ps = [normal_cdf(-s) for s in stats]
        assert all(b < a for a, b in zip(ps, ps[1:]))
