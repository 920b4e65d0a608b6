import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reldep
from reldep.dataset import PreconditionError, Sample
from reldep.hsic import (
    H_SUM_RATIO,
    VARIANCE_FLOOR,
    HsicEstimate,
    _DOT_CHUNK,
    _dot,
    _from_reductions,
    covariance_summary,
    cross_covariance,
    h_vector_bruteforce,
    hsic_bruteforce,
    hsic_estimate,
    variance_hsic,
)
from reldep.kernels import GramMatrix, KernelSpec, build_zero_diag_gram, pairwise_sq_distances

from conftest import constant_offdiag_gram, random_zero_diag_pair


def permuted(g: GramMatrix, perm) -> GramMatrix:
    values = g.values[np.ix_(perm, perm)]
    return GramMatrix(values=values, family=g.family, bandwidth=g.bandwidth)


class TestUnbiasedEstimator:
    def test_agrees_with_bruteforce(self, rng):
        for m in (4, 6, 8, 10):
            for _ in range(5):
                kt, lt = random_zero_diag_pair(rng, m)
                fast = hsic_estimate(kt, lt).value
                slow = hsic_bruteforce(kt, lt)
                assert abs(fast - slow) < 1e-9 * max(1.0, abs(slow))

    def test_constant_target_is_zero(self, rng):
        kt, _ = random_zero_diag_pair(rng, 9)
        lt = constant_offdiag_gram(9, c=0.4)
        assert abs(hsic_estimate(kt, lt).value) < 1e-12
        assert hsic_bruteforce(kt, lt) == 0.0

    def test_argument_symmetry_exact(self, rng):
        kt, lt = random_zero_diag_pair(rng, 12)
        assert hsic_estimate(kt, lt).value == hsic_estimate(lt, kt).value

    def test_m4_boundary(self, rng):
        kt, lt = random_zero_diag_pair(rng, 4)
        assert np.isfinite(hsic_bruteforce(kt, lt))
        assert np.isfinite(hsic_estimate(kt, lt).value)

    def test_m3_rejected(self, rng):
        x = Sample(rng.standard_normal((3, 2)), "x")
        g = build_zero_diag_gram(x, KernelSpec(bandwidth=1.0))
        with pytest.raises(PreconditionError, match="m >= 4"):
            hsic_estimate(g, g)

    def test_size_mismatch(self, rng):
        kt, _ = random_zero_diag_pair(rng, 6)
        lt, _ = random_zero_diag_pair(rng, 8)
        with pytest.raises(ValueError, match="sizes differ"):
            hsic_estimate(kt, lt)

    def test_requires_zero_diagonal(self, rng):
        # The estimator's input type refuses a Gram with its diagonal intact.
        x = Sample(rng.standard_normal((6, 2)), "x")
        full = np.exp(-0.5 * pairwise_sq_distances(x))
        with pytest.raises(ValueError, match="zero-diagonal"):
            GramMatrix(values=full, family="gaussian", bandwidth=1.0)

    def test_permutation_invariance(self, rng):
        kt, lt = random_zero_diag_pair(rng, 10)
        base = hsic_estimate(kt, lt).value
        for _ in range(5):
            perm = rng.permutation(10)
            shuffled = hsic_estimate(permuted(kt, perm), permuted(lt, perm)).value
            assert shuffled == pytest.approx(base, abs=1e-12, rel=1e-12)

    def test_bruteforce_guard(self, rng):
        kt, lt = random_zero_diag_pair(rng, 41)
        with pytest.raises(PreconditionError, match="m <= 40"):
            hsic_bruteforce(kt, lt)

    def test_unbiased_mean_near_zero_under_independence(self, rng):
        # Light version of the Monte-Carlo unbiasedness check in the
        # acceptance suite (2000 trials there).
        vals = []
        for _ in range(300):
            kt, lt = random_zero_diag_pair(rng, 12)
            vals.append(hsic_estimate(kt, lt).value)
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) < 4 * se


class TestHVector:
    def test_caller_vector_stays_writable(self):
        h = np.zeros(5)
        est = HsicEstimate(value=0.0, h_vector=h, m=5)
        h[0] = 1.0
        assert not est.h_vector.flags.writeable and np.shares_memory(est.h_vector, h)

    def test_ratio_to_bruteforce_is_frozen_constant(self, rng):
        for m in (8, 10, 12):
            kt, lt = random_zero_diag_pair(rng, m)
            fast = hsic_estimate(kt, lt).h_vector
            raw = h_vector_bruteforce(kt, lt)
            assert np.all(
                np.abs(fast - H_SUM_RATIO * raw) < 1e-9 * np.maximum(1.0, np.abs(raw))
            )

    def test_constant_target_gives_zero_vector(self, rng):
        kt, _ = random_zero_diag_pair(rng, 8)
        lt = constant_offdiag_gram(8)
        assert np.all(np.abs(hsic_estimate(kt, lt).h_vector) < 1e-9)
        assert np.array_equal(h_vector_bruteforce(kt, lt), np.zeros(8))

    def test_per_index_sums_recover_estimator(self, rng):
        # The per-index sums over ordered 3-tuples add up to (m)_4 times the
        # U-statistic average.
        m = 8
        kt, lt = random_zero_diag_pair(rng, m)
        raw = h_vector_bruteforce(kt, lt)
        m4 = m * (m - 1) * (m - 2) * (m - 3)
        assert raw.sum() == pytest.approx(m4 * hsic_estimate(kt, lt).value, rel=1e-10)

    def test_bruteforce_m4_counts_six_tuples_per_index(self, rng):
        # At m=4 each index has exactly (3)_3 = 6 ordered tuples, all equal
        # by symmetry of h, so the entry equals 6 h(i, rest).
        kt, lt = random_zero_diag_pair(rng, 4)
        raw = h_vector_bruteforce(kt, lt)
        from reldep.hsic import _kernel_h

        for i in range(4):
            rest = tuple(j for j in range(4) if j != i)
            assert raw[i] == pytest.approx(6.0 * _kernel_h(kt.values, lt.values, (i,) + rest), rel=1e-12)

    def test_bruteforce_guard(self, rng):
        kt, lt = random_zero_diag_pair(rng, 31)
        with pytest.raises(PreconditionError, match="m <= 30"):
            h_vector_bruteforce(kt, lt)


class TestVariance:
    def test_constant_target_floors_at_epsilon(self, rng):
        kt, _ = random_zero_diag_pair(rng, 8)
        e = hsic_estimate(kt, constant_offdiag_gram(8), "const")
        assert variance_hsic(e) == VARIANCE_FLOOR

    def test_positive_on_dependent_data(self, rng):
        for _ in range(5):
            t = rng.uniform(0, 2 * np.pi, size=200)
            x = Sample(np.column_stack([t, np.sin(t)]), "x")
            y = Sample(np.column_stack([t * np.cos(t), t * np.sin(t)]), "y")
            kt = build_zero_diag_gram(x, KernelSpec(bandwidth=1.0))
            lt = build_zero_diag_gram(y, KernelSpec(bandwidth=2.0))
            e = hsic_estimate(kt, lt)
            assert variance_hsic(e) > VARIANCE_FLOOR

    def test_variance_halves_when_m_doubles(self, rng):
        # i.i.d. dependent draws; the unscaled statistic variance decays
        # like 1/m, so doubling m should roughly halve the estimate.
        def mean_variance(m, trials=20):
            out = []
            for _ in range(trials):
                t = rng.uniform(0, 2 * np.pi, size=m)
                x = Sample(
                    np.column_stack([t, np.sin(t)]) + 0.3 * rng.standard_normal((m, 2)),
                    "x",
                )
                y = Sample(
                    np.column_stack([t * np.cos(t), t * np.sin(t)])
                    + 0.3 * rng.standard_normal((m, 2)),
                    "y",
                )
                kt = build_zero_diag_gram(x, KernelSpec(bandwidth=1.5))
                lt = build_zero_diag_gram(y, KernelSpec(bandwidth=2.5))
                out.append(variance_hsic(hsic_estimate(kt, lt)))
            return float(np.mean(out))

        ratios = []
        for m in (200, 400):
            ratios.append(mean_variance(2 * m) / mean_variance(m))
        for ratio in ratios:
            assert 0.5 * 0.7 < ratio < 0.5 * 1.3


class TestCrossCovariance:
    def test_identical_targets_equal_variance(self, rng):
        kt, lt = random_zero_diag_pair(rng, 30)
        e1 = hsic_estimate(kt, lt, "XY")
        e2 = hsic_estimate(kt, lt, "XZ")
        cov = cross_covariance(e1, e2)
        var = variance_hsic(e1)
        if var > VARIANCE_FLOOR:  # un-floored comparison is only fair here
            assert cov == pytest.approx(var, rel=1e-12)

    def test_constant_target_zero(self, rng):
        kt, lt = random_zero_diag_pair(rng, 10)
        e_xy = hsic_estimate(kt, lt, "XY")
        e_xz = hsic_estimate(kt, constant_offdiag_gram(10), "XZ")
        assert abs(cross_covariance(e_xy, e_xz)) < 1e-15

    def test_matches_enumeration_oracle(self, rng):
        m = 10
        kt, lt = random_zero_diag_pair(rng, m)
        _, dt = random_zero_diag_pair(rng, m)
        e_xy = hsic_estimate(kt, lt, "XY")
        e_xz = hsic_estimate(kt, dt, "XZ")
        # oracle: per-index sums by enumeration
        s_h = h_vector_bruteforce(kt, lt)
        s_g = h_vector_bruteforce(kt, dt)
        f = (m - 1) * (m - 2) * (m - 3)
        r = float(s_h @ s_g) / (m * f * f)
        oracle = (16.0 / m) * (r - hsic_bruteforce(kt, lt) * hsic_bruteforce(kt, dt))
        assert cross_covariance(e_xy, e_xz) == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_mismatched_sizes(self, rng):
        kt, lt = random_zero_diag_pair(rng, 8)
        kt2, lt2 = random_zero_diag_pair(rng, 10)
        with pytest.raises(ValueError, match="differ"):
            cross_covariance(hsic_estimate(kt, lt), hsic_estimate(kt2, lt2))


class TestSyntheticBatchProperties:
    def test_variances_positive_and_cross_term_bounded(self):
        # 100 seeded draws at m=500: variance estimates clear the floor on
        # every draw, the raw cross term respects the Cauchy-Schwarz bound
        # up to round-off, and the clamped 2x2 summary is PSD.
        from reldep.synthbench import SynthConfig, sample_synthetic, trial_config
        from reldep.kernels import KernelSpec, build_zero_diag_gram

        base = SynthConfig(m=500, gamma3=0.7, seed=515)
        for t in range(100):
            j = sample_synthetic(trial_config(base, t))
            ktx = build_zero_diag_gram(j.x, KernelSpec())
            kty = build_zero_diag_gram(j.y, KernelSpec())
            ktz = build_zero_diag_gram(j.z, KernelSpec())
            e_xy = hsic_estimate(ktx, kty)
            e_xz = hsic_estimate(ktx, ktz)
            var_xy, var_xz = variance_hsic(e_xy), variance_hsic(e_xz)
            assert var_xy > VARIANCE_FLOOR and var_xz > VARIANCE_FLOOR
            raw = cross_covariance(e_xy, e_xz)
            assert abs(raw) <= np.sqrt(var_xy * var_xz) + 1e-8
            summary = covariance_summary([e_xy, e_xz])
            assert np.linalg.eigvalsh(summary)[0] >= -1e-18


class TestCovarianceSummary:
    def test_clamped_matrix_is_psd(self, rng):
        for m in (8, 20, 60):
            kt, lt = random_zero_diag_pair(rng, m)
            _, dt = random_zero_diag_pair(rng, m)
            s = covariance_summary([hsic_estimate(kt, lt), hsic_estimate(kt, dt)])
            assert abs(s[0, 1]) <= np.sqrt(s[0, 0] * s[1, 1]) * (1 + 1e-15)
            assert np.linalg.eigvalsh(s)[0] >= -1e-18

    def test_identical_targets_fully_correlated(self, rng):
        kt, lt = random_zero_diag_pair(rng, 30)
        s = covariance_summary([hsic_estimate(kt, lt), hsic_estimate(kt, lt)])
        assert s[0, 0] == s[1, 1]
        assert abs(s[0, 1]) == pytest.approx(s[0, 0], rel=1e-12)

    def test_entries_are_variances_and_clamped_cross_terms(self, rng):
        m = 40
        kt, lt = random_zero_diag_pair(rng, m)
        _, dt = random_zero_diag_pair(rng, m)
        _, gt = random_zero_diag_pair(rng, m)
        es = [hsic_estimate(kt, lt), hsic_estimate(kt, dt), hsic_estimate(kt, gt)]
        s = covariance_summary(es)
        assert s.shape == (3, 3) and np.array_equal(s, s.T)
        for a in range(3):
            assert s[a, a] == variance_hsic(es[a])
            for b in range(a + 1, 3):
                raw = cross_covariance(es[a], es[b])
                bound = np.sqrt(s[a, a] * s[b, b])
                assert s[a, b] == (raw if abs(raw) <= bound else np.copysign(bound, raw))


# Estimates and covariances from fixed 12,000-element reductions, whose
# dot products exceed the length that OpenBLAS splits across threads.
_THREAD_PROBE = """
import numpy as np
from reldep.hsic import _from_reductions, covariance_summary
m = 12_000
k_row, l_row, r_row, kl_row, k_lrow, l_krow = (
    np.random.default_rng(7).uniform(100.0, 200.0, size=(6, m)))
e = _from_reductions(m, k_row, l_row, kl_row, k_lrow, l_krow, "0-1")
f = _from_reductions(m, k_row, r_row, kl_row, k_lrow, l_krow, "0-2")
print(e.value.hex(), *(c.hex() for c in covariance_summary([e, f]).ravel()))
"""


def test_long_dots_do_not_depend_on_the_blas_thread_count():
    src = str(Path(reldep.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_long_dot_whose_chunks_overflow_is_refused_as_overflow():
    # Chunk dots of +inf and -inf, which math.fsum refuses with ValueError.
    m = 12_000
    k_row = np.where(np.arange(m) < 10_000, 1e300, -1e300)
    ones = np.ones(m)
    with pytest.raises(PreconditionError, match="overflows float64"):
        _from_reductions(m, k_row, 1e10 * ones, ones, ones, ones, "0-1")


def chunked_dot(a, b):
    """a @ b as the fsum of chunk dots, the form _dot takes above _DOT_CHUNK."""
    chunks = range(0, a.size, _DOT_CHUNK)
    parts = [float(a[c : c + _DOT_CHUNK] @ b[c : c + _DOT_CHUNK]) for c in chunks]
    try:
        return math.fsum(parts)
    except (OverflowError, ValueError):
        return sum(parts)


@pytest.mark.parametrize(
    "a, b",
    [
        ([-0.0], [1.0]),
        ([0.0], [-1.0]),
        ([-0.0, 0.0], [1.0, -1.0]),
        ([0.0], [0.0]),
        ([np.inf, 1.0], [1.0, 2.0]),
        ([-np.inf, 1.0], [1.0, 2.0]),
        ([np.inf, -np.inf], [1.0, 1.0]),
        ([np.nan, 1.0], [1.0, 2.0]),
        ([1e300, 1e300], [1e300, 1e300]),
        ([1.5, -2.25, 3.0], [0.1, 0.2, 0.3]),
    ],
)
def test_short_dot_matches_the_chunked_form(a, b):
    a, b = np.array(a), np.array(b)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _from_reductions
        assert repr(_dot(a, b)) == repr(chunked_dot(a, b))


@pytest.mark.parametrize("m", [0, 1, 999, _DOT_CHUNK, _DOT_CHUNK + 1])
def test_dot_matches_the_chunked_form_at_every_length(m):
    a, b = np.random.default_rng(m).standard_normal((2, m))
    assert _dot(a, b).hex() == chunked_dot(a, b).hex()
