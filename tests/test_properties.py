"""Property tests for invariances the construction promises.

Hypothesis runs derandomized with a bounded example count, so the suite
stays deterministic and fast.
"""

import numpy as np
import pytest
from conftest import unfolded_tile
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reldep import _backend
from reldep.dataset import Sample, align
from reldep.reltest import dependent_test, generalized_test, joint_summary
from reldep.synthbench import SynthConfig, sample_synthetic

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(seed=seeds, m=st.integers(min_value=8, max_value=40), gamma3=st.floats(0.0, 2.0))
def test_row_permutation_invariance(seed, m, gamma3):
    j = sample_synthetic(SynthConfig(m=m, gamma3=gamma3, seed=seed))
    perm = np.random.default_rng(seed).permutation(m)
    shuffled = align(j.x.rows(perm), j.y.rows(perm), j.z.rows(perm))
    a, b = dependent_test(j), dependent_test(shuffled)
    assert b.statistic == pytest.approx(a.statistic, rel=1e-9)
    assert b.std_dev == pytest.approx(a.std_dev, rel=1e-9)
    assert b.kernel_info == a.kernel_info  # bandwidths exactly equal


@PROPERTY
@given(seed=seeds, m=st.integers(min_value=8, max_value=60), gamma3=st.floats(0.0, 2.0))
def test_swapping_targets_negates_statistic(seed, m, gamma3):
    j = sample_synthetic(SynthConfig(m=m, gamma3=gamma3, seed=seed))
    a, b = dependent_test(j), dependent_test(align(j.x, j.z, j.y))
    assert b.statistic == -a.statistic
    assert b.std_dev == a.std_dev


@PROPERTY
@given(seed=seeds, m=st.integers(min_value=20, max_value=200))
@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_translation_invariance_far_from_origin(offset, seed, m):
    j = sample_synthetic(SynthConfig(m=m, gamma3=0.7, seed=seed))
    moved = align(*(Sample(s.data + offset) for s in (j.x, j.y, j.z)))
    a, b = dependent_test(j), dependent_test(moved)
    for field in ("statistic", "std_dev", "p_value"):
        assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-5), field
    for name in "xyz":
        assert b.kernel_info[name]["bandwidth"] == pytest.approx(
            a.kernel_info[name]["bandwidth"], rel=1e-7
        )


N_VARS = 5
pair_lists = st.lists(
    st.tuples(st.integers(0, N_VARS - 1), st.integers(0, N_VARS - 1)),
    min_size=3,
    max_size=6,
)


@PROPERTY
@given(seed=seeds, m=st.integers(min_value=8, max_value=40), pairs=pair_lists)
def test_joint_summary_covariance_is_psd(seed, m, pairs):
    # Variables share one latent angle at different noise levels, so the
    # statistics are correlated; construction validates PSD of the matrix.
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, size=m)
    samples = [
        Sample(np.column_stack([np.cos(k * t), t]) + 0.2 * k * rng.standard_normal((m, 2)))
        for k in range(N_VARS)
    ]
    summary = joint_summary(samples, pairs)
    assert summary.n == len(pairs)


@PROPERTY
@given(
    seed=seeds,
    m=st.integers(min_value=8, max_value=40),
    weights=st.lists(st.floats(-2.0, 2.0).filter(lambda w: abs(w) > 0.1), min_size=3, max_size=3),
    c=st.floats(1e-6, 1e4),
)
def test_weight_scaling_scales_statistic_keeps_p(seed, m, weights, c):
    j = sample_synthetic(SynthConfig(m=m, gamma3=1.0, seed=seed))
    summary = joint_summary(j, [(0, 1), (0, 2), (1, 2)])
    a = generalized_test(summary, weights)
    b = generalized_test(summary, [c * w for w in weights])
    assert b.statistic == pytest.approx(c * a.statistic, rel=1e-12)
    assert b.p_value == pytest.approx(a.p_value, rel=1e-12)


@PROPERTY
@given(
    data=st.data(),
    x=arrays(np.float64, st.tuples(st.integers(2, 80), st.integers(1, 2)),
             elements=st.integers(0, 3).map(float)),
)
def test_order_stats_on_heavy_ties_match_partition(data, x):
    # Small integers: every squared distance is an exact small integer.
    m = x.shape[0]
    pool = ((x[:, None] - x[None]) ** 2).sum(axis=-1)[np.triu_indices(m, 1)]
    k1 = data.draw(st.integers(0, pool.size - 1))
    k2 = data.draw(st.integers(k1, pool.size - 1))
    part = np.partition(pool, sorted({k1, k2}))
    want = (part[k1], part[k2])
    rows = _backend.distance_rows(x)
    assert _backend.sq_distance_order_stats(rows, k1, k2) == want
    # Any bracket, ties on its edges included: exact when it holds both ranks.
    edges = [-np.inf, *np.unique(pool), np.inf]
    lo, hi = sorted(data.draw(st.sampled_from(edges)) for _ in range(2))
    holds = np.count_nonzero(pool < lo) <= k1 and k2 < np.count_nonzero(pool <= hi)
    assert _backend._select_in_bracket(rows, k1, k2, lo, hi) == (want if holds else None)


@PROPERTY
@given(
    seed=seeds,
    m=st.integers(2, 300),
    scales=st.lists(st.integers(-540, -470) | st.integers(-40, 40), min_size=1, max_size=4),
)
def test_distance_tiles_at_tiny_scales_equal_the_unfolded_formula(seed, m, scales):
    # Columns scaled by 2^scale, tiny and normal ones mixed.  Below about
    # 2^-510 the products of two entries leave the normal range, where
    # (2a).b and 2(a.b) can round apart.
    x = np.random.default_rng(seed).standard_normal((m, len(scales))) * np.ldexp(1.0, scales)
    rows = _backend.distance_rows(x)
    out, work = np.empty(_backend.TILE**2), np.empty(_backend.TILE**2)
    for i0, i1, j0, j1 in _backend._tiles(m):
        want = unfolded_tile(rows, i0, i1, j0, j1)[: i1 - i0, : j1 - j0]
        tile = _backend._kernel_tile(rows, i0, i1, j0, j1, out, work)
        if i0 == j0:
            upper = ~_backend._triangles(i1 - i0)
            tile, want = tile[upper], want[upper]
        assert tile.tobytes() == want.tobytes()
