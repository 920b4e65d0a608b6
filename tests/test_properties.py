"""Property tests for invariances the construction promises.

Hypothesis runs derandomized with a bounded example count, so the suite
stays deterministic and fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reldep.dataset import Sample, align
from reldep.reltest import dependent_test, joint_summary
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
