import numpy as np
import pytest

from reldep.dataset import Sample
from reldep.kernels import KernelSpec, build_zero_diag_gram


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_zero_diag_pair(rng, m, d=3, bw=(1.3, 0.8)):
    """Seeded pair of zero-diagonal Gaussian Gram matrices."""
    x = Sample(rng.standard_normal((m, d)), "x")
    y = Sample(rng.standard_normal((m, d)), "y")
    kt = build_zero_diag_gram(x, KernelSpec(bandwidth=bw[0]))
    lt = build_zero_diag_gram(y, KernelSpec(bandwidth=bw[1]))
    return kt, lt


def constant_offdiag_gram(m, c=0.4):
    """Zero-diagonal Gram with every off-diagonal entry equal to c."""
    values = np.full((m, m), c)
    np.fill_diagonal(values, 0.0)
    from reldep.kernels import GramMatrix

    return GramMatrix(values=values, family="linear", bandwidth=None)
