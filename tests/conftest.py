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


def unfolded_tile(v, i0, i1, j0, j1):
    """v's squared-distance tile as ||a||^2 + ||b||^2 - 2<a, b>, the 2 applied after the GEMM.

    The same padded GEMM shapes as ``_backend._kernel_tile``, so each pair
    gets the bits it would have had without the doubled rows; no clamp.
    """
    h, w = i1 - i0, j1 - j0
    rows_i, rows_j = slice(i0, i0 + h + -h % 8), slice(j0, j0 + w + -w % 8)
    a, b = v.x[rows_i], v.x[rows_j].copy()
    return v.norms[rows_i] @ v.norms[rows_j, ::-1].T - 2.0 * (a @ b.T)
