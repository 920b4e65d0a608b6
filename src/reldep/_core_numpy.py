"""NumPy implementations of the O(m^2) hot kernels.

These are the fallback for :mod:`reldep._core` (the Cython build of the
same functions).  Both backends must return numerically equivalent
results; tests/test_backends.py asserts this whenever the compiled module
is importable.
"""

import numpy as np

BACKEND_NAME = "python"


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` (m, d).

    Uses the expansion ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>, clipped at
    zero to kill the tiny negatives the cancellation can produce.  The
    result is exactly symmetric with an exactly zero diagonal.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def sq_distance_order_stats(d2: np.ndarray, k1: int, k2: int):
    """k1-th and k2-th smallest squared distance over the unique-pair pool.

    Ranks are 0-based within the m(m-1)/2 unordered pairs.  Selection runs
    on the flattened matrix, where each pair appears twice after the m
    diagonal zeros, so pair rank k sits at flattened rank m + 2k.
    """
    m = d2.shape[0]
    kth = sorted({m + 2 * k1, m + 2 * k2})
    part = np.partition(d2.ravel(), kth)
    return float(part[m + 2 * k1]), float(part[m + 2 * k2])


def hsic_h_reductions(k: np.ndarray, l: np.ndarray):
    """Single-pass reductions over a pair of zero-diagonal Gram matrices.

    Returns ``(kl_row, k_row, l_row, k_lrow, l_krow)`` where
    ``kl_row[i] = sum_j K_ij L_ij``, ``k_row``/``l_row`` are the plain row
    sums and ``k_lrow = K @ l_row``, ``l_krow = L @ k_row``.  The unbiased
    estimator and its h-vector are O(m) reductions of these vectors.
    """
    kl_row = np.einsum("ij,ij->i", k, l)
    k_row = k.sum(axis=1)
    l_row = l.sum(axis=1)
    return kl_row, k_row, l_row, k @ l_row, l @ k_row
