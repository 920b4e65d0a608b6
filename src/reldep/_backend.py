"""NumPy implementations of the O(m^2) hot kernels.

Distances, distance order statistics and the HSIC row reductions.  Elementwise
maps such as the Gaussian kernel stay with their callers; NumPy's vectorized
exp is already the fastest tool for that job.
"""

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark stamps."""
    return "python"


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` (m, d).

    Centres each column at its midrange, which leaves every distance
    unchanged, then uses the expansion ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>,
    clipped at zero to kill the tiny negatives the cancellation can produce.
    Without the centring the expansion cancels catastrophically on data far
    from the origin.  The midrange, unlike the mean, does not depend on the
    row order, so permuting the rows permutes the result exactly.  The result
    is exactly symmetric with an exactly zero diagonal.
    """
    x = np.asarray(x, dtype=np.float64)
    x = x - 0.5 * (x.min(axis=0) + x.max(axis=0))
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def sq_distance_order_stats(d2: np.ndarray, k1: int, k2: int):
    """k1-th and k2-th smallest squared distance over the unique-pair pool.

    Ranks are 0-based within the m(m-1)/2 unordered pairs.  The strict upper
    triangle is packed row by row into one buffer, so each pair appears once
    and the diagonal not at all, and the buffer is partitioned in place.
    """
    m = d2.shape[0]
    pool = np.empty(m * (m - 1) // 2, dtype=np.float64)
    pos = 0
    for i in range(m - 1):
        n = m - 1 - i
        pool[pos : pos + n] = d2[i, i + 1 :]
        pos += n
    pool.partition(sorted({k1, k2}))
    return float(pool[k1]), float(pool[k2])


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
