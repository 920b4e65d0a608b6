"""Brute-force oracles of the unbiased HSIC estimator and its h-vector.

Plain-Python enumeration of index tuples over dense Gram matrices, whose
entries come from direct coordinate differences, as in
``perfbench/reference.py``.  Nothing here is imported from ``reldep``, so
the library is checked against code that shares none of its tiles.
"""

from itertools import combinations, permutations

import numpy as np

_ORDERINGS = list(permutations(range(4)))


def gaussian_gram(x, sigma: float) -> np.ndarray:
    """Zero-diagonal Gaussian Gram matrix of the rows of ``x`` (m, d) or (m,)."""
    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    diff = x[:, None, :] - x[None, :, :]
    k = np.exp(np.einsum("ijk,ijk->ij", diff, diff) * (-0.5 / (sigma * sigma)))
    np.fill_diagonal(k, 0.0)
    return k


def constant_gram(m: int, c: float = 1.0) -> np.ndarray:
    """Zero-diagonal Gram with every off-diagonal entry equal to c."""
    k = np.full((m, m), c)
    np.fill_diagonal(k, 0.0)
    return k


def kernel_h(k: np.ndarray, l: np.ndarray, quad) -> float:
    """Symmetrized order-4 kernel over one set of four distinct indices."""
    total = 0.0
    for p in _ORDERINGS:
        s, t, u, v = quad[p[0]], quad[p[1]], quad[p[2]], quad[p[3]]
        total += k[s, t] * (l[s, t] + l[u, v] - 2.0 * l[s, u])
    return total / 24.0


def _check(k: np.ndarray, l: np.ndarray, limit: int) -> int:
    m = k.shape[0]
    if k.shape != (m, m) or l.shape != (m, m):
        raise ValueError(f"Gram shapes differ or are not square: {k.shape} vs {l.shape}")
    if m > limit:
        raise ValueError(f"brute force limited to m <= {limit}, got {m}")
    return m


def hsic_bruteforce(k: np.ndarray, l: np.ndarray) -> float:
    """Unbiased HSIC by direct enumeration of index 4-tuples.

    h is invariant under reordering its four indices (it is the symmetrized
    kernel), so averaging over the m-choose-4 subsets equals averaging over
    all ordered 4-tuples.  Guarded to m <= 40; cost grows as m^4.
    """
    m = _check(k, l, 40)
    quads = list(combinations(range(m), 4))
    return sum(kernel_h(k, l, quad) for quad in quads) / len(quads)


def h_vector_bruteforce(k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Raw per-index sums of h over ordered 3-tuples avoiding each index.

    Entry i sums h(i,j,q,r) over all ordered triples of distinct indices
    drawn from the other m-1 observations; by the reordering invariance of
    h each unordered triple contributes six times.  Guarded to m <= 30.
    """
    m = _check(k, l, 30)
    out = np.zeros(m)
    for i in range(m):
        others = [j for j in range(m) if j != i]
        out[i] = 6.0 * sum(kernel_h(k, l, (i,) + trip) for trip in combinations(others, 3))
    return out
