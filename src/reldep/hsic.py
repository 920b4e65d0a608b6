"""Unbiased HSIC estimation, h-vectors, variances and the covariance matrix.

All estimators work on zero-diagonal Gram matrices.  The unbiased value is

    (Tr(KL) + (1'K1)(1'L1)/((m-1)(m-2)) - 2 (1'KL1)/(m-2)) / (m (m-3)),

which equals the average over all ordered 4-tuples of distinct indices of
the order-4 symmetrized kernel

    h(i,j,q,r) = (1/24) * sum over the 24 orderings (s,t,u,v)
                 of k_st (l_st + l_uv - 2 l_su).

The per-observation aggregates of h drive the variance machinery: an
estimate carries, next to the value and from the same O(m) reductions
(row sums, row sums of K o L, K l_row and L k_row), the h-vector, whose
entry i is exactly ``H_SUM_RATIO`` times the sum of h(i,j,q,r) over all
ordered 3-tuples (j,q,r) of distinct indices avoiding i.  One formula
turns the reductions into both: ``hsic_estimates`` takes them from the
backend's streamed tiles, which the tests use, and ``hsic_estimate``
from two dense Gram matrices.  ``covariance_summary`` turns the h-vectors of n
estimates on shared sample rows into one clamped n x n covariance matrix.
``hsic_bruteforce`` and ``h_vector_bruteforce`` enumerate the tuples
directly and exist purely to cross-check the fast path; they share no
code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import copysign, fsum, sqrt
from typing import Sequence

import numpy as np

from reldep import _backend
from reldep._backend import TileRows
from reldep.dataset import PreconditionError, _readonly
from reldep.kernels import GramMatrix

__all__ = [
    "H_SUM_RATIO",
    "VARIANCE_FLOOR",
    "HsicEstimate",
    "hsic_estimate",
    "hsic_estimates",
    "hsic_bruteforce",
    "h_vector_bruteforce",
    "variance_hsic",
    "cross_covariance",
    "covariance_summary",
]

# Ratio between the fused O(m^2) h-vector and the raw per-index sums of the
# order-4 kernel over ordered 3-tuples.  Established once against
# h_vector_bruteforce at m in {8, 10, 12} (tests/test_hsic.py keeps the
# regression check); it is constant in m.
H_SUM_RATIO = 2.0

# Variance estimates are unbiased and can dip below zero at small m; they
# are floored here so downstream standard deviations stay well defined.
VARIANCE_FLOOR = 1e-12

# OpenBLAS 0.3.31 (measured) splits a dot product of more than this many
# elements across threads, which changes its last bits with the thread count.
_DOT_CHUNK = 10_000


@dataclass(frozen=True)
class HsicEstimate:
    """Unbiased HSIC value plus the per-observation aggregate vector."""

    value: float
    h_vector: np.ndarray
    m: int

    def __post_init__(self):
        h = _readonly(self.h_vector)
        object.__setattr__(self, "h_vector", h)
        if h.shape != (self.m,):
            raise ValueError("h_vector length must equal the sample size")


def _falling3(n: int) -> float:
    """n (n-1) (n-2): the number of ordered 3-tuples from n items."""
    return float(n * (n - 1) * (n - 2))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b, from fixed chunks that OpenBLAS keeps on one thread (``_DOT_CHUNK``).

    Up to ``_DOT_CHUNK`` elements it is the one BLAS call, plus 0.0 so that
    -0.0 reads +0.0 as the ``fsum`` of one chunk would; longer vectors
    ``fsum`` the dots of fixed chunks of that length.  A sum that overflows
    gives inf or nan, as the one call would.
    """
    if a.shape[0] <= _DOT_CHUNK:
        return float(a @ b) + 0.0
    parts = [
        float(a[c : c + _DOT_CHUNK] @ b[c : c + _DOT_CHUNK])
        for c in range(0, a.shape[0], _DOT_CHUNK)
    ]
    try:
        return fsum(parts)
    except (OverflowError, ValueError):  # beyond float64, or inf - inf
        return sum(parts)


def _check_m(m: int) -> int:
    if m < 4:
        raise PreconditionError(f"unbiased HSIC needs m >= 4, got {m}")
    return m


def _check_pair(kt: GramMatrix, lt: GramMatrix) -> int:
    if kt.m != lt.m:
        raise ValueError(f"Gram sizes differ: {kt.m} vs {lt.m}")
    return _check_m(kt.m)


def _from_reductions(m, k_row, l_row, kl_row, k_lrow, l_krow, pair_label) -> HsicEstimate:
    """The unbiased value and h-vector from the O(m) reductions of one pair.

    ``k_row`` and ``l_row`` are the Grams' row sums, ``kl_row`` the row
    sums of K o L, ``k_lrow = K @ l_row`` and ``l_krow = L @ k_row``.
    Overflow raises PreconditionError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace_kl = float(kl_row.sum())
        sum_k = float(k_row.sum())
        sum_l = float(l_row.sum())
        row_dot = _dot(k_row, l_row)
        value = (
            trace_kl
            + sum_k * sum_l / ((m - 1.0) * (m - 2.0))
            - 2.0 * row_dot / (m - 2.0)
        ) / (m * (m - 3.0))
        h = (
            (m - 2.0) ** 2 * kl_row
            - m * k_row * l_row
            + (m - 2.0) * (trace_kl - k_lrow - l_krow)
            + sum_l * k_row
            + sum_k * l_row
            - row_dot
        )
        finite = np.isfinite(value * value) and np.isfinite(h @ h)
    if not finite:
        raise PreconditionError(f"HSIC estimate {pair_label} overflows float64; rescale the input")
    return HsicEstimate(value=value, h_vector=h, m=m)


def hsic_estimate(kt: GramMatrix, lt: GramMatrix, pair_label: str = "") -> HsicEstimate:
    """Unbiased HSIC value together with its h-vector, from two dense Grams.

    Unbiasedness means the value can be negative even though the population
    quantity is nonnegative.  Overflow raises PreconditionError.
    """
    m = _check_pair(kt, lt)
    k, l = kt.values, lt.values
    with np.errstate(over="ignore", invalid="ignore"):
        k_row, l_row = k.sum(axis=1), l.sum(axis=1)
        reductions = np.einsum("ij,ij->i", k, l), k @ l_row, l @ k_row
    return _from_reductions(m, k_row, l_row, *reductions, pair_label)


def hsic_estimates(
    variables: Sequence[TileRows],
    pairs: Sequence[tuple[int, int]],
    labels: Sequence[str],
) -> list[HsicEstimate]:
    """Unbiased estimates with h-vectors for (a, b) index pairs into ``variables``.

    The estimates of all pairs come from one ``hsic_h_reductions``: two
    sweeps over the kernels' tiles, with no m x m matrix.  ``labels`` name
    the pairs in overflow errors.
    """
    m = _check_m(variables[0].m)
    row_sums, per_pair = _backend.hsic_h_reductions(*variables, pairs=pairs)
    return [
        _from_reductions(m, row_sums[a], row_sums[b], *sums, label)
        for (a, b), sums, label in zip(pairs, per_pair, labels)
    ]


# ---------------------------------------------------------------------------
# Brute-force oracles.  Plain-Python tuple enumeration, deliberately
# independent of the backend reductions above.
# ---------------------------------------------------------------------------

_ORDERINGS = list(permutations(range(4)))


def _kernel_h(k: np.ndarray, l: np.ndarray, quad) -> float:
    """Symmetrized order-4 kernel over one set of four distinct indices."""
    total = 0.0
    for p in _ORDERINGS:
        s, t, u, v = quad[p[0]], quad[p[1]], quad[p[2]], quad[p[3]]
        total += k[s, t] * (l[s, t] + l[u, v] - 2.0 * l[s, u])
    return total / 24.0


def hsic_bruteforce(kt: GramMatrix, lt: GramMatrix) -> float:
    """Unbiased HSIC by direct enumeration of index 4-tuples.

    h is invariant under reordering its four indices (it is the symmetrized
    kernel), so averaging over the m-choose-4 subsets equals averaging over
    all ordered 4-tuples.  Guarded to m <= 40; cost grows as m^4.
    """
    m = _check_pair(kt, lt)
    if m > 40:
        raise PreconditionError(f"brute force limited to m <= 40, got {m}")
    k, l = kt.values, lt.values
    total = 0.0
    count = 0
    for quad in combinations(range(m), 4):
        total += _kernel_h(k, l, quad)
        count += 1
    return total / count


def h_vector_bruteforce(kt: GramMatrix, lt: GramMatrix) -> np.ndarray:
    """Raw per-index sums of h over ordered 3-tuples avoiding each index.

    Entry i sums h(i,j,q,r) over all ordered triples of distinct indices
    drawn from the other m-1 observations; by the reordering invariance of
    h each unordered triple contributes six times.  Guarded to m <= 30.
    """
    m = _check_pair(kt, lt)
    if m > 30:
        raise PreconditionError(f"brute force limited to m <= 30, got {m}")
    k, l = kt.values, lt.values
    out = np.zeros(m)
    for i in range(m):
        others = [j for j in range(m) if j != i]
        acc = 0.0
        for trip in combinations(others, 3):
            acc += _kernel_h(k, l, (i,) + trip)
        out[i] = 6.0 * acc
    return out


# ---------------------------------------------------------------------------
# Variance machinery.
# ---------------------------------------------------------------------------


def _r_statistic(h_a: np.ndarray, h_b: np.ndarray, m: int) -> float:
    """Mean over i of the normalized per-index sums' product.

    h_a and h_b are fused-formula vectors (H_SUM_RATIO times the raw sums),
    hence the extra 1/H_SUM_RATIO^2.
    """
    f = _falling3(m - 1)
    return _dot(h_a, h_b) / (H_SUM_RATIO**2 * m * f * f)


def variance_hsic(e: HsicEstimate) -> float:
    """Variance estimate of the unscaled HSIC statistic, floored at epsilon.

    Computed as (16/m) (R - value^2) with R the mean squared normalized
    per-observation aggregate.  The floor keeps downstream standard
    deviations positive when the unbiased estimate dips below zero.
    """
    r = _r_statistic(e.h_vector, e.h_vector, e.m)
    return max((16.0 / e.m) * (r - e.value**2), VARIANCE_FLOOR)


def cross_covariance(e_xy: HsicEstimate, e_xz: HsicEstimate) -> float:
    """Covariance estimate between two HSIC statistics sharing their source.

    Both estimates must come from the same sample rows with a shared source
    Gram matrix; that cannot be verified here and is the caller's contract.
    """
    if e_xy.m != e_xz.m:
        raise ValueError(f"sample sizes differ: {e_xy.m} vs {e_xz.m}")
    r = _r_statistic(e_xy.h_vector, e_xz.h_vector, e_xy.m)
    return (16.0 / e_xy.m) * (r - e_xy.value * e_xz.value)


def covariance_summary(estimates: Sequence[HsicEstimate]) -> np.ndarray:
    """Clamped n x n covariance matrix of n HSIC statistics on shared rows.

    The diagonal holds ``variance_hsic`` and the off-diagonal entries
    ``cross_covariance``, each shrunk to sqrt(var_a var_b) when the raw
    estimate exceeds it in magnitude.  Values describe the unscaled
    statistics (they already carry the 1/m decay).
    """
    variances = [variance_hsic(e) for e in estimates]
    cov = np.diag(variances)
    for a in range(len(estimates)):
        for b in range(a + 1, len(estimates)):
            c = cross_covariance(estimates[a], estimates[b])
            bound = sqrt(variances[a] * variances[b])
            if abs(c) > bound:
                c = copysign(bound, c)
            cov[a, b] = cov[b, a] = c
    return cov
