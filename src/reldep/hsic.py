"""Unbiased HSIC estimation, h-vectors, variances and the covariance matrix.

The estimators work on zero-diagonal Gram matrices, streamed in tiles.
The unbiased value is

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
turns the reductions into both, and ``hsic_estimates`` takes them from
the backend's streamed tiles of the samples' kernels.  ``hsic_estimate``
is the entry point for two samples.  ``covariance_summary`` turns the
h-vectors of n estimates on shared sample rows into one clamped n x n
covariance matrix.  The brute-force enumerations that cross-check all
this live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import copysign, fsum, sqrt
from typing import Sequence

import numpy as np

from reldep import _backend
from reldep.dataset import PreconditionError, Sample, _readonly, row_count
from reldep.kernels import KernelSpec, kernel_info, kernel_rows

__all__ = [
    "H_SUM_RATIO",
    "VARIANCE_FLOOR",
    "HsicEstimate",
    "hsic_estimate",
    "hsic_estimates",
    "variance_hsic",
    "cross_covariance",
    "covariance_summary",
]

# Ratio between the fused O(m^2) h-vector and the raw per-index sums of the
# order-4 kernel over ordered 3-tuples.  Established once against the
# brute-force h-vector of tests/oracles.py at m in {8, 10, 12}
# (tests/test_hsic.py keeps the regression check); it is constant in m.
H_SUM_RATIO = 2.0

# Variance estimates are unbiased and can dip below zero at small m; they
# are floored here so downstream standard deviations stay well defined.
VARIANCE_FLOOR = 1e-12

# OpenBLAS 0.3.31 (measured) splits a dot product of more than this many
# elements across threads, which changes its last bits with the thread count.
_DOT_CHUNK = 10_000


@dataclass(frozen=True, eq=False)
class HsicEstimate:
    """Unbiased HSIC value plus the per-observation aggregate vector.

    ``kernel_info`` holds the resolved kernel of each variable, keyed x
    and y, when ``hsic_estimate`` made it.
    """

    value: float
    h_vector: np.ndarray
    m: int
    kernel_info: dict | None = None

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


def hsic_estimates(
    samples: Sequence[Sample],
    specs: Sequence[KernelSpec],
    pairs: Sequence[tuple[int, int]],
    labels: Sequence[str],
) -> tuple[list[HsicEstimate], list[dict]]:
    """Unbiased estimates with h-vectors for (a, b) index pairs into ``samples``, and their kernels.

    Each sample's kernel is resolved from its spec (``kernel_rows``), and
    all pairs' estimates come from one ``hsic_h_reductions``, with no m x m
    matrix.  The call owns its one ``KEEP_BYTES`` store of kept tiles, made
    up front when a median block can fit it (each median pass takes its
    block off the front while one fits), else just before the reductions,
    which share the rest among blockless samples they read more than once.
    ``labels`` name the pairs in overflow errors.  Returns the estimates
    and each sample's ``kernel_info``.
    """
    m = row_count(samples)
    keep = _backend.KEEP_BYTES // 8
    store = np.empty(keep) if _backend.block_size(m) <= keep else None
    rows = []
    for s, spec in zip(samples, specs):
        rows.append(kernel_rows(s, spec, store))
        if rows[-1].block is not None:
            store = store[rows[-1].block.size :]
    if m < 4:
        raise PreconditionError(f"unbiased HSIC needs m >= 4, got {m}")
    store = np.empty(keep) if store is None else store
    row_sums, per_pair = _backend.hsic_h_reductions(*rows, pairs=pairs, store=store)
    estimates = [
        _from_reductions(m, row_sums[a], row_sums[b], *sums, label)
        for (a, b), sums, label in zip(pairs, per_pair, labels)
    ]
    return estimates, [kernel_info(r) for r in rows]


def hsic_estimate(
    x: Sample, y: Sample, kernel_x: KernelSpec = KernelSpec(), kernel_y: KernelSpec = KernelSpec()
) -> HsicEstimate:
    """Unbiased HSIC of two row-aligned samples, with its h-vector and resolved kernels.

    Each kernel is resolved from its own sample and the estimate streams
    their tiles (``hsic_estimates``), so no m x m matrix is held.  The
    value can be negative even though the population quantity is not.
    Samples whose row counts differ raise DatasetError; fewer than 4 rows,
    or overflow, raise PreconditionError.
    """
    (est,), (info_x, info_y) = hsic_estimates([x, y], [kernel_x, kernel_y], [(0, 1)], ["XY"])
    return replace(est, kernel_info={"x": info_x, "y": info_y})


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
