"""Kernel choices, bandwidth selection and zero-diagonal Gram matrices.

Two kernel families are supported: the Gaussian kernel
``k(a, b) = exp(-||a - b||^2 / (2 sigma^2))`` and the plain linear kernel
``k(a, b) = <a, b>``.  A ``KernelSpec`` checks its own bandwidth; without
one, sigma is the median heuristic (a float).  A ``KernelConfig`` is the
sequence of the x, y and z specs.  ``kernel_rows`` prepares one variable
for the backend's streamed tiles, resolving the median from the same rows
in one pass over the distance tiles, so the tests hold O(m) memory, and
``kernel_info`` reads the resolved kernel back off those rows.  Every
value comes from padded tiles, so permuting the rows permutes each kernel
exactly.  ``build_zero_diag_gram`` writes the same tiles into one dense,
exactly symmetric, read-only matrix: the dense public API and the
oracles' input, guarded against sizes that cannot fit in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from reldep import _backend
from reldep.dataset import PreconditionError, Sample, _readonly

__all__ = [
    "KernelSpec",
    "KernelConfig",
    "GramMatrix",
    "pairwise_sq_distances",
    "median_heuristic",
    "build_zero_diag_gram",
    "kernel_rows",
    "kernel_info",
]

GAUSSIAN = "gaussian"
LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family for one variable; bandwidth None means median heuristic."""

    family: str = GAUSSIAN
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in (GAUSSIAN, LINEAR):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == LINEAR and self.bandwidth is not None:
            raise ValueError("linear kernel takes no bandwidth")
        if self.bandwidth is not None and not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be a positive real, got {self.bandwidth}")


class KernelConfig(NamedTuple):
    """The kernel specs of x, y and z: a sequence of three, one per variable."""

    x: KernelSpec = KernelSpec()
    y: KernelSpec = KernelSpec()
    z: KernelSpec = KernelSpec()


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of kernel evaluations over one sample, diagonal masked.

    The unbiased estimators assume K_ii = 0, so any other matrix is
    rejected here rather than silently biasing an estimate.
    """

    values: np.ndarray
    family: str
    bandwidth: float | None

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or np.any(np.diagonal(v) != 0.0):
            raise ValueError("Gram matrix values must be square and zero-diagonal")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]


def pairwise_sq_distances(s: Sample) -> np.ndarray:
    """Matrix of squared Euclidean distances between observations."""
    return _backend.pairwise_sq_dists(s.data)


def _median_rows(s: Sample) -> tuple[_backend.TileRows, float]:
    """Distance rows of ``s`` and its median pairwise distance.

    Selects the two central order statistics of the squared distances
    (sqrt is monotone, so that is exact) and averages their roots, not the
    squares; in an odd pool both are the middle one, and the average is
    its root to the bit.  Zero distances from duplicate rows stay in the
    pool, but a zero median means the scale is degenerate and is an error.
    A sample whose rows are all the same is refused from its column
    ranges, before any O(m) work.
    """
    if s.m < 2:
        raise PreconditionError("median heuristic needs at least 2 observations")
    if np.array_equal(s.data.min(axis=0), s.data.max(axis=0)):
        raise PreconditionError("degenerate sample: zero median distance")
    rows = _backend.distance_rows(s.data)
    n_pairs = s.m * (s.m - 1) // 2
    lo, hi = _backend.sq_distance_order_stats(rows, (n_pairs - 1) // 2, n_pairs // 2)
    sigma = float(0.5 * (np.sqrt(lo) + np.sqrt(hi)))
    if sigma <= 0.0:
        raise PreconditionError("degenerate sample: zero median distance")
    return rows, sigma


def median_heuristic(s: Sample) -> float:
    """Median of the m(m-1)/2 pairwise Euclidean distances.

    An even pool takes the mean of the two central order statistics.
    """
    return _median_rows(s)[1]


def kernel_rows(s: Sample, spec: KernelSpec) -> _backend.TileRows:
    """Rows of one variable, ready for its kernel tiles, bandwidth resolved.

    A Gaussian spec without a bandwidth takes the median heuristic, from
    the same distance rows its kernel tiles are then formed from.  A
    bandwidth whose square underflows or overflows float64 (outside about
    1.5e-154 to 1.3e154) would divide by zero or give every kernel value 1,
    so it raises PreconditionError.
    """
    if spec.family == LINEAR:
        return _backend.linear_rows(s.data)
    if spec.bandwidth is None:
        rows, sigma = _median_rows(s)
    else:
        rows, sigma = _backend.distance_rows(s.data), spec.bandwidth
    if not np.finfo(np.float64).tiny <= sigma * sigma < np.inf:
        raise PreconditionError(
            f"Gaussian bandwidth {sigma:.3g} is out of range: its square"
            f" {'underflows' if sigma < 1 else 'overflows'} float64; rescale the input"
        )
    return replace(rows, sigma=sigma)


def kernel_info(rows: _backend.TileRows) -> dict:
    """The resolved kernel of some rows: its family (linear rows have no norms) and bandwidth."""
    return {"family": LINEAR if rows.norms is None else GAUSSIAN, "bandwidth": rows.sigma}


def build_zero_diag_gram(s: Sample, spec: KernelSpec) -> GramMatrix:
    """Zero-diagonal Gram matrix for one variable, the dense estimators' input.

    The tests stream their kernels and never build one; this is the dense
    public API and the oracles' input.  It holds exactly the values of the
    streamed tiles of ``kernel_rows``.  If the matrix cannot fit in
    physical memory, PreconditionError is raised before it is allocated
    and before the bandwidth is resolved.
    """
    out = _backend.square_buffer(s.m)
    rows = kernel_rows(s, spec)
    values = _backend.fill_square(rows, out)
    return GramMatrix(values=values, family=spec.family, bandwidth=rows.sigma)
