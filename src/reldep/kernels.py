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
exactly symmetric, read-only matrix.  No estimator reads it; it stays
only as the tile tests' bit-exact reference while the benchmark's tracer
still names it.
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


def _median_rows(s: Sample, store: np.ndarray | None = None) -> tuple[_backend.TileRows, float]:
    """Distance rows of ``s`` and its median pairwise distance.

    Selects the two central order statistics of the squared distances
    (sqrt is monotone, so that is exact) and averages their roots, not the
    squares; in an odd pool both are the middle one, and the average is
    its root to the bit.  Zero distances from duplicate rows stay in the
    pool, but a zero median means the scale is degenerate and is an error.
    A sample whose rows are all the same is refused before any O(m)
    allocation: its first and last rows are equal, and then so are its
    column minima and maxima.  Other samples skip the column reductions.
    """
    if s.m < 2:
        raise PreconditionError("median heuristic needs at least 2 observations")
    data = s.data
    if np.array_equal(data[0], data[-1]) and np.array_equal(data.min(axis=0), data.max(axis=0)):
        raise PreconditionError("degenerate sample: zero median distance")
    rows = _backend.distance_rows(data, store)
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


def kernel_rows(s: Sample, spec: KernelSpec, store: np.ndarray | None = None) -> _backend.TileRows:
    """Rows of one variable, ready for its kernel tiles, bandwidth resolved.

    A Gaussian spec without a bandwidth takes the median heuristic, from
    the same distance rows its kernel tiles are then formed from, and its
    pass keeps them in a block off the front of ``store`` if one fits.  A
    bandwidth whose square underflows or overflows float64 (outside about
    1.5e-154 to 1.3e154) would divide by zero or give every kernel value 1,
    so it raises PreconditionError.
    """
    if spec.family == LINEAR:
        return _backend.linear_rows(s.data)
    if spec.bandwidth is None:
        rows, sigma = _median_rows(s, store)
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


def build_zero_diag_gram(s: Sample, spec: KernelSpec) -> np.ndarray:
    """Read-only zero-diagonal m x m Gram matrix of one variable.

    It holds exactly the values of the streamed tiles of ``kernel_rows``.
    If the matrix cannot fit in physical memory, PreconditionError is
    raised before it is allocated and before the bandwidth is resolved.
    """
    out = _backend.square_buffer(s.m)
    return _readonly(_backend.fill_square(kernel_rows(s, spec), out))
