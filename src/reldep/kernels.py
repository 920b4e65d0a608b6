"""Zero-diagonal Gram matrices and bandwidth selection.

Two kernel families are supported: the Gaussian kernel
``k(a, b) = exp(-||a - b||^2 / (2 sigma^2))`` with sigma chosen by the
median heuristic unless overridden, and the plain linear kernel
``k(a, b) = <a, b>``.  Gram matrices are exactly symmetric; they are
returned read-only and can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reldep import _backend
from reldep.dataset import PreconditionError, Sample

__all__ = [
    "Bandwidth",
    "KernelSpec",
    "KernelConfig",
    "GramMatrix",
    "pairwise_sq_distances",
    "median_heuristic",
    "build_zero_diag_gram",
]

GAUSSIAN = "gaussian"
LINEAR = "linear"


@dataclass(frozen=True)
class Bandwidth:
    """Gaussian kernel length scale, in input-space distance units."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"bandwidth must be a positive real, got {self.sigma}")


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
        if self.bandwidth is not None:
            Bandwidth(self.bandwidth)  # validate


@dataclass(frozen=True)
class KernelConfig:
    """Per-variable kernel choices for a three-variable test."""

    x: KernelSpec = KernelSpec()
    y: KernelSpec = KernelSpec()
    z: KernelSpec = KernelSpec()

    def spec_for(self, index: int) -> KernelSpec:
        """Kernel for the variable at this position (x=0, y=1, z=2, then default)."""
        return (self.x, self.y, self.z)[index] if index < 3 else KernelSpec()


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
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or np.any(np.diagonal(v) != 0.0):
            raise ValueError("Gram matrix values must be square and zero-diagonal")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def descriptor(self) -> dict:
        return {"family": self.family, "bandwidth": self.bandwidth}


def pairwise_sq_distances(s: Sample) -> np.ndarray:
    """Matrix of squared Euclidean distances between observations."""
    return _backend.pairwise_sq_dists(s.data)


def _median_sigma(d2: np.ndarray) -> float:
    """Median pairwise distance given the full squared-distance matrix.

    Selects order statistics on the squared distances (sqrt is monotone,
    so that is exact) and roots at the end; an even pool averages the two
    central distances, not the squared ones.  Zero distances from duplicate
    rows stay in the pool, but a zero median means the scale is degenerate
    and is an error.
    """
    m = d2.shape[0]
    if m < 2:
        raise PreconditionError("median heuristic needs at least 2 observations")
    n_pairs = m * (m - 1) // 2
    if n_pairs % 2 == 1:
        mid = (n_pairs - 1) // 2
        lo, hi = _backend.sq_distance_order_stats(d2, mid, mid)
        sigma = float(np.sqrt(lo))
    else:
        lo, hi = _backend.sq_distance_order_stats(d2, n_pairs // 2 - 1, n_pairs // 2)
        sigma = float(0.5 * (np.sqrt(lo) + np.sqrt(hi)))
    if sigma <= 0.0:
        raise PreconditionError("degenerate sample: zero median distance")
    return sigma


def median_heuristic(s: Sample) -> Bandwidth:
    """Median of the m(m-1)/2 pairwise Euclidean distances.

    An even pool takes the mean of the two central order statistics.
    """
    return Bandwidth(_median_sigma(_backend.pairwise_sq_dists(s.data)))


def build_zero_diag_gram(s: Sample, spec: KernelSpec) -> GramMatrix:
    """Zero-diagonal Gram matrix for one variable, the estimators' input.

    A Gaussian spec without a bandwidth resolves it by the median heuristic
    on the same distance matrix the kernel map is then applied to, in
    place, which matters inside Monte-Carlo loops.
    """
    if spec.family == LINEAR:
        values = s.data @ s.data.T
        sigma = None
    else:
        values = _backend.pairwise_sq_dists(s.data)
        sigma = _median_sigma(values) if spec.bandwidth is None else spec.bandwidth
        values *= -0.5 / (sigma * sigma)
        np.exp(values, out=values)
    np.fill_diagonal(values, 0.0)
    return GramMatrix(values=values, family=spec.family, bandwidth=sigma)
