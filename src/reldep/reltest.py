"""Relative dependency tests.

Given aligned samples x, y, z, the dependent test asks whether x is more
dependent on y than on z by forming both unbiased HSIC estimates on the
full sample, estimating their joint Gaussian law including the covariance
induced by the shared source, and reading a one-sided p-value off the
projected difference.  The independent test is the baseline that splits
the sample so the two estimates are independent at the cost of half the
data.  The generalized test handles any weighted combination of n HSIC
statistics by rotating the weight vector onto the first axis.

All p-values take the most conservative null, a zero difference, so the
reported p is an upper bound over the composite null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from reldep.dataset import JointSample, PreconditionError, Sample, split_half
from reldep.hsic import (
    VARIANCE_FLOOR,
    HsicEstimate,
    covariance_summary,
    hsic_estimate,
    variance_hsic,
)
from reldep.kernels import (
    GramMatrix,
    KernelConfig,
    KernelSpec,
    build_zero_diag_gram,
)

__all__ = [
    "DEPENDENT",
    "INDEPENDENT",
    "GENERALIZED",
    "SMALL_M_THRESHOLD",
    "TestResult",
    "JointGaussianSummary",
    "RotationMatrix",
    "normal_cdf",
    "rotation_matrix",
    "dependent_test",
    "independent_test",
    "joint_summary",
    "generalized_test",
]

DEPENDENT = "dependent"
INDEPENDENT = "independent"
GENERALIZED = "generalized"

# Below this sample size the Gaussian approximation to the estimator pair
# has no accuracy guarantee; results carry a warning flag.
SMALL_M_THRESHOLD = 100

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Phi(x) = erfc(-x / sqrt 2) / 2; libm's erfc is good to a few ulp, so
    the absolute error is far below 1e-12 and small tail values keep full
    relative precision.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def _upper_p(t: float) -> float:
    """P(N(0,1) > t), kept in the erfc form so tiny tails do not round to 0."""
    return 0.5 * math.erfc(t / _SQRT2)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one relative dependency test."""

    statistic: float
    std_dev: float
    p_value: float
    alpha: float
    reject_null: bool
    method: str
    m: int
    small_m_warning: bool = False
    kernel_info: dict | None = None

    def warnings(self) -> list[str]:
        out = []
        if self.small_m_warning:
            out.append(
                f"asymptotic p-value is unreliable below m ~ {SMALL_M_THRESHOLD}"
                f" (m = {self.m})"
            )
        return out

    def to_dict(self) -> dict:
        """JSON-ready mapping with a stable key order."""
        return {
            "method": self.method,
            "statistic": self.statistic,
            "std_dev": self.std_dev,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject_null": self.reject_null,
            "m": self.m,
            "kernel": self.kernel_info,
            "warnings": self.warnings(),
        }


@dataclass(frozen=True)
class JointGaussianSummary:
    """Means and covariance of n jointly asymptotically Gaussian HSIC stats."""

    means: np.ndarray
    covariance: np.ndarray
    m: int

    def __post_init__(self):
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        cov = np.ascontiguousarray(self.covariance, dtype=np.float64)
        n = means.shape[0]
        if n < 2:
            raise ValueError("summary needs at least two statistics")
        if cov.shape != (n, n):
            raise ValueError("covariance shape does not match means")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        eigmin = float(np.linalg.eigvalsh(cov)[0])
        scale = max(1.0, float(np.abs(cov).max()))
        if eigmin < -1e-8 * scale:
            raise ValueError(
                f"covariance not positive semidefinite after clamping "
                f"(min eigenvalue {eigmin:.3e})"
            )
        means.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariance", cov)

    @property
    def n(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class RotationMatrix:
    """Proper rotation (orthogonal, det +1)."""

    q: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(self.q, dtype=np.float64)
        n = q.shape[0]
        if q.shape != (n, n):
            raise ValueError("rotation matrix must be square")
        if np.abs(q.T @ q - np.eye(n)).max() >= 1e-10:
            raise ValueError("matrix is not orthogonal to tolerance")
        if np.linalg.det(q) < 0.0:
            raise ValueError("matrix is a reflection, not a rotation")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def rotation_matrix(v: Sequence[float]) -> RotationMatrix:
    """Rotation aligning v with the positive first axis.

    Composes one Givens rotation per coordinate i >= 2, each chosen to
    zero that coordinate of the partially rotated vector (the angle is the
    two-argument arctangent of the pair, so a zero leading component is
    fine).  Every step leaves a nonnegative first component, hence the
    result satisfies Qv = (+||v||, 0, ..., 0) with no sign fix needed, and
    the composition of plane rotations keeps det = +1.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("weight vector must be 1-d with length >= 2")
    if not np.isfinite(v).all():
        raise ValueError("weight vector must be finite")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("weight vector must be nonzero")
    n = v.shape[0]
    q = np.eye(n)
    w = v.copy()
    for i in range(1, n):
        r = math.hypot(w[0], w[i])
        if r == 0.0:
            continue
        c = w[0] / r
        s = -w[i] / r
        row0 = c * q[0] - s * q[i]
        rowi = s * q[0] + c * q[i]
        q[0], q[i] = row0, rowi
        w[0], w[i] = r, 0.0
    return RotationMatrix(q)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _verdict(
    statistic: float,
    var: float,
    alpha: float,
    method: str,
    m: int,
    m_effective: int,
    kernel_info: dict | None = None,
) -> TestResult:
    """One-sided verdict on a statistic with this (unfloored) variance.

    ``m_effective`` is the size each estimate saw, which decides the
    small-sample warning (half of m for the split test).
    """
    std = math.sqrt(max(var, VARIANCE_FLOOR))
    p = _upper_p(statistic / std)
    return TestResult(
        statistic=statistic,
        std_dev=std,
        p_value=p,
        alpha=alpha,
        reject_null=p < alpha,
        method=method,
        m=m,
        small_m_warning=m_effective < SMALL_M_THRESHOLD,
        kernel_info=kernel_info,
    )


def _pair_estimates(
    samples: Sequence[Sample],
    pairs: Sequence[tuple[int, int]],
    spec_for: Callable[[int], KernelSpec],
) -> tuple[list[HsicEstimate], dict[int, GramMatrix]]:
    """HSIC estimate per (source, target) pair, one Gram build per variable.

    Returns the estimates in pair order and the Gram matrices by index.
    """
    grams: dict[int, GramMatrix] = {}
    held = len({i for pair in pairs for i in pair})

    def gram(i: int) -> GramMatrix:
        if i not in grams:
            if not 0 <= i < len(samples):
                raise ValueError(f"pair index {i} out of range")
            grams[i] = build_zero_diag_gram(samples[i], spec_for(i), held=held)
        return grams[i]

    estimates = [hsic_estimate(gram(a), gram(b), f"{a}-{b}") for a, b in pairs]
    return estimates, grams


def _dependent(
    j: JointSample, kernel_config: KernelConfig | None, alpha: float
) -> tuple[TestResult, list[HsicEstimate]]:
    """``dependent_test`` plus the (XY, XZ) estimates it was read from."""
    _check_alpha(alpha)
    if j.z is None:
        raise PreconditionError("relative test needs all three variables x, y, z")
    cfg = kernel_config or KernelConfig()
    estimates, grams = _pair_estimates([j.x, j.y, j.z], ((0, 1), (0, 2)), cfg.spec_for)
    e_xy, e_xz = estimates
    cov = covariance_summary(estimates)
    info = {name: grams[i].descriptor() for i, name in enumerate("xyz")}
    # var_xy + var_xz - 2 cov in this order; v'Cv or the rotation of
    # generalized_test give the same value with different last bits.
    result = _verdict(
        e_xy.value - e_xz.value,
        cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1],
        alpha,
        DEPENDENT,
        j.m,
        j.m,
        info,
    )
    return result, estimates


def dependent_test(
    j: JointSample,
    kernel_config: KernelConfig | None = None,
    alpha: float = 0.05,
) -> TestResult:
    """Test H0: dependence(x, y) <= dependence(x, z) on the full sample.

    The statistic is the difference of the two unbiased HSIC estimates; its
    variance accounts for their correlation through the shared source.
    """
    return _dependent(j, kernel_config, alpha)[0]


def _independent(
    j: JointSample,
    kernel_config: KernelConfig | None,
    alpha: float,
    shuffle_seed: int | None,
) -> tuple[TestResult, list[HsicEstimate]]:
    """``independent_test`` plus its half-sample estimates.

    (x', y') come from one half, (x'', z'') from the other.  Bandwidth
    heuristics are resolved per half, so the two statistics share nothing
    at all.
    """
    _check_alpha(alpha)
    cfg = kernel_config or KernelConfig()
    first, second = split_half(j, shuffle_seed=shuffle_seed)
    halves = ((first.x, cfg.x), (first.y, cfg.y), (second.x, cfg.x), (second.y, cfg.z))
    gx1, gy, gx2, gz = (build_zero_diag_gram(s, spec, held=4) for s, spec in halves)
    e_xy = hsic_estimate(gx1, gy, "X'Y'")
    e_xz = hsic_estimate(gx2, gz, "X''Z''")
    info = {
        "x": {
            "family": cfg.x.family,
            "bandwidth": [gx1.bandwidth, gx2.bandwidth],
        },
        "y": gy.descriptor(),
        "z": gz.descriptor(),
    }
    result = _verdict(
        e_xy.value - e_xz.value,
        variance_hsic(e_xy) + variance_hsic(e_xz),
        alpha,
        INDEPENDENT,
        j.m,
        j.m // 2,
        info,
    )
    return result, [e_xy, e_xz]


def independent_test(
    j: JointSample,
    kernel_config: KernelConfig | None = None,
    alpha: float = 0.05,
    *,
    shuffle_seed: int | None = None,
) -> TestResult:
    """Baseline relative test on two disjoint half samples."""
    return _independent(j, kernel_config, alpha, shuffle_seed)[0]


def joint_summary(
    samples: JointSample | Sequence[Sample],
    pairs: Sequence[tuple[int, int]],
    kernel_specs: Sequence[KernelSpec] | KernelConfig | None = None,
    *,
    with_info: bool = False,
):
    """Joint Gaussian summary of the HSIC statistics for several pairs.

    ``samples`` is either a JointSample (indices 0, 1, 2 for x, y, z) or a
    list of aligned samples; ``pairs`` lists (source, target) index pairs.
    A list of kernel specs needs one spec per sample.  Gram matrices are
    built once per variable and shared; the covariance is
    ``covariance_summary`` of the estimates.  With ``with_info`` the
    resolved kernel descriptors are returned alongside the summary.
    """
    if isinstance(samples, JointSample):
        sample_list = [samples.x, samples.y]
        if samples.z is not None:
            sample_list.append(samples.z)
    else:
        sample_list = list(samples)
    if len(pairs) < 2:
        raise ValueError("need at least two (source, target) pairs")
    sizes = {s.m for s in sample_list}
    if len(sizes) != 1:
        joined = ",".join(str(s.m) for s in sample_list)
        raise PreconditionError(f"sample sizes {joined} differ")

    if isinstance(kernel_specs, KernelConfig):
        spec_for = kernel_specs.spec_for
    elif kernel_specs is None:
        spec_for = lambda i: KernelSpec()
    else:
        specs = list(kernel_specs)
        if len(specs) != len(sample_list):
            raise ValueError(
                f"{len(specs)} kernel specs for {len(sample_list)} samples;"
                " need one per sample"
            )
        spec_for = specs.__getitem__

    estimates, grams = _pair_estimates(sample_list, pairs, spec_for)
    summary = JointGaussianSummary(
        means=np.array([e.value for e in estimates]),
        covariance=covariance_summary(estimates),
        m=sample_list[0].m,
    )
    if with_info:
        info = {str(i): grams[i].descriptor() for i in sorted(grams)}
        return summary, info
    return summary


def generalized_test(
    summary: JointGaussianSummary,
    v: Sequence[float],
    alpha: float = 0.05,
) -> TestResult:
    """Test H0: weighted sum of the population dependencies <= 0.

    Rotates the weight vector onto the first axis and projects the joint
    Gaussian onto it; with weights (1, -1) over the two-statistic summary
    this reduces exactly to the dependent test.
    """
    _check_alpha(alpha)
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (summary.n,):
        raise ValueError(
            f"weight length {v.shape[0] if v.ndim == 1 else v.shape} does not "
            f"match {summary.n} statistics"
        )
    rot = rotation_matrix(v)  # also rejects zero and non-finite weights
    norm_sq = float(v @ v)
    statistic = float(v @ summary.means)
    projected = float((rot.q @ summary.covariance @ rot.q.T)[0, 0])
    return _verdict(
        statistic, projected * norm_sq, alpha, GENERALIZED, summary.m, summary.m
    )
