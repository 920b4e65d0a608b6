"""Relative dependency tests.

Given aligned samples x, y, z, the dependent test asks whether x is more
dependent on y than on z by forming both unbiased HSIC estimates on the
full sample, estimating their joint Gaussian law including the covariance
induced by the shared source, and reading a one-sided p-value off the
projected difference.  The independent test is the baseline that splits
the sample so the two estimates are independent at the cost of half the
data.  The generalized test handles any weighted combination v of n HSIC
statistics by projecting their joint Gaussian onto v, with variance
v'Cv; the dependent test is its case v = (1, -1).  Every test reads its
p-value through one ``_verdict``, which projects a ``JointGaussianSummary``
onto the weights, and the result keeps that summary as ``.summary``: the
means and covariance behind the verdict.  Every test streams its
estimates from kernel tiles (``hsic_estimates``), so its memory is O(m)
and no m x m matrix is allocated.

All p-values take the most conservative null, a zero difference, so the
reported p is an upper bound over the composite null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from reldep.dataset import JointSample, PreconditionError, Sample, _readonly, row_count, split_half
from reldep.hsic import (
    VARIANCE_FLOOR,
    covariance_summary,
    hsic_estimates,
    variance_hsic,
)
from reldep.kernels import KernelConfig, KernelSpec, kernel_info, kernel_rows

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
    "check_weights",
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


@dataclass(frozen=True)
class TestResult:
    """Outcome of one relative dependency test.

    ``summary`` is the joint Gaussian summary the verdict projected.  It
    takes no part in ``==``, ``repr`` or ``to_dict()``.
    """

    statistic: float
    std_dev: float
    p_value: float
    alpha: float
    reject_null: bool
    method: str
    m: int
    small_m_warning: bool = False
    kernel_info: dict | None = None
    summary: JointGaussianSummary | None = field(default=None, compare=False, repr=False)

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
    """Means and covariance of n jointly asymptotically Gaussian HSIC stats.

    ``kernel_info`` holds the resolved kernel of each variable used, keyed
    by its index as a string.
    """

    means: np.ndarray
    covariance: np.ndarray
    m: int
    kernel_info: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        means, cov = _readonly(self.means), _readonly(self.covariance)
        n = means.shape[0]
        if n < 2:
            raise ValueError("summary needs at least two statistics")
        if cov.shape != (n, n):
            raise ValueError("covariance shape does not match means")
        if not (np.isfinite(means).all() and np.isfinite(cov).all()):
            raise ValueError("summary means and covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        eigmin = float(np.linalg.eigvalsh(cov)[0])
        scale = max(1.0, float(np.abs(cov).max()))
        if eigmin < -1e-8 * scale:
            raise ValueError(
                f"covariance not positive semidefinite after clamping "
                f"(min eigenvalue {eigmin:.3e})"
            )
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
        q = _readonly(self.q)
        n = q.shape[0]
        if q.shape != (n, n):
            raise ValueError("rotation matrix must be square")
        if np.abs(q.T @ q - np.eye(n)).max() >= 1e-10:
            raise ValueError("matrix is not orthogonal to tolerance")
        if np.linalg.det(q) < 0.0:
            raise ValueError("matrix is a reflection, not a rotation")
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
    n = v.shape[0]
    v = check_weights(v, n)
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
    summary: JointGaussianSummary,
    v: Sequence[float],
    alpha: float,
    method: str,
    m: int,
    kernel_info: dict | None,
) -> TestResult:
    """One-sided verdict on the projection v'means of a joint Gaussian summary.

    Its variance v'Cv is summed as the diagonal terms v_a^2 C_aa first,
    then twice the cross terms v_a v_b C_ab (a < b); for v = (1, -1) that
    is C_00 + C_11 - 2 C_01 to the bit.  It is floored at VARIANCE_FLOOR
    times the largest v_a^2, so p does not depend on the scale of v.  The
    summary's m, the size each estimate saw, decides the small-sample
    warning (half of m for the split test).
    """
    v = np.asarray(v, dtype=np.float64)
    cov = summary.covariance
    upper = np.triu_indices(v.shape[0], 1)
    var = (v * v) @ np.diagonal(cov) + 2.0 * (np.outer(v, v)[upper] @ cov[upper])
    statistic = float(v @ summary.means)
    std = math.sqrt(max(float(var), VARIANCE_FLOOR * np.max(v * v)))
    p = normal_cdf(-statistic / std)
    return TestResult(
        statistic=statistic,
        std_dev=std,
        p_value=p,
        alpha=alpha,
        reject_null=p < alpha,
        method=method,
        m=m,
        small_m_warning=summary.m < SMALL_M_THRESHOLD,
        kernel_info=kernel_info,
        summary=summary,
    )


# The dependent and split tests' statistic HSIC(x, y) - HSIC(x, z).
_DIFFERENCE = (1.0, -1.0)


def dependent_test(
    j: JointSample,
    kernel_config: KernelConfig | None = None,
    alpha: float = 0.05,
) -> TestResult:
    """Test H0: dependence(x, y) <= dependence(x, z) on the full sample.

    The statistic is the difference of the two unbiased HSIC estimates; its
    variance accounts for their correlation through the shared source.  It
    is the generalized test with weights (1, -1) over the (x, y), (x, z)
    summary.
    """
    _check_alpha(alpha)
    if j.z is None:
        raise PreconditionError("relative test needs all three variables x, y, z")
    summary = joint_summary(j, ((0, 1), (0, 2)), kernel_config)
    info = dict(zip("xyz", summary.kernel_info.values()))
    return _verdict(summary, _DIFFERENCE, alpha, DEPENDENT, j.m, info)


def independent_test(
    j: JointSample,
    kernel_config: KernelConfig | None = None,
    alpha: float = 0.05,
    *,
    shuffle_seed: int | None = None,
) -> TestResult:
    """Baseline relative test on two disjoint half samples.

    (x', y') come from one half, (x'', z'') from the other, both from one
    sweep over the tiles.  Bandwidth heuristics are resolved per half, so
    the two statistics share nothing at all: the summary's covariance is
    diagonal, and its m is the half size.
    """
    _check_alpha(alpha)
    cfg = kernel_config or KernelConfig()
    first, second = split_half(j, shuffle_seed=shuffle_seed)
    halves = ((first.x, cfg.x), (first.y, cfg.y), (second.x, cfg.x), (second.y, cfg.z))
    rx1, ry, rx2, rz = (kernel_rows(s, spec) for s, spec in halves)
    e_xy, e_xz = hsic_estimates([rx1, ry, rx2, rz], [(0, 1), (2, 3)], ["X'Y'", "X''Z''"])
    summary = JointGaussianSummary(
        means=np.array([e_xy.value, e_xz.value]),
        covariance=np.diag([variance_hsic(e_xy), variance_hsic(e_xz)]),
        m=j.m // 2,
    )
    info = {
        "x": {**kernel_info(rx1), "bandwidth": [rx1.sigma, rx2.sigma]},
        "y": kernel_info(ry),
        "z": kernel_info(rz),
    }
    return _verdict(summary, _DIFFERENCE, alpha, INDEPENDENT, j.m, info)


def check_weights(v: Sequence[float], n: int, alpha: float = 0.05) -> np.ndarray:
    """Weights ``v`` of ``n`` statistics as float64; refuses bad weights or alpha."""
    _check_alpha(alpha)
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(
            f"weight length {v.shape[0] if v.ndim == 1 else v.shape} does not "
            f"match {n} statistics"
        )
    if not np.isfinite(v).all():
        raise ValueError("weight vector must be finite")
    if not v.any():
        raise ValueError("weight vector must be nonzero")
    return v


def joint_summary(
    samples: JointSample | Sequence[Sample],
    pairs: Sequence[tuple[int, int]],
    kernel_specs: Sequence[KernelSpec] | None = None,
) -> JointGaussianSummary:
    """Joint Gaussian summary of the HSIC statistics for several pairs.

    ``samples`` is either a JointSample (indices 0, 1, 2 for x, y, z) or a
    list of aligned samples; ``pairs`` lists (source, target) index pairs.
    ``kernel_specs`` is None (the default kernel for every sample) or one
    spec per sample, such as a ``KernelConfig`` for x, y, z.  Each variable's
    kernel is resolved once, and every estimate comes from one pair of
    sweeps over the kernels' tiles (``hsic_estimates``), so no m x m matrix
    is held.  The covariance is ``covariance_summary`` of the estimates,
    and ``kernel_info`` the resolved kernel of each variable used.
    """
    sample_list = samples.samples if isinstance(samples, JointSample) else list(samples)
    if len(pairs) < 2:
        raise ValueError("need at least two (source, target) pairs")
    m = row_count(sample_list)

    specs = [KernelSpec()] * len(sample_list) if kernel_specs is None else list(kernel_specs)
    if len(specs) != len(sample_list):
        raise ValueError(
            f"{len(specs)} kernel specs for {len(sample_list)} samples; need one per sample"
        )

    used = list(dict.fromkeys(i for pair in pairs for i in pair))
    for i in used:
        if not 0 <= i < len(sample_list):
            raise ValueError(f"pair index {i} out of range")
    rows = [kernel_rows(sample_list[i], specs[i]) for i in used]
    at = {i: k for k, i in enumerate(used)}
    estimates = hsic_estimates(
        rows, [(at[a], at[b]) for a, b in pairs], [f"{a}-{b}" for a, b in pairs]
    )
    return JointGaussianSummary(
        means=np.array([e.value for e in estimates]),
        covariance=covariance_summary(estimates),
        m=m,
        kernel_info={str(i): kernel_info(rows[at[i]]) for i in sorted(used)},
    )


def generalized_test(
    summary: JointGaussianSummary,
    v: Sequence[float],
    alpha: float = 0.05,
) -> TestResult:
    """Test H0: weighted sum of the population dependencies <= 0.

    Projects the joint Gaussian onto the weight vector: the statistic is
    v'means and its variance v'Cv, which equals the paper's rotated form
    (QCQ')_00 ||v||^2 with Q = ``rotation_matrix(v)``.  With weights
    (1, -1) over the two-statistic summary this is the dependent test, to
    the bit.
    """
    v = check_weights(v, summary.n, alpha)
    return _verdict(summary, v, alpha, GENERALIZED, summary.m, summary.kernel_info)
