"""Synthetic benchmark: generators, power curves and diagnostics.

The generator draws a shared latent angle t ~ Uniform(0, 2 pi) per row and
builds three 2-d variables around it:

    x = (t,          sin t)         + gamma1 * noise
    y = (t cos t,    t sin t)       + gamma2 * noise
    z = (t cos t,    t sin t)       + gamma3 * noise

Sharing t across the three variables is what makes the two dependence
statistics correlated; the noise scales control how strongly each target
clings to the curve, so gamma3 > gamma2 means y is the better partner of x
and the alternative hypothesis holds.

Every experiment is a pure function of its config: per-trial RNG streams
are derived by hashing (seed, indices) through a seed sequence, so trials
are independent, reproducible and order-insensitive, and can run in
parallel worker processes.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from reldep.dataset import JointSample, Sample
from reldep.reltest import dependent_test, independent_test

__all__ = [
    "SynthConfig",
    "PowerPoint",
    "PowerTable",
    "ScatterTrial",
    "ConvergencePoint",
    "sample_synthetic",
    "power_curve",
    "calibration",
    "scatter_experiment",
    "convergence_diagnostic",
    "output_basename",
    "write_rows_csv",
]


@dataclass(frozen=True)
class SynthConfig:
    """Sample size, noise scales and master seed for one generator setup."""

    m: int
    gamma1: float = 0.3
    gamma2: float = 0.3
    gamma3: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.m < 8:
            raise ValueError(f"synthetic config needs m >= 8, got {self.m}")
        for name in ("gamma1", "gamma2", "gamma3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class PowerPoint:
    gamma3: float
    power_dependent: float
    power_independent: float
    trials: int
    alpha: float
    m: int


@dataclass(frozen=True)
class PowerTable:
    rows: tuple[PowerPoint, ...]


@dataclass(frozen=True)
class ScatterTrial:
    trial: int
    hsic_xy: float
    hsic_xz: float
    hsic_xy_half: float
    hsic_xz_half: float
    p_dep: float
    p_indep: float


@dataclass(frozen=True)
class ConvergencePoint:
    m: int
    median_abs_dev: float


def _derived_seed(base_seed: int, *indices: int) -> int:
    """Hash (seed, indices) into a fresh 64-bit stream seed."""
    ss = np.random.SeedSequence((base_seed,) + indices)
    return int(ss.generate_state(1, np.uint64)[0])


def trial_config(base: SynthConfig, *indices: int) -> SynthConfig:
    """Copy of base with a per-trial seed derived from the master seed."""
    return replace(base, seed=_derived_seed(base.seed, *indices))


def sample_synthetic(c: SynthConfig) -> JointSample:
    """Draw one joint sample; bit-identical for identical configs."""
    rng = np.random.default_rng(np.random.SeedSequence(c.seed))
    t = rng.uniform(0.0, 2.0 * np.pi, size=c.m)
    noise = rng.standard_normal(size=(c.m, 6))
    x = np.column_stack([t, np.sin(t)]) + c.gamma1 * noise[:, 0:2]
    y = np.column_stack([t * np.cos(t), t * np.sin(t)]) + c.gamma2 * noise[:, 2:4]
    z = np.column_stack([t * np.cos(t), t * np.sin(t)]) + c.gamma3 * noise[:, 4:6]
    return JointSample(x=Sample(x, "X"), y=Sample(y, "Y"), z=Sample(z, "Z"))


def _run_trials(worker: Callable, args: list, jobs: int) -> list:
    """Run trial workers, optionally across processes; order preserved."""
    if not args:
        raise ValueError("trials must be >= 1")
    if jobs <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, args, chunksize=max(1, len(args) // (4 * jobs))))


def _power_trial(args) -> tuple[bool, bool]:
    cfg, alpha = args
    j = sample_synthetic(cfg)
    rd = dependent_test(j, alpha=alpha)
    ri = independent_test(j, alpha=alpha)
    return rd.reject_null, ri.reject_null


def power_curve(
    gamma3_grid: Sequence[float],
    base: SynthConfig,
    trials: int,
    alpha: float = 0.05,
    jobs: int = 1,
) -> PowerTable:
    """Empirical rejection rate of both tests across a gamma3 grid."""
    if len(gamma3_grid) == 0:
        raise ValueError("gamma3 grid must be non-empty")
    rows = []
    for gi, g3 in enumerate(gamma3_grid):
        args = [
            (trial_config(replace(base, gamma3=float(g3)), gi, t), alpha)
            for t in range(trials)
        ]
        results = _run_trials(_power_trial, args, jobs)
        dep = sum(r[0] for r in results) / trials
        ind = sum(r[1] for r in results) / trials
        rows.append(
            PowerPoint(
                gamma3=float(g3),
                power_dependent=dep,
                power_independent=ind,
                trials=trials,
                alpha=alpha,
                m=base.m,
            )
        )
    return PowerTable(tuple(rows))


def _calibration_trial(args) -> bool:
    cfg, alpha = args
    return dependent_test(sample_synthetic(cfg), alpha=alpha).reject_null


def calibration(
    base: SynthConfig, trials: int, alpha: float = 0.05, jobs: int = 1
) -> float:
    """Type I rate of the dependent test at the null boundary.

    Requires gamma3 == gamma2, which makes y and z equally dependent on x
    by construction; a calibrated test rejects at about alpha.
    """
    if base.gamma3 != base.gamma2:
        raise ValueError(
            "calibration requires gamma3 == gamma2 (the null boundary)"
        )
    args = [(trial_config(base, t), alpha) for t in range(trials)]
    return sum(_run_trials(_calibration_trial, args, jobs)) / trials


def _scatter_trial(args) -> ScatterTrial:
    cfg, alpha, t = args
    j = sample_synthetic(cfg)
    rd = dependent_test(j, alpha=alpha)
    ri = independent_test(j, alpha=alpha)
    return ScatterTrial(
        trial=t,
        hsic_xy=float(rd.summary.means[0]),
        hsic_xz=float(rd.summary.means[1]),
        hsic_xy_half=float(ri.summary.means[0]),
        hsic_xz_half=float(ri.summary.means[1]),
        p_dep=rd.p_value,
        p_indep=ri.p_value,
    )


def scatter_experiment(
    c: SynthConfig, trials: int, alpha: float = 0.05, jobs: int = 1
) -> list[ScatterTrial]:
    """Per-trial estimate pairs and p-values for both methods."""
    args = [(trial_config(c, t), alpha, t) for t in range(trials)]
    return _run_trials(_scatter_trial, args, jobs)


def _difference_trial(cfg: SynthConfig) -> float:
    return dependent_test(sample_synthetic(cfg)).statistic


def convergence_diagnostic(
    m_grid: Sequence[int],
    c: SynthConfig,
    trials: int,
    jobs: int = 1,
) -> list[ConvergencePoint]:
    """Median deviation of the difference statistic from its large-m value.

    The population difference is approximated by the mean statistic at four
    times the largest grid size; the median absolute deviation at each m
    then tracks the root-m convergence rate.
    """
    m_grid = [int(m) for m in m_grid]
    if len(m_grid) < 3:
        raise ValueError("m grid needs at least 3 points")
    if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError("m grid must be strictly ascending")

    big = 4 * m_grid[-1]
    pop_args = [
        trial_config(replace(c, m=big), len(m_grid), t) for t in range(trials)
    ]
    delta_pop = float(np.mean(_run_trials(_difference_trial, pop_args, jobs)))

    out = []
    for k, m in enumerate(m_grid):
        args = [trial_config(replace(c, m=m), k, t) for t in range(trials)]
        deltas = np.array(_run_trials(_difference_trial, args, jobs))
        out.append(
            ConvergencePoint(m=m, median_abs_dev=float(np.median(np.abs(deltas - delta_pop))))
        )
    return out


# ---------------------------------------------------------------------------
# File output.
# ---------------------------------------------------------------------------


def output_basename(experiment: str, m: int, seed: int) -> str:
    """Canonical stem for experiment output files."""
    return f"{experiment}_{m}_{seed}"


def _cell(value) -> str:
    # repr gives the shortest digits that round-trip exactly
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_rows_csv(path, rows: Sequence, fieldnames: Sequence[str]) -> None:
    """Write dataclass-like records as CSV with a header row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_cell(getattr(row, f)) for f in fieldnames])
