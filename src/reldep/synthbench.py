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
parallel worker processes.  A trial draws one sample and returns the
dependent test's result, or both tests' results where the split baseline
is compared (``power_curve``, ``scatter_experiment``).

The experiments return records (dataclasses) and write no files; the
command-line interface decides every output file and its format.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from reldep.dataset import JointSample, Sample
from reldep.reltest import TestResult, dependent_test, independent_test

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
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, not {getattr(self, name)}")
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


def trial_config(base: SynthConfig, *indices: int) -> SynthConfig:
    """Copy of base whose seed is (master seed, indices) hashed into a fresh 64-bit seed."""
    ss = np.random.SeedSequence((base.seed,) + indices)
    return replace(base, seed=int(ss.generate_state(1, np.uint64)[0]))


def sample_synthetic(c: SynthConfig) -> JointSample:
    """Draw one joint sample; bit-identical for identical configs."""
    rng = np.random.default_rng(np.random.SeedSequence(c.seed))
    t = rng.uniform(0.0, 2.0 * np.pi, size=c.m)
    noise = rng.standard_normal(size=(c.m, 6))
    x = np.column_stack([t, np.sin(t)]) + c.gamma1 * noise[:, 0:2]
    y = np.column_stack([t * np.cos(t), t * np.sin(t)]) + c.gamma2 * noise[:, 2:4]
    z = np.column_stack([t * np.cos(t), t * np.sin(t)]) + c.gamma3 * noise[:, 4:6]
    return JointSample(x=Sample(x, "X"), y=Sample(y, "Y"), z=Sample(z, "Z"))


def _run_trials(worker: Callable, cfgs: list, jobs: int) -> list:
    """``worker`` on each trial config, optionally across processes; order preserved.

    Starts at most one process per trial and per CPU this process may use.
    """
    if not cfgs:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(cfgs), cpus or 1)
    if workers <= 1:
        return [worker(c) for c in cfgs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, cfgs, chunksize=max(1, len(cfgs) // (4 * workers))))


def _dependent_trial(cfg: SynthConfig, *, alpha: float = 0.05) -> TestResult:
    return dependent_test(sample_synthetic(cfg), alpha=alpha)


def _both_tests_trial(cfg: SynthConfig, *, alpha: float = 0.05) -> tuple[TestResult, TestResult]:
    j = sample_synthetic(cfg)
    return dependent_test(j, alpha=alpha), independent_test(j, alpha=alpha)


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
    points = [replace(base, gamma3=float(g3)) for g3 in gamma3_grid]  # all checked before a trial
    rows = []
    for gi, point in enumerate(points):
        cfgs = [trial_config(point, gi, t) for t in range(trials)]
        results = _run_trials(partial(_both_tests_trial, alpha=alpha), cfgs, jobs)
        rows.append(
            PowerPoint(
                gamma3=point.gamma3,
                power_dependent=sum(rd.reject_null for rd, _ in results) / trials,
                power_independent=sum(ri.reject_null for _, ri in results) / trials,
                trials=trials,
                alpha=alpha,
                m=base.m,
            )
        )
    return PowerTable(tuple(rows))


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
    cfgs = [trial_config(base, t) for t in range(trials)]
    results = _run_trials(partial(_dependent_trial, alpha=alpha), cfgs, jobs)
    return sum(r.reject_null for r in results) / trials


def scatter_experiment(c: SynthConfig, trials: int, jobs: int = 1) -> list[ScatterTrial]:
    """Per-trial estimate pairs and p-values for both methods."""
    cfgs = [trial_config(c, t) for t in range(trials)]
    return [
        ScatterTrial(
            trial=t,
            hsic_xy=float(rd.summary.means[0]),
            hsic_xz=float(rd.summary.means[1]),
            hsic_xy_half=float(ri.summary.means[0]),
            hsic_xz_half=float(ri.summary.means[1]),
            p_dep=rd.p_value,
            p_indep=ri.p_value,
        )
        for t, (rd, ri) in enumerate(_run_trials(_both_tests_trial, cfgs, jobs))
    ]


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
    pop_cfgs = [trial_config(replace(c, m=big), len(m_grid), t) for t in range(trials)]
    delta_pop = float(np.mean([r.statistic for r in _run_trials(_dependent_trial, pop_cfgs, jobs)]))

    out = []
    for k, m in enumerate(m_grid):
        cfgs = [trial_config(replace(c, m=m), k, t) for t in range(trials)]
        deltas = np.array([r.statistic for r in _run_trials(_dependent_trial, cfgs, jobs)])
        out.append(
            ConvergencePoint(m=m, median_abs_dev=float(np.median(np.abs(deltas - delta_pop))))
        )
    return out
