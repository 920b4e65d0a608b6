import os

import numpy as np
import pytest

from reldep import synthbench
from reldep.hsic import hsic_estimate
from reldep.kernels import KernelSpec
from reldep.synthbench import (
    SynthConfig,
    calibration,
    convergence_diagnostic,
    power_curve,
    sample_synthetic,
    scatter_experiment,
    trial_config,
)


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="m >= 8"):
            SynthConfig(m=7)
        with pytest.raises(ValueError, match="nonnegative"):
            SynthConfig(m=10, gamma1=-0.1)
        with pytest.raises(ValueError, match="seed"):
            SynthConfig(m=10, seed=-1)


class TestSampleSynthetic:
    def test_zero_noise_lies_on_curves(self):
        j = sample_synthetic(SynthConfig(m=50, gamma1=0, gamma2=0, gamma3=0, seed=3))
        t = j.x.data[:, 0]
        assert np.array_equal(j.x.data[:, 1], np.sin(t))
        assert np.array_equal(j.y.data, j.z.data)  # same curve, no noise
        assert np.array_equal(j.y.data[:, 0], t * np.cos(t))
        assert np.all((t >= 0) & (t <= 2 * np.pi))

    def test_zero_noise_statistic_is_exactly_zero(self):
        j = sample_synthetic(SynthConfig(m=40, gamma1=0, gamma2=0, gamma3=0, seed=9))
        sx, target = KernelSpec(bandwidth=1.0), KernelSpec(bandwidth=1.5)
        assert hsic_estimate(j.x, j.y, sx, target).value == hsic_estimate(j.x, j.z, sx, target).value

    def test_deterministic(self):
        c = SynthConfig(m=30, gamma3=0.7, seed=123)
        a, b = sample_synthetic(c), sample_synthetic(c)
        assert np.array_equal(a.x.data, b.x.data)
        assert np.array_equal(a.y.data, b.y.data)
        assert np.array_equal(a.z.data, b.z.data)

    def test_seed_changes_draw(self):
        a = sample_synthetic(SynthConfig(m=30, seed=1))
        b = sample_synthetic(SynthConfig(m=30, seed=2))
        assert not np.array_equal(a.x.data, b.x.data)

    def test_shapes_and_domains(self):
        j = sample_synthetic(SynthConfig(m=25, gamma3=0.5, seed=0))
        for s in (j.x, j.y, j.z):
            assert s.data.shape == (25, 2)
        assert {j.x.label, j.y.label, j.z.label} == {"X", "Y", "Z"}


class TestTrialSeeds:
    def test_derivation_is_deterministic(self):
        base = SynthConfig(m=20, seed=42)
        assert trial_config(base, 0, 1).seed == trial_config(base, 0, 1).seed
        assert trial_config(base, 0, 1).seed != trial_config(base, 0, 2).seed
        assert trial_config(base, 1, 1).seed != trial_config(base, 0, 1).seed


class TestPowerCurve:
    def test_small_run_well_formed(self):
        table = power_curve([0.5, 1.5], SynthConfig(m=64, seed=7), trials=6)
        assert len(table.rows) == 2
        for row in table.rows:
            assert 0.0 <= row.power_dependent <= 1.0
            assert 0.0 <= row.power_independent <= 1.0
            assert row.trials == 6 and row.m == 64

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            power_curve([], SynthConfig(m=64, seed=7), trials=5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            power_curve([0.5], SynthConfig(m=64, seed=7), trials=0)

    def test_jobs_do_not_change_results(self):
        base = SynthConfig(m=64, seed=7)
        seq = power_curve([0.5, 1.2], base, trials=4, jobs=1)
        par = power_curve([0.5, 1.2], base, trials=4, jobs=2)
        assert seq == par

    @pytest.mark.parametrize(
        "jobs, trials, cpus, started",
        [(64, 2, 8, 2), (64, 5, 3, 3), (2, 5, 8, 2), (1, 5, 8, None), (4, 5, 1, None)],
    )
    def test_workers_clamped_to_trials_and_cpus(self, monkeypatch, jobs, trials, cpus, started):
        # A stand-in pool records its size and maps in this process, so no
        # worker process is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(synthbench, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert synthbench._run_trials(abs, [-t for t in range(trials)], jobs) == list(range(trials))
        assert sizes == ([] if started is None else [started])

    def test_power_non_decreasing_in_gamma3(self):
        # weakening z's link to x makes the alternative easier, so the
        # rejection rate should climb along the grid (binomial slack)
        table = power_curve(
            [0.4, 0.9, 1.5], SynthConfig(m=200, seed=21), trials=60, alpha=0.05
        )
        powers = [r.power_dependent for r in table.rows]
        for a, b in zip(powers, powers[1:]):
            slack = 2 * np.sqrt(max(a * (1 - a), 0.25 / 60) / 60)
            assert b >= a - slack


class TestCalibration:
    def test_boundary_required(self):
        with pytest.raises(ValueError, match="gamma3 == gamma2"):
            calibration(SynthConfig(m=64, gamma3=0.9, seed=1), trials=5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            calibration(SynthConfig(m=64, seed=1), trials=0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            calibration(SynthConfig(m=20, seed=1), trials=2, jobs=jobs)

    def test_rate_is_a_rate(self):
        rate = calibration(SynthConfig(m=64, seed=1), trials=8)
        assert 0.0 <= rate <= 1.0

    def test_strict_level_also_calibrated(self):
        rate = calibration(SynthConfig(m=500, seed=2004), trials=300, alpha=0.01)
        assert rate <= 0.025

    def test_independent_test_conservative_at_boundary(self):
        # same joint law for y and z: the split-half test should reject at
        # no more than about alpha (it comes out conservative because its
        # variance estimate has no cancelling cross term)
        table = power_curve([0.3], SynthConfig(m=500, gamma2=0.3, seed=2005), trials=300)
        assert table.rows[0].power_independent <= 0.07
        assert table.rows[0].power_dependent <= 0.09


class TestFigureScaleMedians:
    """Large-sample scatter medians; generous bounds since draws vary."""

    def test_moderate_contrast_m3000(self):
        recs = scatter_experiment(SynthConfig(m=3000, gamma3=0.7, seed=2001), trials=11)
        assert float(np.median([r.p_dep for r in recs])) <= 1e-4
        assert float(np.median([r.p_indep for r in recs])) >= 0.05

    def test_strong_contrast_m3000(self):
        recs = scatter_experiment(SynthConfig(m=3000, gamma3=1.7, seed=2002), trials=11)
        assert float(np.median([r.p_dep for r in recs])) <= 1e-8
        assert float(np.median([r.p_indep for r in recs])) < 0.05


class TestScatterExperiment:
    def test_records(self):
        recs = scatter_experiment(SynthConfig(m=64, gamma3=0.9, seed=3), trials=5)
        assert [r.trial for r in recs] == list(range(5))
        for r in recs:
            assert 0.0 <= r.p_dep <= 1.0 and 0.0 <= r.p_indep <= 1.0
            for f in (r.hsic_xy, r.hsic_xz, r.hsic_xy_half, r.hsic_xz_half):
                assert np.isfinite(f)

    def test_deterministic(self):
        c = SynthConfig(m=64, gamma3=0.9, seed=3)
        assert scatter_experiment(c, trials=3) == scatter_experiment(c, trials=3)


class TestConvergenceDiagnostic:
    def test_grid_validation(self):
        c = SynthConfig(m=16, gamma3=0.7, seed=2)
        with pytest.raises(ValueError, match="at least 3"):
            convergence_diagnostic([100], c, trials=3)
        with pytest.raises(ValueError, match="ascending"):
            convergence_diagnostic([100, 100, 200], c, trials=3)

    def test_small_run(self):
        c = SynthConfig(m=16, gamma3=0.7, seed=2)
        pts = convergence_diagnostic([16, 32, 64], c, trials=6)
        assert [p.m for p in pts] == [16, 32, 64]
        assert all(p.median_abs_dev >= 0 for p in pts)
