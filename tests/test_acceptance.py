"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they happen; they also appear in captured output on failure).
Monte-Carlo criteria use fixed seeds and the tolerances stated with each
criterion; runtime ceilings are asserted where a criterion carries one.
"""

import time

import numpy as np
import pytest

from reldep.dataset import Sample
from reldep.hsic import (
    H_SUM_RATIO,
    h_vector_bruteforce,
    hsic_bruteforce,
    hsic_estimate,
    hsic_estimates,
    cross_covariance,
)
from reldep.kernels import KernelSpec, build_zero_diag_gram, kernel_rows
from reldep.reltest import (
    dependent_test,
    generalized_test,
    joint_summary,
    rotation_matrix,
)
from reldep.synthbench import (
    SynthConfig,
    calibration,
    convergence_diagnostic,
    power_curve,
    sample_synthetic,
    scatter_experiment,
)


def report(cid: str, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPT {cid} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def random_pair(rng, m):
    """Dense Grams of two random samples, and the same kernels' tile rows."""
    x = Sample(rng.standard_normal((m, 3)), "x")
    y = Sample(rng.standard_normal((m, 3)), "y")
    sx = KernelSpec(bandwidth=float(rng.uniform(0.6, 2.0)))
    sy = KernelSpec(bandwidth=float(rng.uniform(0.6, 2.0)))
    grams = build_zero_diag_gram(x, sx), build_zero_diag_gram(y, sy)
    return grams, (kernel_rows(x, sx), kernel_rows(y, sy))


def streamed(rows, pairs):
    """The estimator the tests run: ``hsic_estimates`` over kernel rows."""
    return hsic_estimates(rows, pairs, [f"{a}-{b}" for a, b in pairs])


@pytest.fixture(scope="module")
def scatter_run_07():
    """100 draws at gamma3=0.7, m=500; shared by criteria 5 and 7."""
    return scatter_experiment(SynthConfig(m=500, gamma3=0.7, seed=1002), trials=100)


@pytest.fixture(scope="module")
def convergence_run():
    """Shared by the slope criterion and the monotone-medians property."""
    start = time.perf_counter()
    pts = convergence_diagnostic(
        [100, 200, 400, 800], SynthConfig(m=100, gamma3=0.7, seed=1005), trials=100
    )
    return pts, time.perf_counter() - start


def test_c01_estimator_oracle_equivalence():
    # Both the dense estimator and the streamed one the tests run.
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst = {"dense": 0.0, "streamed": 0.0}
    for m in (4, 6, 8, 10, 12):
        for _ in range(50):
            (kt, lt), rows = random_pair(rng, m)
            oracle = hsic_bruteforce(kt, lt)
            (est,) = streamed(rows, [(0, 1)])
            for name, fast in (("dense", hsic_estimate(kt, lt).value), ("streamed", est.value)):
                worst[name] = max(worst[name], abs(fast - oracle) / max(1.0, abs(oracle)))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-9 and elapsed < 5.0
    detail = ", ".join(f"{k} worst rel err {v:.2e}" for k, v in worst.items())
    report("C01", "estimator-oracle-equivalence", ok, f"{detail}, {elapsed:.1f}s")
    assert max(worst.values()) < 1e-9
    assert elapsed < 5.0


def test_c02_h_vector_and_cross_covariance_oracles():
    # Both the dense estimator and the streamed one the tests run.
    rng = np.random.default_rng(778)
    start = time.perf_counter()
    worst_h = 0.0
    for m in (8, 10, 12):
        (kt, lt), rows = random_pair(rng, m)
        raw = h_vector_bruteforce(kt, lt)
        (est,) = streamed(rows, [(0, 1)])
        for fast in (hsic_estimate(kt, lt).h_vector, est.h_vector):
            rel = np.abs(fast - H_SUM_RATIO * raw) / np.maximum(1.0, np.abs(raw))
            worst_h = max(worst_h, float(rel.max()))

    m = 10
    (kt, lt), (rx, ry) = random_pair(rng, m)
    (_, dt), (_, rd) = random_pair(rng, m)
    s_h = h_vector_bruteforce(kt, lt)
    s_g = h_vector_bruteforce(kt, dt)
    f = (m - 1) * (m - 2) * (m - 3)
    oracle_cov = (16.0 / m) * (
        float(s_h @ s_g) / (m * f * f) - hsic_bruteforce(kt, lt) * hsic_bruteforce(kt, dt)
    )
    cov_err = 0.0
    for e_xy, e_xz in (
        (hsic_estimate(kt, lt, "XY"), hsic_estimate(kt, dt, "XZ")),
        streamed([rx, ry, rd], [(0, 1), (0, 2)]),
    ):
        got = cross_covariance(e_xy, e_xz)
        cov_err = max(cov_err, abs(got - oracle_cov) / max(1.0, abs(oracle_cov)))
    elapsed = time.perf_counter() - start
    ok = worst_h < 1e-9 and cov_err < 1e-9 and elapsed < 10.0
    report(
        "C02",
        "h-vector-and-cross-covariance-oracles",
        ok,
        f"h rel {worst_h:.2e}, cov rel {cov_err:.2e} (dense and streamed), {elapsed:.1f}s",
    )
    assert worst_h < 1e-9
    assert cov_err < 1e-9
    assert elapsed < 10.0


def test_c03_unbiasedness_monte_carlo():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    vals = np.empty(2000)
    for i in range(2000):
        x = Sample(rng.standard_normal((20, 2)), "x")
        y = Sample(rng.standard_normal((20, 2)), "y")
        kt = build_zero_diag_gram(x, KernelSpec(bandwidth=1.8))
        lt = build_zero_diag_gram(y, KernelSpec(bandwidth=1.8))
        vals[i] = hsic_estimate(kt, lt).value
    elapsed = time.perf_counter() - start
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    ok = abs(vals.mean()) < 4 * se and elapsed < 30.0
    report(
        "C03",
        "unbiasedness",
        ok,
        f"mean {vals.mean():.2e} vs 4se {4 * se:.2e}, {elapsed:.0f}s",
    )
    assert abs(vals.mean()) < 4 * se
    assert elapsed < 30.0


def test_c04_calibration_at_null_boundary():
    start = time.perf_counter()
    rate = calibration(
        SynthConfig(m=500, gamma2=0.3, gamma3=0.3, seed=1001), trials=300, alpha=0.05
    )
    elapsed = time.perf_counter() - start
    ok = 0.01 <= rate <= 0.09
    report("C04", "calibration", ok, f"rejection rate {rate:.4f}, {elapsed:.0f}s")
    assert 0.01 <= rate <= 0.09
    assert elapsed < 300.0


def test_c05_power_ordering_vs_reported_values(scatter_run_07):
    med_dep = float(np.median([r.p_dep for r in scatter_run_07]))
    med_ind = float(np.median([r.p_indep for r in scatter_run_07]))
    strong = scatter_experiment(SynthConfig(m=500, gamma3=1.7, seed=1003), trials=100)
    med_dep_strong = float(np.median([r.p_dep for r in strong]))
    ok = med_dep < 0.05 and med_ind > 0.10 and med_dep_strong < 1e-4
    report(
        "C05",
        "power-ordering",
        ok,
        f"g3=0.7: p_dep {med_dep:.2e} / p_indep {med_ind:.2f}; "
        f"g3=1.7: p_dep {med_dep_strong:.1e}",
    )
    assert med_dep < 0.05
    assert med_ind > 0.10
    assert med_dep_strong < 1e-4


def test_c06_power_dominance_over_gamma_grid():
    grid = [round(0.4 + 0.1 * i, 10) for i in range(14)]
    table = power_curve(grid, SynthConfig(m=500, seed=1004), trials=200, alpha=0.05)
    dominated, strong = [], []
    for row in table.rows:
        se = np.sqrt(
            row.power_dependent * (1 - row.power_dependent) / row.trials
            + row.power_independent * (1 - row.power_independent) / row.trials
        )
        dominated.append(row.power_dependent >= row.power_independent - 2 * se)
        if row.gamma3 >= 1.3 - 1e-9:
            strong.append(row.power_dependent >= 0.9)
    ok = all(dominated) and all(strong)
    report(
        "C06",
        "power-dominance",
        ok,
        f"dominated at {sum(dominated)}/{len(dominated)} points, "
        f"power>=0.9 at {sum(strong)}/{len(strong)} strong points",
    )
    assert all(dominated)
    assert all(strong)


def test_c07_variance_dominance(scatter_run_07):
    dep = np.array([r.hsic_xy - r.hsic_xz for r in scatter_run_07])
    ind = np.array([r.hsic_xy_half - r.hsic_xz_half for r in scatter_run_07])
    var_dep = float(dep.var(ddof=1))
    var_ind = float(ind.var(ddof=1))
    ok = var_dep < var_ind
    report("C07", "variance-dominance", ok, f"dep {var_dep:.2e} < ind {var_ind:.2e}")
    assert var_dep < var_ind


def test_c08_rotation_properties():
    rng = np.random.default_rng(779)
    start = time.perf_counter()
    worst_orth = worst_annih = worst_norm = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        v = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 3))
        q = rotation_matrix(v).q
        norm = float(np.linalg.norm(v))
        out = q @ v
        worst_orth = max(worst_orth, float(np.abs(q.T @ q - np.eye(n)).max()))
        worst_annih = max(worst_annih, float(np.abs(out[1:]).max()) / norm)
        worst_norm = max(worst_norm, abs(out[0] - norm) / norm)
    elapsed = time.perf_counter() - start
    ok = worst_orth < 1e-10 and worst_annih < 1e-10 and worst_norm < 1e-10 and elapsed < 1.0
    report(
        "C08",
        "rotation-properties",
        ok,
        f"orth {worst_orth:.1e}, annihilation {worst_annih:.1e}, "
        f"norm {worst_norm:.1e}, {elapsed:.2f}s",
    )
    assert worst_orth < 1e-10
    assert worst_annih < 1e-10
    assert worst_norm < 1e-10
    assert elapsed < 1.0


def test_c09_generalized_reduction():
    worst = 0.0
    for seed in range(20):
        j = sample_synthetic(SynthConfig(m=120, gamma3=0.9, seed=seed))
        dep = dependent_test(j)
        gen = generalized_test(joint_summary(j, [(0, 1), (0, 2)]), [1.0, -1.0])
        worst = max(worst, abs(gen.p_value - dep.p_value))
    ok = worst < 1e-12
    report("C09", "generalized-reduction", ok, f"worst |p diff| {worst:.2e} over 20 datasets")
    assert worst < 1e-12


def test_c10_convergence_rate(convergence_run):
    pts, elapsed = convergence_run
    slope = float(
        np.polyfit(
            np.log([p.m for p in pts]), np.log([p.median_abs_dev for p in pts]), 1
        )[0]
    )
    ok = -0.65 <= slope <= -0.35
    report("C10", "convergence-rate", ok, f"log-log slope {slope:.3f}, {elapsed:.0f}s")
    assert -0.65 <= slope <= -0.35
    assert elapsed < 300.0


def test_convergence_medians_monotone(convergence_run):
    # same run as C10: the deviation medians should shrink with m
    devs = [p.median_abs_dev for p in convergence_run[0]]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_c11_quadratic_time_scaling():
    import statistics

    j1 = sample_synthetic(SynthConfig(m=1000, gamma3=0.7, seed=1))
    j2 = sample_synthetic(SynthConfig(m=2000, gamma3=0.7, seed=1))
    dependent_test(j1)
    dependent_test(j2)  # warm code paths and allocator
    t1s, t2s = [], []
    for _ in range(9):  # alternate sizes so both see the same cache state;
        t0 = time.perf_counter()  # medians resist stray warm/cold outliers
        dependent_test(j1)
        t1s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        dependent_test(j2)
        t2s.append(time.perf_counter() - t0)
    t1, t2 = statistics.median(t1s), statistics.median(t2s)
    ratio = t2 / t1
    ok = ratio <= 5.0
    report(
        "C11",
        "quadratic-time",
        ok,
        f"t(1000) {t1 * 1e3:.0f} ms, t(2000) {t2 * 1e3:.0f} ms, ratio {ratio:.2f}",
    )
    assert ratio <= 5.0
