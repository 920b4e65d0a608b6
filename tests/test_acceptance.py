"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they happen; they also appear in captured output on failure).
Monte-Carlo criteria use fixed seeds and the tolerances stated with each
criterion; runtime ceilings are asserted where a criterion carries one.
"""

import ast
import time
from pathlib import Path

import numpy as np
import pytest

from reldep.dataset import Sample
from reldep.hsic import H_SUM_RATIO, cross_covariance, hsic_estimate, hsic_estimates
from reldep.kernels import KernelSpec
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

from oracles import gaussian_gram, h_vector_bruteforce, hsic_bruteforce


def report(cid: str, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPT {cid} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def random_pair(rng, m):
    """The oracles' Grams of two random samples, and each sample with its kernel's spec."""
    x, y = rng.standard_normal((2, m, 3))
    sx, sy = map(float, rng.uniform(0.6, 2.0, size=2))
    grams = gaussian_gram(x, sx), gaussian_gram(y, sy)
    return grams, ((Sample(x), KernelSpec(bandwidth=sx)), (Sample(y), KernelSpec(bandwidth=sy)))


def streamed(inputs, pairs):
    """The estimator the tests run: ``hsic_estimates`` over (sample, spec) inputs."""
    samples, specs = zip(*inputs)
    return hsic_estimates(samples, specs, pairs, [f"{a}-{b}" for a, b in pairs])[0]


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
    # The streamed estimator against enumeration over the oracles' own Grams.
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst = 0.0
    for m in (4, 6, 8, 10, 12):
        for _ in range(50):
            (kt, lt), inputs = random_pair(rng, m)
            oracle = hsic_bruteforce(kt, lt)
            (est,) = streamed(inputs, [(0, 1)])
            worst = max(worst, abs(est.value - oracle) / max(1.0, abs(oracle)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report("C01", "estimator-oracle-equivalence", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_c02_h_vector_and_cross_covariance_oracles():
    # The streamed h-vectors and cross-covariance against enumeration.
    rng = np.random.default_rng(778)
    start = time.perf_counter()
    worst_h = 0.0
    for m in (8, 10, 12):
        (kt, lt), inputs = random_pair(rng, m)
        raw = h_vector_bruteforce(kt, lt)
        (est,) = streamed(inputs, [(0, 1)])
        rel = np.abs(est.h_vector - H_SUM_RATIO * raw) / np.maximum(1.0, np.abs(raw))
        worst_h = max(worst_h, float(rel.max()))

    m = 10
    (kt, lt), (x_in, y_in) = random_pair(rng, m)
    (_, dt), (_, d_in) = random_pair(rng, m)
    s_h = h_vector_bruteforce(kt, lt)
    s_g = h_vector_bruteforce(kt, dt)
    f = (m - 1) * (m - 2) * (m - 3)
    oracle_cov = (16.0 / m) * (
        float(s_h @ s_g) / (m * f * f) - hsic_bruteforce(kt, lt) * hsic_bruteforce(kt, dt)
    )
    got = cross_covariance(*streamed([x_in, y_in, d_in], [(0, 1), (0, 2)]))
    cov_err = abs(got - oracle_cov) / max(1.0, abs(oracle_cov))
    elapsed = time.perf_counter() - start
    ok = worst_h < 1e-9 and cov_err < 1e-9 and elapsed < 10.0
    report(
        "C02",
        "h-vector-and-cross-covariance-oracles",
        ok,
        f"h rel {worst_h:.2e}, cov rel {cov_err:.2e}, {elapsed:.1f}s",
    )
    assert worst_h < 1e-9
    assert cov_err < 1e-9
    assert elapsed < 10.0


def test_oracles_import_nothing_from_reldep():
    # C01 and C02 check the library against code that shares none of it.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "reldep" for n in names), ast.unparse(node)


def test_c03_unbiasedness_monte_carlo():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    spec = KernelSpec(bandwidth=1.8)
    vals = np.empty(2000)
    for i in range(2000):
        x = Sample(rng.standard_normal((20, 2)), "x")
        y = Sample(rng.standard_normal((20, 2)), "y")
        vals[i] = hsic_estimate(x, y, spec, spec).value
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
