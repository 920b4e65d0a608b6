#!/usr/bin/env python3
"""Self-tests of the benchmark's checker, reference and tracer.

Run them from the repository root with

    python3 perfbench/selftest.py

They show that the reference matches a brute-force enumeration of the
order-4 kernel, that the checker accepts the library's own output and
rejects it perturbed by 1e-6 relative, that the tracer covers
``from ... import`` call sites and that unwrapping restores the original
objects, and that BENCHMARK.json names exactly the metrics a run prints.
"""

import ast
import json
import sys
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402

PERTURB = 1e-6


def _fail(msg):
    raise AssertionError(f"benchmark self-test: {msg}")


def _kernel_h(k, l, quad):
    total = 0.0
    for p in permutations(quad):
        s, t, u, v = p
        total += k[s, t] * (l[s, t] + l[u, v] - 2.0 * l[s, u])
    return total / 24.0


def check_reference_bruteforce(m=8):
    """Reference value and h-vector against direct enumeration of 4-tuples."""
    rng = np.random.default_rng(7)
    k = ref.gram(rng.standard_normal((m, 2)))[0]
    l = ref.gram(rng.standard_normal((m, 2)))[0]
    value, h = ref.estimate(k, l)
    quads = list(combinations(range(m), 4))
    brute = sum(_kernel_h(k, l, q) for q in quads) / len(quads)
    raw = np.array([
        6.0 * sum(_kernel_h(k, l, (i,) + t)
                  for t in combinations([j for j in range(m) if j != i], 3))
        for i in range(m)
    ])
    if not np.isclose(value, brute, rtol=1e-12, atol=0):
        _fail(f"reference HSIC {value} != brute force {brute}")
    if not np.allclose(h, 2.0 * raw, rtol=1e-10, atol=1e-14):
        _fail("reference h-vector is not twice the brute-force per-index sums")


def check_reference_is_independent():
    """reference.py imports nothing from reldep."""
    tree = ast.parse((HERE / "reference.py").read_text())
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        if any(n.split(".")[0] == "reldep" for n in names):
            _fail("reference.py imports reldep")


def _accept_and_reject(check, good, perturbed, what):
    problems = check(good)
    if problems:
        _fail(f"{what}: checker rejects the library's own output: {problems}")
    for name, bad in perturbed:
        if not check(bad):
            _fail(f"{what}: checker accepts {name} perturbed by {PERTURB} relative")


def check_checker():
    """The checker accepts library output and rejects 1e-6 perturbations."""
    import workloads as wl
    from reldep import KernelSpec, Sample, SynthConfig, align, dependent_test
    from reldep import generalized_test, joint_summary, power_curve

    x, y, z = ref.synthetic(11, 150, gamma3=0.7)
    res = dependent_test(align(Sample(x), Sample(y), Sample(z)))
    want = ref.dependent(x, y, z)
    _accept_and_reject(
        lambda r: ref.check_dependent(r, want, 150), res,
        [(f, replace(res, **{f: getattr(res, f) * (1 + PERTURB)}))
         for f in ("statistic", "std_dev")],
        "dependent",
    )

    arrays = wl.groups_sample(12, 80)
    specs = [KernelSpec(bandwidth=b) for b in wl.BANDWIDTHS]
    summary = joint_summary([Sample(a) for a in arrays], wl.PAIRS, specs)
    res = generalized_test(summary, wl.WEIGHTS)
    want = ref.generalized(arrays, wl.BANDWIDTHS, wl.PAIRS, wl.WEIGHTS)
    cov = np.array(summary.covariance)
    cov[0, 0] *= 1 + PERTURB
    _accept_and_reject(
        lambda pair: ref.check_generalized(*pair, want), (summary, res),
        [("means", (replace(summary, means=summary.means * (1 + PERTURB)), res)),
         ("covariance", (replace(summary, covariance=cov), res)),
         ("statistic", (summary, replace(res, statistic=res.statistic * (1 + PERTURB)))),
         ("std_dev", (summary, replace(res, std_dev=res.std_dev * (1 + PERTURB))))],
        "generalized",
    )

    grid, trials, m, seed = (0.3, 1.5), 3, 40, 13
    table = power_curve(grid, SynthConfig(m=m, seed=seed), trials, 0.05)
    row = table.rows[1]
    shifted = row.power_dependent + (1 if row.power_dependent < 1 else -1) / trials
    bad = replace(table, rows=(table.rows[0], replace(row, power_dependent=shifted)))
    want = ref.power_p_values(grid, m, seed, trials, 0.05)
    _accept_and_reject(
        lambda t: ref.check_power(t, grid, m, trials, 0.05, want), table,
        [("one rejection count", bad)], "power",
    )


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "reldep" or name.startswith("reldep."))}


def check_tracer():
    """Wrapping covers from-import sites; unwrapping restores the originals."""
    import reldep
    from reldep import synthbench

    before = _namespaces()
    original = reldep.reltest.dependent_test
    missing = ("kernels.no_such_fn", "reldep.kernels", "no_such_fn", None)
    t = tr.Tracer(tr.TARGETS + (missing,))
    t.op = 0
    t.install()
    try:
        for ns in (reldep, reldep.reltest, synthbench):
            if ns.dependent_test is original or ns.dependent_test.__wrapped__ is not original:
                _fail(f"{ns.__name__}.dependent_test is not wrapped")
        x, y, z = ref.synthetic(14, 60)
        reldep.dependent_test(reldep.align(reldep.Sample(x), reldep.Sample(y), reldep.Sample(z)))
    finally:
        t.uninstall()
    after = _namespaces()
    for name, ns in before.items():
        for attr, value in ns.items():
            if after[name].get(attr) is not value:
                _fail(f"{name}.{attr} was not restored by uninstall")
    if t.absent != ["kernels.no_such_fn"]:
        _fail(f"missing entry point not marked absent: {t.absent}")
    s = t.summary({0: 1e3 * (t.spans[0][2] - t.spans[0][1])})
    if s["reltest.dependent_test.calls"] != 1 or s["backend.sq_distance_order_stats.calls"] != 3:
        _fail("traced dependent_test did not record the expected spans")
    if abs(s["trace.untraced_ms_per_op"]) > 1e-9:
        _fail("root span does not cover the traced operation")


def check_benchmark_json():
    """BENCHMARK.json lists exactly the metrics and units run.py prints."""
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.E2E_UNITS:
        _fail(f"end_to_end metrics differ from run.py: {e2e}")
    names = set(tr.Tracer().summary({0: 1.0})) | {"trace.overhead_frac"}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != {n: run.layer_unit(n) for n in names}:
        _fail("per_layer metrics differ from the tracer's")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        _fail("workloads differ from run.py")


def main():
    check_reference_is_independent()
    check_reference_bruteforce()
    check_checker()
    check_tracer()
    check_benchmark_json()


if __name__ == "__main__":
    main()
    print("benchmark self-tests passed")
