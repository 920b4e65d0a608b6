#!/usr/bin/env python3
"""Benchmark the compiled core against the NumPy fallback.

Times the hot kernels and an end-to-end dependent test at several
sample sizes.  Both implementations are imported directly, so the
RELDEP_BACKEND selection does not matter here.

Run:  python benchmarks/bench_core.py [--sizes 250,500,1000,2000] [--reps 5]
"""

import argparse
import time

import numpy as np

from reldep import _core_numpy

try:
    from reldep import _core
except ImportError:
    _core = None


def best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_backend(impl, m, reps, rng):
    x = rng.standard_normal((m, 2))
    d2 = impl.pairwise_sq_dists(x)
    k = np.exp(-0.5 * d2)
    l = np.exp(-0.4 * impl.pairwise_sq_dists(rng.standard_normal((m, 2))))
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(l, 0.0)
    n_pairs = m * (m - 1) // 2
    mid = n_pairs // 2
    return {
        "pairwise_sq_dists": best_of(lambda: impl.pairwise_sq_dists(x), reps),
        "order_stats_median": best_of(
            lambda: impl.sq_distance_order_stats(d2, mid - 1, mid), reps
        ),
        "hsic_h_reductions": best_of(lambda: impl.hsic_h_reductions(k, l), reps),
    }


def bench_test(m, reps):
    from reldep.reltest import dependent_test
    from reldep.synthbench import SynthConfig, sample_synthetic

    j = sample_synthetic(SynthConfig(m=m, gamma3=0.7, seed=0))
    return best_of(lambda: dependent_test(j), reps)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="250,500,1000,2000")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = np.random.default_rng(0)

    if _core is None:
        print("compiled core not built; benchmarking NumPy fallback only\n")

    header = f"{'kernel':22s} {'m':>6s} {'numpy (ms)':>12s} {'compiled (ms)':>14s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for m in sizes:
        numpy_times = bench_backend(_core_numpy, m, args.reps, rng)
        compiled_times = (
            bench_backend(_core, m, args.reps, rng) if _core is not None else {}
        )
        for name, t_np in numpy_times.items():
            t_c = compiled_times.get(name)
            speedup = f"{t_np / t_c:7.2f}x" if t_c else "    n/a"
            t_c_ms = f"{t_c * 1e3:14.3f}" if t_c else f"{'n/a':>14s}"
            print(f"{name:22s} {m:6d} {t_np * 1e3:12.3f} {t_c_ms} {speedup}")
        print()

    print("end-to-end dependent test (active backend):")
    for m in sizes:
        print(f"  m={m:5d}: {bench_test(m, max(2, args.reps // 2)) * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
