#!/usr/bin/env python3
"""reldep benchmark: closed-loop timing of the public API, one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload dep-m3200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process, ``jobs=1``, BLAS pinned to one thread.  Set-up generates every
input from ``--seed``; the timed loop then runs operations back to back for
``--seconds``.  Every result is checked against an independent NumPy
reference (``reference.py``) after the loop.

``--trace 0`` prints the end-to-end metrics.  Each operation is followed by
the reference on the same input, timed on its own, and times are reported
as the ratio of the two: both slow down alike when the shared host does, so
the ratio stays put while raw milliseconds swing by a quarter from one
minute to the next.  Raw times are printed too, unbounded.  ``--trace 1``
alternates untraced and traced operations and prints the per-layer metrics
from the outside-in tracer (``tracer.py``).  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
nonzero when any operation fails.  Full results and spans go to
``.bench_out/`` at the repository root.  See README.md for the workloads,
metrics and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("dep-m3200", "power-m500", "groups-m1000")
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "latency_vs_ref.p50": "ratio",
    "latency_vs_ref.tail": "ratio",
    "cpu_vs_ref.p50": "ratio",
    "peak_rss_mb": "MB",
}
# Printed for reading, not bounded: they follow the host's speed.
RAW_UNITS = {
    "ops_per_s": "1/s",
    "trials_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "cpu_ms_per_op": "ms",
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms") or name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith(".gbps_computed"):
        return "GB/s"
    if name == "trace.overhead_frac":
        return "fraction"
    return "ratio"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a nonnegative 63-bit integer")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def set_up(args):
    """Import reldep, generate the inputs and run one untimed warm-up operation."""
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, args.seconds)
    w.warmup()
    return w


def probe_set_up(args):
    """Set-up time of a fresh process that runs only the set-up.

    The child prints the wall-clock time at which its set-up ended, so the
    measurement runs from just before the spawn to that moment and neither
    process teardown nor the parent's polling of the child is counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.time()
    out = subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S,
                         stdout=subprocess.PIPE, text=True)
    return float(out.stdout.split()[-1]) - t0


def tail(latencies):
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    With fewer than 20 samples that percentile would lie below the median,
    so the median rank is used instead.  Returns (value, percentile, beyond).
    """
    s = sorted(latencies)
    n = len(s)
    rank = max(n - 10, math.ceil(n / 2))
    return s[rank - 1], 100.0 * rank / n, n - rank


def timed_loop(w, seconds, tracer=None):
    """Closed loop for ``seconds``.

    Without a tracer, every operation that returns is followed by the
    reference on the same input, timed apart from it; the reference's answer
    is kept for the check after the loop.  With a tracer, odd operations are
    traced and the reference runs only in the check.
    """
    loop = {key: {} for key in ("results", "failures", "wants",
                                "op_s", "op_cpu", "ref_s", "ref_cpu")}
    loop["traced"] = set()
    i = 0
    t0 = time.perf_counter()
    while True:
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.op = i
            tracer.install()
            loop["traced"].add(i)
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            loop["results"][i] = w.op(i)
        except Exception:  # the loop goes on; every failure is reported
            loop["failures"][i] = traceback.format_exc()
        loop["op_s"][i] = time.perf_counter() - start
        loop["op_cpu"][i] = time.process_time() - cpu0
        if trace_this:
            tracer.uninstall()
        if tracer is None and i in loop["results"]:
            start, cpu0 = time.perf_counter(), time.process_time()
            loop["wants"][i] = w.reference(i)
            loop["ref_s"][i] = time.perf_counter() - start
            loop["ref_cpu"][i] = time.process_time() - cpu0
        i += 1
        if time.perf_counter() - t0 >= seconds and (tracer is None or loop["traced"]):
            return loop


def verify(w, loop):
    """Check every returned result against the reference; add rejections to failures."""
    for i, r in sorted(loop["results"].items()):
        problems = w.check(i, r, loop["wants"].get(i))
        if problems:
            loop["failures"][i] = "; ".join(problems)


def end_to_end(w, loop):
    """The bounded end-to-end metrics but ``setup_s`` and ``peak_rss_mb``, and the raw ones."""
    ok = sorted(loop["results"])
    if not ok:
        return {}, {}, {}
    rel = [loop["op_s"][i] / loop["ref_s"][i] for i in ok]
    rel_tail, pct, beyond = tail(rel)
    metrics = {
        "latency_vs_ref.p50": statistics.median(rel),
        "latency_vs_ref.tail": rel_tail,
        "cpu_vs_ref.p50": statistics.median([loop["op_cpu"][i] / loop["ref_cpu"][i] for i in ok]),
    }
    lat_ms = [1e3 * loop["op_s"][i] for i in ok]
    ops_per_s = len(ok) / sum(loop["op_s"].values())
    raw = {
        "ops_per_s": ops_per_s,
        "trials_per_s": ops_per_s * w.trials_per_op,
        "latency_ms.p50": statistics.median(lat_ms),
        "latency_ms.tail": tail(lat_ms)[0],
        "cpu_ms_per_op": 1e3 * sum(loop["op_cpu"].values()) / len(loop["op_cpu"]),
    }
    tail_note = f"p{pct:.1f}, {beyond} of {len(ok)} samples beyond"
    notes = {"latency_vs_ref.tail": tail_note, "latency_ms.tail": tail_note}
    return metrics, raw, notes


def per_layer(tracer, loop):
    op_s, traced = loop["op_s"], loop["traced"]
    traced_ms = {i: 1e3 * op_s[i] for i in traced}
    metrics = tracer.summary(traced_ms)
    plain = [op_s[i] for i in op_s if i not in traced]
    traced_s = list(traced_ms.values())
    metrics["trace.overhead_frac"] = 1.0 - (
        (len(traced_s) / (1e-3 * sum(traced_s))) / (len(plain) / sum(plain))
    )
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    total = self_sum + metrics["trace.untraced_ms_per_op"]
    if not math.isclose(total, metrics["trace.traced_ms_per_op"], rel_tol=1e-9):
        raise RuntimeError(f"self times + untraced = {total} ms, traced op = "
                           f"{metrics['trace.traced_ms_per_op']} ms")
    notes = {f"{name}.calls": "absent" for name in tracer.absent}
    return metrics, notes


def run_one(args):
    out_dir = ROOT / ".bench_out"
    # Set-up is probed before set-up, after the timed loop and after
    # verification, so that no single phase of a noisy machine decides it.
    setup_runs = [probe_set_up(args)] if args.trace == 0 else []

    w = set_up(args)
    # Input generation and one warm-up operation, before any reference work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import stamp
    from tracer import Tracer

    env = stamp.environment(ROOT, args.seed, BLAS_THREAD_VARS)

    tracer = Tracer() if args.trace else None
    loop = timed_loop(w, args.seconds, tracer)
    failures = loop["failures"]
    attempted = len(loop["op_s"])
    raw = {}
    if args.trace:
        metrics, notes = per_layer(tracer, loop)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, raw, notes = end_to_end(w, loop)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = {**E2E_UNITS, **RAW_UNITS}
        setup_runs.append(probe_set_up(args))
    verify(w, loop)
    if setup_runs:
        setup_runs.append(probe_set_up(args))
        metrics = {"setup_s": statistics.median(setup_runs), **metrics}

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  attempted {attempted}  failed {len(failures)}  "
          f"failed_frac {len(failures) / attempted:.6g}")
    if setup_runs:
        print(f"set-up runs (s): {', '.join(f'{t:.4f}' for t in setup_runs)}")
    for title, table in (("", metrics), ("raw, unbounded (follows the host's speed):", raw)):
        if title and table:
            print(title)
        for name in sorted(table):
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:48s} {table[name]:14.6g} {units[name]}{note}")
    for i, msg in sorted(failures.items())[:5]:
        print(f"FAILED op {i}: {msg}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "args": vars(args), **result, "notes": notes,
              "raw": {k: {"value": v, "unit": units[k]} for k, v in raw.items()},
              "setup_runs_s": setup_runs,
              "op_ms": {str(i): 1e3 * t for i, t in loop["op_s"].items()},
              "ref_ms": {str(i): 1e3 * t for i, t in loop["ref_s"].items()},
              "failures": {str(i): m for i, m in failures.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps(result))
    return 1 if failures else 0


def run_all(args):
    """Each workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None):
    for var in BLAS_THREAD_VARS:  # before NumPy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        set_up(args)
        print(repr(time.time()))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
