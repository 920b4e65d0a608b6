#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, summarised into a BENCH file.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --seeds 201-210 --trace-seeds 201-203 --out BENCH_5.json

For every workload and seed, ``perfbench/run.py --trace 0`` runs once in
each tree, alternating which tree goes first.  Each end-to-end metric is
summarised per tree as median and quartiles, with the number of pairs the
change won (ties count for neither).  ``--trace 1`` runs on the trace
seeds give per-layer medians of the backend kernels.  The environment
stamp is the change's first run's.  A run that fails its reference check
or exits nonzero stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dep-m3200", "power-m500", "groups-m1000")
LAYERS = tuple(
    f"backend.{fn}.{field}"
    for fn in ("sq_distance_order_stats", "hsic_h_reductions")
    for field in ("calls", "self_ms")
) + ("hsic.covariance_summary.self_ms", "trace.traced_ms_per_op")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(tree, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{tree}: {' '.join(cmd[1:])} failed:\n{proc.stderr[-2000:]}")
    record = Path(tree) / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    env = json.loads(record.read_text())["env"]
    return {k: v["value"] for k, v in result["metrics"].items()}, env


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="source tree of the parent commit")
    p.add_argument("--change", required=True, help="source tree of the change")
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 201-210")
    p.add_argument("--trace-seeds", type=seed_list, default=[], help="e.g. 201-203")
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    trees = {"base": args.base, "change": args.change}
    out = {"env": None, "seeds": args.seeds, "trace_seeds": args.trace_seeds,
           "end_to_end": {}, "layers": {}}
    for workload in args.workloads:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                metrics, env = run(trees[side], workload, seed, 0)
                runs[side].append(metrics)
                if side == "change" and out["env"] is None:
                    out["env"] = env
                print(workload, seed, side, metrics, file=sys.stderr, flush=True)
        summary = {}
        for name in runs["base"][0]:
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            summary[name] = {
                "base": quartiles(base),
                "change": quartiles(change),
                "change_wins": sum(c < b for b, c in zip(base, change)),
                "pairs": len(base),
            }
        out["end_to_end"][workload] = summary
        layers = {}
        for side in ("base", "change"):
            traced = [run(trees[side], workload, seed, 1)[0] for seed in args.trace_seeds]
            if traced:
                layers[side] = {k: statistics.median(t[k] for t in traced) for k in LAYERS}
        out["layers"][workload] = layers
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
