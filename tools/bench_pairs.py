#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, summarised into a BENCH file.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --seeds 201-210 --trace-seeds 201-203 --out BENCH_5.json

For every workload and seed, ``perfbench/run.py --trace 0`` runs once in
each tree, alternating which tree goes first.  Each end-to-end metric is
summarised per tree as median and quartiles, with the number of pairs the
change won (ties count for neither).  So is the raw, unbounded
``trials_per_s`` of each run's ``.bench_out`` record, under
``trials_per_s``: it follows the host's speed, but it is the Monte-Carlo
throughput itself.  So are the medians of each run's own op times, under
``op_ms``, and of the reference's op times on the same inputs, under
``ref_ms``: a move of a ``latency_vs_ref`` ratio splits into reldep's time
and the reference's.  ``--trace 1`` runs on the trace seeds give per-layer
medians of the backend kernels; they alternate the trees per seed too, so
host drift does not read as a layer change.  The environment stamp is the
change's first run's.  A run that fails its reference check or exits
nonzero stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dep-m3200", "power-m500", "groups-m1000")
RAW = ("trials_per_s", "op_ms", "ref_ms")
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
    record = json.loads(record.read_text())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    raw = {"trials_per_s": record["raw"].get("trials_per_s", {}).get("value"),
           **{k: statistics.median(record[k].values()) if record[k] else None
              for k in ("op_ms", "ref_ms")}}  # a traced run times no reference
    return metrics, raw, record["env"]


def paired_order(i):
    """The trees in the order the i-th seed runs them: alternated per seed."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


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
           "end_to_end": {}, **{k: {} for k in RAW}, "layers": {}}
    for workload in args.workloads:
        runs, raws = {"base": [], "change": []}, {"base": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in paired_order(i):
                metrics, raw, env = run(trees[side], workload, seed, 0)
                runs[side].append(metrics)
                raws[side].append(raw)
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
        for k in RAW:
            out[k][workload] = {side: quartiles([r[k] for r in rs]) for side, rs in raws.items()}
        traced = {"base": [], "change": []}
        for i, seed in enumerate(args.trace_seeds):
            for side in paired_order(i):
                traced[side].append(run(trees[side], workload, seed, 1)[0])
        out["layers"][workload] = {
            side: {k: statistics.median(t[k] for t in records) for k in LAYERS}
            for side, records in traced.items() if records
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
