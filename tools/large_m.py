#!/usr/bin/env python3
"""One dependent test at m = 20,000 in this process, timed, as JSON.

    python3 tools/large_m.py [--m 20000] [--seed 1]

Draws a synthetic sample (gamma3 = 0.7, fixed seed), runs one
``dependent_test`` on it and prints the wall time of the test, its p-value
and the process's peak resident set size (``ru_maxrss``).  A dense test
would need three m x m matrices (9.6 GB at m = 20,000); the streamed test
holds the O(m d) rows plus a few tiles, at any width d.  Run it in a fresh
process, so the peak belongs to this test alone.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldep import dependent_test  # noqa: E402
from reldep.synthbench import SynthConfig, sample_synthetic  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--m", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    j = sample_synthetic(SynthConfig(m=args.m, gamma3=0.7, seed=args.seed))
    start = time.perf_counter()
    result = dependent_test(j)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "m": args.m,
        "seed": args.seed,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "p_value": result.p_value,
        "kernel": result.kernel_info,
    }))


if __name__ == "__main__":
    main()
