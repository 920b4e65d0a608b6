#!/usr/bin/env python3
"""Float-exact dump of reldep's results, to compare two source trees.

    python3 tools/identity_dump.py ../parent > base.txt
    python3 tools/identity_dump.py . > change.txt
    python3 tools/identity_dump.py --diff base.txt change.txt

The dump imports ``reldep`` from ``<tree>/src`` and prints one line per
result: the float.hex of the dependent test, the split test (plain and
shuffled), the joint summary over 2, 3 and 5 pairs and over the two-pair
star (1, 0), (1, 2), whose shared variable is not the first, and the
generalized test on each summary, over 120 seeds at m in
{20, 23, 120, 400}, 3 seeds at m = 700, where a dependent test's three
median blocks still fit the keep budget, and 5 seeds at m = 1000, whose tiles no longer all fit it,
with the default kernels and with linear-x/bandwidth-y.  Two cases with a user
bandwidth on x follow: near-duplicate rows far from the origin, whose raw
squared distances go below zero, and rows scaled by 2^-520, whose
products fall below the normal range.  Then come the tests of 3 seeds
at m in {300, 700} with d = 256 and d = 400 columns: at m = 300 the
median pass keeps its distance tiles, at m = 700 it streams them and
draws its bracket sample in chunks, and at d = 400 each tile's inner
products are two GEMMs over fixed feature chunks.  Then it prints the stdout
and output files of ``reldep test`` (the README's four forms and
``--format csv``, and kernel flags on the ``--pairs`` route with four and
with two files), ``hsic``, ``power``, ``calibrate``, ``scatter`` and
``converge``, each line as the ``repr`` of its text with its line ending,
so a change of line endings shows.  It runs in a fresh temporary
directory, so two trees give the same file names.

``--diff`` counts the changed lines per kind and reports the largest
absolute change of each float field (hex fields, and JSON number lines of
the CLI output).  It exits with 1 when any line changed or the line counts
differ, and with 0 when the two dumps are identical.
"""

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = range(120)
SIZES = (20, 23, 120, 400)
# m = 700 keeps every median block of a test; m = 1000 has tiles that are
# recomputed instead of kept (_backend.KEEP_BYTES).
MID_M, MID_SEEDS = 700, range(3)
LARGE_M, LARGE_SEEDS = 1000, range(5)
PAIR_SETS = (
    ((0, 1), (0, 2)),
    ((1, 0), (1, 2)),
    ((0, 1), (0, 2), (1, 2)),
    ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0)),
)
WEIGHTS = {2: (1.0, -1.0), 3: (1.0, 1.0, -2.0), 5: (0.5, -1.5, 2.0, 1.0, -0.25)}
WIDE_DS, WIDE_SIZES, WIDE_SEEDS = (256, 400), (300, 700), range(3)


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def _result(kind, key, res):
    return (f"{kind}|{key}|stat={_hex([res.statistic])} std={_hex([res.std_dev])}"
            f" p={_hex([res.p_value])} reject={res.reject_null}")


def dump_tests(reldep, key, j, cfg, out):
    """The dependent test and the split test, plain and shuffled, of j under cfg."""
    dep = reldep.dependent_test(j, cfg)
    print(_result("dependent", key, dep), f"kernel={dep.kernel_info}", file=out)
    for shuffle in (None, 3):
        ind = reldep.independent_test(j, cfg, shuffle_seed=shuffle)
        print(_result("independent", f"{key}|shuffle={shuffle}", ind),
              f"kernel={ind.kernel_info}", file=out)


def dump_results(reldep, out):
    from reldep.kernels import KernelConfig, KernelSpec
    from reldep.synthbench import SynthConfig, sample_synthetic

    configs = {
        "default": KernelConfig(),
        "lin-bw": KernelConfig(x=KernelSpec(family="linear"), y=KernelSpec(bandwidth=1.7)),
    }
    samples = [(f"m{m}-s{seed}", sample_synthetic(
        SynthConfig(m=m, gamma3=0.3 + 0.2 * (seed % 8), seed=seed)))
        for m, seeds in [*((m, SEEDS) for m in SIZES), (MID_M, MID_SEEDS), (LARGE_M, LARGE_SEEDS)]
        for seed in seeds]
    j = samples[0][1]
    dup = reldep.Sample(j.x.data[[0, 1, 2, 0, 3, 1, 4, 5, 6, 7, 8, 2, 9, 10]], "dup")
    samples.append(("dup", reldep.align(dup, j.y.rows(range(14)), j.z.rows(range(14)))))
    for name, j in samples:
        for cname, cfg in configs.items():
            key = f"{name}|{cname}"
            dump_tests(reldep, key, j, cfg, out)
            for pairs in PAIR_SETS:
                pkey = f"{key}|{','.join(f'{a}-{b}' for a, b in pairs)}"
                summary = reldep.joint_summary(j, pairs, cfg)
                print(f"joint|{pkey}|means={_hex(summary.means)}"
                      f" cov={_hex(summary.covariance.ravel())}", file=out)
                gen = reldep.generalized_test(summary, WEIGHTS[len(pairs)])
                print(_result("generalized", pkey, gen), file=out)
    dump_edge_cases(reldep, out)
    dump_wide(reldep, out)


def dump_edge_cases(reldep, out):
    from reldep.kernels import KernelConfig, KernelSpec
    from reldep.synthbench import SynthConfig, sample_synthetic

    j = sample_synthetic(SynthConfig(m=302, gamma3=0.9, seed=7))
    # The rows at -1e6 and 1e6 pin the midrange at 0, so the cluster stays
    # far from the origin after centring.
    near = np.concatenate([[-1e6, 1e6], 5e5 + np.arange(300) * np.spacing(5e5)])[:, None]
    cases = {
        "near-dup": (near, 1.0),
        "tiny-2^-520": (j.x.data * 2.0**-520, 2.0**-510),
    }
    for name, (x, bandwidth) in cases.items():
        case = reldep.align(reldep.Sample(x, name), j.y, j.z)
        cfg = KernelConfig(x=KernelSpec(bandwidth=bandwidth))
        dump_tests(reldep, f"{name}|bw-x", case, cfg, out)


def dump_wide(reldep, out):
    """The tests of synthetic samples widened to each of WIDE_DS by seeded noise columns."""
    from reldep.kernels import KernelConfig
    from reldep.synthbench import SynthConfig, sample_synthetic

    for d in WIDE_DS:
        for m in WIDE_SIZES:
            for seed in WIDE_SEEDS:
                j = sample_synthetic(SynthConfig(m=m, gamma3=0.9, seed=seed))
                noise = np.random.default_rng(seed).standard_normal((3, m, d - 2))
                wide = reldep.align(*(reldep.Sample(np.hstack([s.data, 0.1 * n]), s.label)
                                      for s, n in zip(j.samples, noise)))
                dump_tests(reldep, f"wide-m{m}-d{d}-s{seed}", wide, KernelConfig(), out)


INPUTS = ("x.csv", "y.csv", "z.csv", "t3.csv")
CLI_RUNS = (
    ["test", "x.csv", "y.csv", "z.csv", "--alpha", "0.05", "--out", "test-dep.json"],
    ["test", "x.csv", "y.csv", "z.csv", "--method", "independent", "--shuffle-split",
     "--seed", "7"],
    ["test", "x.csv", "y.csv", "z.csv", "--kernel-x", "linear", "--bandwidth-y", "2.0"],
    ["test", "x.csv", "y.csv", "z.csv", "t3.csv", "--pairs", "0-1,0-2,0-3",
     "--weights", "1,1,-2", "--out", "test-gen.json"],
    ["test", "x.csv", "y.csv", "z.csv", "--format", "csv"],
    ["test", "x.csv", "y.csv", "z.csv", "t3.csv", "--pairs", "0-1,0-2,0-3",
     "--weights", "1,1,-2", "--format", "csv"],
    ["test", "x.csv", "y.csv", "z.csv", "t3.csv", "--pairs", "0-1,0-2,0-3,1-3",
     "--weights", "1,1,-2,0.5", "--kernel-x", "linear", "--bandwidth-y", "1.3",
     "--bandwidth-z", "0.9"],
    ["test", "x.csv", "y.csv", "--pairs", "0-1,1-0", "--weights", "1,0.5",
     "--kernel-y", "linear"],
    ["hsic", "x.csv", "y.csv"],
    ["hsic", "x.csv", "y.csv", "--kernel-x", "linear", "--bandwidth-y", "0.9"],
    ["power", "--gamma3", "0.4:0.4:1.2", "--m", "60", "--trials", "4", "--seed", "1",
     "--out", "out"],
    ["calibrate", "--m", "60", "--trials", "6", "--seed", "1", "--out", "out"],
    ["scatter", "--gamma3", "0.7", "--m", "60", "--trials", "5", "--seed", "1",
     "--out", "out"],
    ["converge", "--m-grid", "20,40,80", "--trials", "3", "--seed", "1", "--out", "out"],
)


def dump_cli(reldep, out):
    from reldep.cli import main
    from reldep.dataset import save_csv
    from reldep.synthbench import SynthConfig, sample_synthetic

    j = sample_synthetic(SynthConfig(m=120, gamma3=1.2, seed=4))
    t3 = sample_synthetic(SynthConfig(m=120, gamma3=0.8, seed=9)).z
    for name, s in zip(INPUTS, (j.x, j.y, j.z, t3)):
        save_csv(s, name)
    for argv in CLI_RUNS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        for n, line in enumerate(buf.getvalue().splitlines(keepends=True)):
            print(f"cli|{' '.join(argv)}|{n}|{line!r}", file=out)
        print(f"cli|{' '.join(argv)}|exit|{code}", file=out)
    files = sorted(p for p in Path(".").rglob("*") if p.is_file() and p.name not in INPUTS)
    for path in files:
        for n, line in enumerate(path.read_bytes().decode("utf-8").splitlines(keepends=True)):
            print(f"file|{path}|{n}|{line!r}", file=out)


def dump(tree):
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    import reldep

    dump_results(reldep, sys.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            dump_cli(reldep, sys.stdout)
        finally:
            os.chdir(cwd)


def _fields(line):
    kind, _, rest = line.partition("|")
    out = {}
    for item in rest.rsplit("|", 1)[-1].split():
        name, sep, value = item.partition("=")
        if sep:
            try:
                out[name] = [float.fromhex(v) for v in value.split(",")]
            except ValueError:
                pass
    number = re.search(r'"(\w+)": (-?[0-9.]+(?:e[-+]?[0-9]+)?),?(?:\\r)?(?:\\n)?\'$', line)
    if number:
        out[number[1]] = [float(number[2])]
    return kind, out


def diff(base_path, change_path) -> int:
    """Print the changes per kind; 1 if the dumps differ, else 0."""
    base = Path(base_path).read_text().splitlines()
    change = Path(change_path).read_text().splitlines()
    if len(base) != len(change):
        print(f"line counts differ: {len(base)} vs {len(change)}")
    counts, worst = {}, {}
    for a, b in zip(base, change):
        kind, fa = _fields(a)
        total, changed = counts.get(kind, (0, 0))
        counts[kind] = (total + 1, changed + (a != b))
        if a == b:
            continue
        _, fb = _fields(b)
        for name in fa.keys() & fb.keys():
            d = max((abs(x - y) for x, y in zip(fa[name], fb[name])), default=0.0)
            worst[kind, name] = max(worst.get((kind, name), 0.0), d)
    for kind, (total, changed) in counts.items():
        deltas = " ".join(f"max|d{n}|={d:.2e}" for (k, n), d in sorted(worst.items())
                          if k == kind)
        print(f"{kind}: {changed} of {total} lines changed {deltas}".rstrip())
    return int(len(base) != len(change) or any(c for _, c in counts.values()))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    elif len(sys.argv) == 2:
        dump(sys.argv[1])
    else:
        sys.exit(__doc__)
