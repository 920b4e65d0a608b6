"""Command-line interface.

Subcommands: ``test`` (relative dependency test on CSV files), ``hsic``
(plain dependence estimate), and the synthetic experiment drivers
``power``, ``calibrate``, ``scatter``, ``converge``.  Results go to
standard output as JSON (or CSV with --format csv); diagnostics go to
standard error.  Exit codes: 0 success, 2 usage or I/O problems, 3
statistical preconditions not met.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from reldep import synthbench
from reldep.dataset import PreconditionError, align, load_csv
from reldep.hsic import hsic_estimate, variance_hsic
from reldep.kernels import GAUSSIAN, LINEAR, KernelConfig, KernelSpec
from reldep.reltest import (
    check_weights,
    dependent_test,
    generalized_test,
    independent_test,
    joint_summary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class CliError(ValueError):
    """A usage error found by the CLI itself (exit 2)."""


def _default_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("RELDEP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"RELDEP_SEED must be an integer, got {env!r}")
    return 0


def _parse_list(text: str, what: str, item=float, *, blanks: bool = False) -> list:
    """The comma-separated items of ``text``, each converted by ``item``.

    Blank items are skipped unless ``blanks`` hands them to ``item`` too.
    """
    try:
        values = [item(p) for p in text.split(",") if blanks or p.strip() != ""]
    except ValueError:
        raise CliError(f"cannot parse {what} {text!r}")
    if not values:
        raise CliError(f"{what} is empty")
    return values


def _pair(item: str) -> tuple[int, int]:
    a, b = item.split("-")  # ValueError unless exactly one dash
    return int(a), int(b)


def _parse_grid(text: str) -> list[float]:
    """start:step:stop inclusive grid, or a comma-separated list."""
    if ":" not in text:
        return _parse_list(text, "grid")
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"grid {text!r} must be start:step:stop")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"cannot parse grid {text!r}")
    if step <= 0 or stop < start:
        raise CliError(f"grid {text!r} must have step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    grid = [start + i * step for i in range(count)]
    return [g for g in grid if g <= stop + 1e-12]


def _spec(args, var: str) -> KernelSpec:
    return KernelSpec(getattr(args, f"kernel_{var}") or GAUSSIAN, getattr(args, f"bandwidth_{var}"))


def _csv_cell(value):
    if isinstance(value, float):
        return repr(float(value))  # the shortest digits that round-trip
    return json.dumps(value) if isinstance(value, (dict, list)) else value


def _csv_text(rows: list[dict]) -> str:
    """CSV of ``rows`` under a header of the first row's keys.

    Floats are written in their shortest round-trip form and dicts and
    lists as JSON; the csv module writes the rest (None as an empty cell).
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(_csv_text([payload]) if args.format == "csv" else text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")


def _load_inputs(args) -> list:
    return [load_csv(p, delimiter=args.delimiter, has_header=args.header) for p in args.inputs]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _check_route(args) -> None:
    """Refuse the ``test`` flags that the chosen route would ignore."""
    if args.seed is not None and not args.shuffle_split:
        raise CliError("--seed applies only with --shuffle-split")
    if args.shuffle_split and args.method != "independent":
        raise CliError("--shuffle-split applies only with --method independent")
    if (args.pairs or args.weights) and args.method is not None:
        raise CliError("--method does not apply with --pairs/--weights")
    if args.pairs or args.weights:
        for var in "xyz"[len(args.inputs) :]:
            for flag in (f"--kernel-{var}", f"--bandwidth-{var}"):
                if getattr(args, flag[2:].replace("-", "_")) is not None:
                    raise CliError(f"{flag} has no input file: {len(args.inputs)} given")


def cmd_test(args) -> int:
    _check_route(args)
    samples = _load_inputs(args)
    specs = [_spec(args, var) for var in "xyz"]

    if args.pairs or args.weights:
        if not (args.pairs and args.weights):
            raise CliError("--pairs and --weights must be used together")
        pairs = _parse_list(args.pairs, "pairs (expected like 0-1,0-2)", _pair, blanks=True)
        weights = _parse_list(args.weights, "weights")
        check_weights(weights, len(pairs), args.alpha)
        # One spec per file: the x, y, z flags in order, the default kernel past z.
        specs = (specs + [KernelSpec()] * len(samples))[: len(samples)]
        summary = joint_summary(samples, pairs, specs)
        result = generalized_test(summary, weights, alpha=args.alpha)
        payload = result.to_dict()
        payload["pairs"] = [f"{a}-{b}" for a, b in pairs]
        payload["weights"] = weights
    else:
        if len(samples) != 3:
            raise CliError(
                "test needs exactly three input files (x, y, z) unless "
                "--pairs/--weights select a generalized combination"
            )
        j = align(*samples)
        if args.method == "independent":
            shuffle_seed = _default_seed(args.seed) if args.shuffle_split else None
            result = independent_test(
                j, KernelConfig(*specs), alpha=args.alpha, shuffle_seed=shuffle_seed
            )
        else:
            result = dependent_test(j, KernelConfig(*specs), alpha=args.alpha)
        payload = result.to_dict()
    _emit(payload, args)
    return EXIT_OK


def cmd_hsic(args) -> int:
    est = hsic_estimate(*_load_inputs(args), _spec(args, "x"), _spec(args, "y"))
    payload = {"hsic": est.value, "variance": variance_hsic(est), "m": est.m,
               "kernel": est.kernel_info}
    _emit(payload, args)
    return EXIT_OK


def _base_config(args, m: int, gamma3: float) -> synthbench.SynthConfig:
    return synthbench.SynthConfig(
        m=m,
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        gamma3=gamma3,
        seed=_default_seed(args.seed),
    )


def _write_experiment(args, experiment: str, size, seed: int, records, **extra) -> int:
    """Write the records and the summary of one experiment, and print it.

    ``size`` is the sample size m, or the list of sizes of a grid.  The
    files ``<experiment>_<m>_<seed>.csv`` and ``.json`` go to ``--out``
    (default: the current directory); m is the largest size of a grid.
    The CSV has one row per record (a dataclass or a dict) with its fields
    as columns.  The summary holds experiment, m (or m_grid), seed, then
    ``extra`` in order, then the CSV's path.
    """
    grid = isinstance(size, list)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{experiment}_{max(size) if grid else size}_{seed}"
    csv_path = out / f"{stem}.csv"
    rows = [r if isinstance(r, dict) else dataclasses.asdict(r) for r in records]
    csv_path.write_text(_csv_text(rows), encoding="utf-8", newline="")
    summary = {
        "experiment": experiment,
        "m_grid" if grid else "m": size,
        "seed": seed,
        **extra,
        "csv": str(csv_path),
    }
    (out / f"{stem}.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary))
    return EXIT_OK


def cmd_power(args) -> int:
    grid = _parse_grid(args.gamma3)
    base = _base_config(args, args.m, args.gamma2)
    table = synthbench.power_curve(
        grid, base, trials=args.trials, alpha=args.alpha, jobs=args.jobs
    )
    return _write_experiment(
        args, "power", args.m, base.seed, table.rows,
        trials=args.trials, alpha=args.alpha, rows=len(table.rows),
    )


def cmd_calibrate(args) -> int:
    base = _base_config(args, args.m, args.gamma2)
    rate = synthbench.calibration(
        base, trials=args.trials, alpha=args.alpha, jobs=args.jobs
    )
    row = {"m": args.m, "trials": args.trials, "alpha": args.alpha, "rejection_rate": rate}
    return _write_experiment(
        args, "calibrate", args.m, base.seed, [row],
        trials=args.trials, alpha=args.alpha, rejection_rate=rate,
    )


def cmd_scatter(args) -> int:
    cfg = _base_config(args, args.m, args.gamma3)
    records = synthbench.scatter_experiment(cfg, trials=args.trials, jobs=args.jobs)
    return _write_experiment(
        args, "scatter", args.m, cfg.seed, records,
        gamma3=args.gamma3,
        trials=args.trials,
        median_p_dep=float(np.median([r.p_dep for r in records])),
        median_p_indep=float(np.median([r.p_indep for r in records])),
    )


def cmd_converge(args) -> int:
    grid = _parse_list(args.m_grid, "m grid", int)
    cfg = _base_config(args, grid[0], args.gamma3)
    points = synthbench.convergence_diagnostic(
        grid, cfg, trials=args.trials, jobs=args.jobs
    )
    logs = np.log([p.m for p in points])
    logd = np.log([p.median_abs_dev for p in points])
    return _write_experiment(
        args, "converge", grid, cfg.seed, points,
        gamma3=args.gamma3,
        trials=args.trials,
        loglog_slope=float(np.polyfit(logs, logd, 1)[0]),
    )


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_common_io(p):
    p.add_argument("--delimiter", default=",", help="CSV delimiter (default comma)")
    p.add_argument(
        "--header", action="store_true", help="treat the first row as a header"
    )
    p.add_argument("--out", help="also write the result to this file")
    p.add_argument(
        "--format", choices=["json", "csv"], default="json", help="stdout format"
    )


def _add_kernel_flags(p, variables: str):
    for var in variables:
        p.add_argument(
            f"--kernel-{var}",
            choices=[GAUSSIAN, LINEAR],
            help=f"kernel for {var} (default: {GAUSSIAN})",
        )
        p.add_argument(
            f"--bandwidth-{var}",
            type=float,
            help=f"Gaussian bandwidth for {var} (default: median heuristic)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reldep",
        description=(
            "Relative dependency testing: decide whether a source variable "
            "is more dependent on one target than on another."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="relative dependency test on CSV files", allow_abbrev=False)
    p.add_argument("inputs", nargs="+", help="CSV files: x y z (or more with --pairs)")
    p.add_argument(
        "--method",
        choices=["dependent", "independent"],
        help="full-sample correlated test (default) or split-half baseline",
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--weights", help="comma-separated weights for --pairs")
    p.add_argument("--pairs", help="comma-separated index pairs like 0-1,0-2,0-3")
    p.add_argument(
        "--shuffle-split",
        action="store_true",
        help="seeded pre-shuffle of rows before the independent split",
    )
    p.add_argument("--seed", type=int, default=None, help="seed for --shuffle-split")
    _add_kernel_flags(p, "xyz")
    _add_common_io(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("hsic", help="unbiased HSIC estimate for two CSV files", allow_abbrev=False)
    p.add_argument("inputs", nargs=2, help="CSV files: x y")
    _add_kernel_flags(p, "xy")
    _add_common_io(p)
    p.set_defaults(func=cmd_hsic)

    # The Monte-Carlo drivers share one group of run flags.
    for name, text, func, gamma3 in (
        ("power", "power curve over a gamma3 grid", cmd_power,
         {"required": True, "help": "grid start:step:stop or comma list"}),
        ("calibrate", "Type I rate at the null boundary", cmd_calibrate, None),
        ("scatter", "per-trial estimates and p-values", cmd_scatter,
         {"type": float, "required": True}),
        ("converge", "convergence-rate diagnostic", cmd_converge,
         {"type": float, "default": 0.7}),
    ):
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(func=func)
        if name == "converge":
            p.add_argument("--m-grid", required=True, help="comma list, e.g. 100,200,400,800")
        else:
            p.add_argument("--m", type=int, required=True, help="sample size per trial")
        if name in ("power", "calibrate"):
            p.add_argument("--alpha", type=float, default=0.05)
        if gamma3:
            p.add_argument("--gamma3", **gamma3)
        p.add_argument("--trials", type=int, required=True, help="Monte-Carlo trials")
        p.add_argument("--gamma1", type=float, default=0.3)
        p.add_argument("--gamma2", type=float, default=0.3)
        p.add_argument("--seed", type=int, default=None, help="master seed (or RELDEP_SEED)")
        p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
        p.add_argument("--out", help="output directory (default: current)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
