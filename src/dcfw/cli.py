"""Command line front end for the benchmark harness.

Subcommands: ``run`` executes a suite, ``profile`` turns saved results into
performance-profile curves, ``table`` prints shifted-geomean summaries.  A
key=value config file can supply any ``run`` option; explicit flags win.
"""

import argparse
import csv
import sys
from pathlib import Path

from . import bench
from .dca import VARIANTS


def _name_list(text):
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


def _int_list(text):
    return [int(tok) for tok in _name_list(text)]


# run options by destination: the add_argument keywords of --<dest with
# dashes>; a config file may set any of them
RUN_OPTIONS = {
    "suite": dict(choices=["quadratics", "hard", "qap"], default="quadratics"),
    "sizes": dict(
        type=_int_list, default="10,20,30", help="comma separated instance sizes"
    ),
    "seeds": dict(type=_int_list, default="0,1,2,3,4", help="comma separated seeds"),
    "variants": dict(
        type=_name_list,
        default=",".join(v for v in VARIANTS if not v.endswith("-BT")),
        help="comma separated variant names",
    ),
    "qaplib_dir": dict(help="directory of .dat files"),
    "out": dict(default="bench_out", help="output directory"),
    "outer_cap": dict(type=int),
    "inner_cap": dict(type=int),
    "tol": dict(type=float, default=1e-6, help="stationarity gap tolerance"),
    "time_limit": dict(type=float),
}


def _read_config_file(path):
    """Typed run options from a key=value file; unknown or repeated keys raise."""
    opts = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        option = RUN_OPTIONS.get(key)
        if option is None:
            raise ValueError(f"unknown config key {key!r} in {path}")
        if key in opts:
            raise ValueError(f"config key {key!r} is set twice in {path}")
        opts[key] = option.get("type", str)(value.strip())
    return opts


def cmd_run(args):
    results = bench.run_suite(
        args.suite,
        args.sizes,
        args.seeds,
        args.variants,
        qaplib_dir=args.qaplib_dir,
        out_dir=args.out,
        dca_gap_tol=args.tol,
        outer_cap=args.outer_cap,
        inner_cap=args.inner_cap,
        time_limit=args.time_limit,
        log=print,
    )
    solved = sum(r.solved for r in results)
    print(f"{len(results)} runs, {solved} solved, results under {args.out}")
    return 0


def cmd_profile(args):
    results = bench.load_results(args.in_dir)
    thetas, curves = bench.performance_profile(
        results, args.metric, modified=args.modified
    )
    suffix = "_modified" if args.modified else ""
    path = Path(args.in_dir) / f"profile_{args.metric}{suffix}.csv"
    bench.write_profile(path, thetas, curves)
    for s, rho in curves.items():
        print(f"{s:<18} rho(1)={rho[0]:.3f} rho(max)={rho[-1]:.3f}")
    print(f"wrote {path}")
    return 0


def cmd_table(args):
    rows = bench.summarize_table(bench.load_results(args.in_dir))
    print(bench.format_table(rows))
    path = Path(args.in_dir) / "summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


def build_parser(run_defaults=None):
    """The bench parser; run_defaults replace the run options' defaults."""
    parser = argparse.ArgumentParser(
        prog="bench", description="difference-of-convex Frank-Wolfe benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite of instances")
    for dest, option in RUN_OPTIONS.items():
        run.add_argument("--" + dest.replace("_", "-"), dest=dest, **option)
    run.add_argument("--config", help="key=value file of run options")
    run.set_defaults(fn=cmd_run, **(run_defaults or {}))

    profile = sub.add_parser("profile", help="performance profile from saved results")
    profile.add_argument("--in", dest="in_dir", required=True)
    profile.add_argument("--metric", choices=list(bench.METRICS), required=True)
    profile.add_argument(
        "--modified",
        action="store_true",
        help="count unsolved runs as solved at their final iteration",
    )
    profile.set_defaults(fn=cmd_profile)

    table = sub.add_parser("table", help="shifted-geomean summary table")
    table.add_argument("--in", dest="in_dir", required=True)
    table.set_defaults(fn=cmd_table)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's options become defaults, so explicit flags still win
            args = build_parser(_read_config_file(args.config)).parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
