"""dcfw benchmark: seeded workloads through the public harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload (see workloads.py) is one
``dcfw.bench.run_suite`` call, the path ``bench run`` takes.  The run sets
up five times in fresh interpreters (import, input generation, QAP file
writing) and reports the median as ``setup_s``, warms up, then repeats the
suite until ``--seconds`` is used up, checking every run's ``results.csv``
and trace CSV (see checks.py) and that the exact counts repeat.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
repetitions.  Those in BENCHMARK.json measure time in steps of a reference
loop (see REF_LOOP_STEPS); the raw times and the exact counts are printed
beside them.  With ``--trace 1`` it alternates untraced and traced
repetitions, reports the per-layer metrics of the median traced repetition
(see tracer.py), the tracing overhead against the untraced ones, and prints
the untraced µs per inner iteration split by size and variant.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when an output check
fails, 2 when the library cannot be found.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: at these sizes OpenBLAS threads only compete with the
# solver's own thread.  Set before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60
# tiny caps for the untimed warm-up call
WARMUP_CAPS = dict(outer_cap=2, inner_cap=5)

# The CPU speed of a shared machine drifts: on a 2-core VM, identical work
# took up to twice as long a minute later.  A fixed pure-Python loop is timed
# after every untraced run, through run_suite's per-run log hook, and the
# *_cost metrics divide by its median step time in the same repetition,
# which cancels part of that drift.
REF_LOOP_STEPS = 20000

# the end-to-end metrics of BENCHMARK.json; the others are printed only,
# since their values depend on the instances the seed draws, can be 0, or
# (the raw times) drift with the machine's speed
E2E_GATED = ("inner_iter_cost", "suite_cost_per_lmo_call", "setup_s", "peak_rss_mb")
# counts that must repeat exactly in every repetition
EXACT_COUNTS = ("runs", "solved", "lmo_calls", "inner_iters", "outer_iters")


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload, seed, input_dir):
    """Everything before the first solve: generate the inputs."""
    import workloads

    return workloads.prepare(workloads.WORKLOADS[workload], seed, Path(input_dir))


def time_setups(args, work):
    """Median wall time of SETUP_REPEATS fresh set-ups in child interpreters."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0", "--setup-only", str(work / f"setup{i}"),
        ]  # fmt: skip
        started = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def manifest(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def reference_loop_seconds():
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_STEPS):
        total += i * i
    return time.perf_counter() - started


class Repetitions:
    """Runs the suite into fresh output directories and checks each result."""

    def __init__(self, kwargs, expected_runs, work):
        self.kwargs = kwargs
        self.expected_runs = expected_runs
        self.work = work
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.summary = None

    def run(self, tracer=None):
        import dcfw.bench

        out = self.work / f"rep{self.count}"
        self.count += 1
        ref_times = []
        if tracer is None:
            log = lambda _line: ref_times.append(reference_loop_seconds())  # noqa: E731
        else:
            log = None
            tracer.install()
        try:
            started = time.perf_counter()
            results = dcfw.bench.run_suite(**self.kwargs, out_dir=out, log=log)
            suite_s = time.perf_counter() - started - sum(ref_times)
        finally:
            if tracer is not None:
                tracer.uninstall()
        summary, runs, failures = checks.check_suite(
            out, self.kwargs["dca_gap_tol"], self.expected_runs
        )
        shutil.rmtree(out)
        self.attempted += self.expected_runs
        missing = max(self.expected_runs - summary["runs"], 0)
        self.failed += summary["failed_runs"] + missing
        self.problems.extend(failures[:5])
        exact = {k: summary[k] for k in EXACT_COUNTS}
        if self.summary is None:
            self.summary = exact
        elif exact != self.summary:
            self.failed += self.expected_runs
            self.problems.append(("suite", f"counts {exact} differ from {self.summary}"))
        solve_s = sum(r.wall_seconds for r in results)
        by_group = us_per_inner_iter_by_group(runs)
        rep = {
            "suite_s": suite_s,
            "solve_s": solve_s,
            "us_per_inner_iter": solve_s * 1e6 / max(summary["inner_iters"], 1),
            "suite_us_per_lmo_call": suite_s * 1e6 / max(summary["lmo_calls"], 1),
            "by_group": by_group,
        }
        if ref_times:
            step_us = statistics.median(ref_times) * 1e6 / REF_LOOP_STEPS
            rep["ref_step_us"] = step_us
            # the geometric mean over (n, variant) groups does not depend on
            # how the seed's instances split the iterations between groups
            rep["inner_iter_cost"] = statistics.geometric_mean(by_group.values()) / step_us
            rep["suite_cost_per_lmo_call"] = rep["suite_us_per_lmo_call"] / step_us
        return rep


def us_per_inner_iter_by_group(runs):
    """µs per inner iteration of each (n, variant) group of one suite call."""
    acc = {}
    for run in runs:
        key = (run["n"], run["variant"])
        wall, iters = acc.get(key, (0.0, 0))
        acc[key] = (wall + run["wall_s"], iters + run["inner_iters"])
    return {key: wall * 1e6 / max(iters, 1) for key, (wall, iters) in sorted(acc.items())}


def split_by_size_and_variant(reps):
    """Median over repetitions of µs per inner iteration per (n, variant)."""
    return {
        key: statistics.median(rep["by_group"][key] for rep in reps)
        for key in reps[0]["by_group"]
    }


def measure(args, runner):
    """Repeat the suite until the time budget is spent; returns the
    untraced and traced repetitions."""
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        untraced.append(runner.run())
        if args.trace:
            tracer = Tracer()
            rep = runner.run(tracer)
            rep["layers"] = tracer.metrics(rep["suite_s"], rep["solve_s"])
            traced.append(rep)
        now = time.perf_counter()
        if now - started + (now - rep_started) > args.seconds:
            break
    return untraced, traced


def main(argv=None):
    if not (SRC / "dcfw").is_dir():
        print(f"error: the dcfw sources are not at {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        return 0

    import workloads

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_s = time_setups(args, work)
        kwargs = setup(args.workload, args.seed, work / "inputs")
        import dcfw.bench

        dcfw.bench.run_suite(**dict(kwargs, **WARMUP_CAPS), out_dir=work / "warmup")
        runner = Repetitions(kwargs, workloads.WORKLOADS[args.workload].runs, work)
        untraced, traced = measure(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    exact = runner.summary
    suite_times = [r["suite_s"] for r in untraced]
    suite_s = statistics.median(suite_times)
    e2e = {
        "suite_s": (suite_s, "s"),
        "us_per_inner_iter": (
            statistics.median(r["us_per_inner_iter"] for r in untraced), "us"
        ),
        "suite_us_per_lmo_call": (
            statistics.median(r["suite_us_per_lmo_call"] for r in untraced), "us"
        ),
        "ref_step_us": (statistics.median(r["ref_step_us"] for r in untraced), "us"),
        "inner_iter_cost": (
            statistics.median(r["inner_iter_cost"] for r in untraced), "loop_steps"
        ),
        "suite_cost_per_lmo_call": (
            statistics.median(r["suite_cost_per_lmo_call"] for r in untraced), "loop_steps"
        ),
        "lmo_calls": (exact["lmo_calls"], "count"),
        "inner_iters": (exact["inner_iters"], "count"),
        "outer_iters": (exact["outer_iters"], "count"),
        "solved_frac": (exact["solved"] / exact["runs"], "ratio"),
        "failed_frac": (runner.failed / runner.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "manifest": manifest(args),
        "end_to_end": e2e,
        "suite_s_repetitions": suite_times,
    }

    print(
        f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced repetitions "
        f"of {exact['runs']} runs; untraced suite_s from {min(suite_times):.3f} "
        f"to {max(suite_times):.3f} s"
    )
    for problem in runner.problems:
        print(f"CHECK FAILED {problem[0]}: {problem[1]}")
    print("end-to-end metrics (medians over untraced repetitions):")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")

    if args.trace:
        layers = sorted(traced, key=lambda r: r["suite_s"])[len(traced) // 2]["layers"]
        traced_s = statistics.median(r["suite_s"] for r in traced)
        layers["trace_overhead_frac"] = (traced_s / suite_s - 1.0, "ratio")
        split = split_by_size_and_variant(untraced)
        report["per_layer"] = layers
        report["us_per_inner_iter_by_n_variant"] = {
            f"n={n} {variant}": value for (n, variant), value in split.items()
        }
        print("per-layer metrics (median traced repetition):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
        shares = {layer: layers[f"{layer}.self_s"][0] for layer in LAYERS}
        shares["unattributed"] = layers["unattributed_s"][0]
        print("self-time shares of traced suite_s:")
        for layer, seconds in shares.items():
            print(f"  {layer:<12} {100 * seconds / layers['traced_suite_s'][0]:6.1f} %")
        print("untraced us per inner iteration by (n, variant):")
        for (n, variant), value in split.items():
            print(f"  n={n:<5} {variant:<20} {value:10.2f} us")
        metrics = layers
    else:
        metrics = {name: e2e[name] for name in E2E_GATED}
    print("report: " + json.dumps(report, sort_keys=True))

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
