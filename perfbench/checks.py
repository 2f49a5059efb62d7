"""Output checks on the files ``dcfw.bench.run_suite`` writes.

Every run of a suite leaves one row in ``results.csv`` and, unless the solver
raised, one trace CSV.  A run fails its checks when

* its reason is ``error:*``, or its trace file is missing or empty;
* ``lb <= ub`` fails by more than 1e-9 at some outer step;
* an adaptive (``-ES``) variant's objective rises by more than 1e-9 between
  consecutive outer steps;
* it reports ``converged`` while its final ``ub`` exceeds the tolerance;
* the ``lmo_calls`` of ``results.csv`` differs from the trace's last
  ``lmo_calls_cum``.

The 1e-9 slack is the one the repository's own acceptance checks allow.  It
matters for ``lb <= ub``: ub - lb is the Frank-Wolfe gap <grad, x - v>, which
comes out around -1e-15 when the iterate sits on the LMO's vertex.
"""

import csv
from pathlib import Path

SLACK = 1e-9


def read_results(out_dir):
    with open(Path(out_dir) / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def trace_path(out_dir, row):
    return Path(out_dir) / "traces" / f"{row['instance']}__{row['variant']}.csv"


def read_trace(path):
    """Trace CSV as a list of row dicts, or None when the file is missing."""
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        return None


def check_run(row, trace, tol):
    """Problems found in one run's result row and trace; empty when it passes."""
    if row["reason"].startswith("error:"):
        return [f"solver raised ({row['reason']})"]
    if not trace:
        return ["trace file missing or empty"]
    problems = []
    lbs = [float(r["dc_gap_lb"]) for r in trace]
    ubs = [float(r["dc_gap_ub"]) for r in trace]
    objs = [float(r["objective"]) for r in trace]
    bad = [t for t, (lb, ub) in enumerate(zip(lbs, ubs)) if not lb <= ub + SLACK]
    if bad:
        problems.append(f"lb {lbs[bad[0]]!r} > ub {ubs[bad[0]]!r} at step {bad[0]}")
    if "-ES" in row["variant"]:
        rises = [t for t in range(1, len(objs)) if objs[t] > objs[t - 1] + SLACK]
        if rises:
            problems.append(f"objective rises at step {rises[0]}")
    if row["reason"] == "converged" and not ubs[-1] <= tol:
        problems.append(f"converged with final ub {ubs[-1]!r} > tol {tol!r}")
    if int(row["lmo_calls"]) != int(trace[-1]["lmo_calls_cum"]):
        problems.append(
            f"results lmo_calls {row['lmo_calls']} != trace {trace[-1]['lmo_calls_cum']}"
        )
    return problems


def check_suite(out_dir, tol, expected_runs):
    """Check every run under out_dir.

    Returns (summary, runs, failures): summary holds the exact counts of the
    suite (runs, converged runs, LMO calls, inner and outer iterations, runs
    that failed a check), runs one dict per result row, and failures the
    (run id, problem) pairs found.
    """
    rows = read_results(out_dir)
    failures = []
    if len(rows) != expected_runs:
        failures.append(("suite", f"{len(rows)} result rows, expected {expected_runs}"))
    runs = []
    for row in rows:
        trace = read_trace(trace_path(out_dir, row))
        run_id = f"{row['instance']}/{row['variant']}"
        failures.extend((run_id, p) for p in check_run(row, trace, tol))
        runs.append(
            {
                "n": int(row["n"]),
                "variant": row["variant"],
                "wall_s": float(row["wall_s"]),
                "solved": row["solved"] == "1",
                "lmo_calls": int(row["lmo_calls"]),
                "outer_iters": int(row["outer_iters"]),
                "inner_iters": sum(int(r["inner_iters"]) for r in trace or ()),
            }
        )
    summary = {
        "runs": len(rows),
        "solved": sum(r["solved"] for r in runs),
        "lmo_calls": sum(r["lmo_calls"] for r in runs),
        "inner_iters": sum(r["inner_iters"] for r in runs),
        "outer_iters": sum(r["outer_iters"] for r in runs),
        "failed_runs": len({run_id for run_id, _ in failures if run_id != "suite"}),
    }
    return summary, runs, failures
