"""Benchmark harness: run solver variants over instance suites, persist
per-run traces, and aggregate shifted geometric means and performance
profiles.
"""

import csv
import time
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from ._checks import integer, real
from .dca import DcaConfig, OuterStep, RunRecord, dca_solve
from .problems import HARD_K, QUADRATIC_MIN_N, gen_hard_dc, gen_quadratic_dc
from .problems import initial_point, qap_dc_oracles
from .qaplib import parse_qaplib, scan_directory

TRACE_FIELDS = ["t", *OuterStep._fields]


def _parse_flag(text):
    # run_suite writes a bool as 0 or 1
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _count(column, least):
    """Parser of a column that holds an integer of at least least."""
    return lambda text: integer(column, int(text), least)


def _parse_seconds(text):
    return real("wall_s", float(text), nonnegative=True, finite=True)


# results.csv column -> (BenchResult field, parser of the written text)
_RESULT_COLUMNS = {
    "instance": ("instance", str),
    "variant": ("variant", str),
    "n": ("n", _count("n", 1)),  # every family needs a coordinate
    "seed": ("seed", _count("seed", 0)),
    "solved": ("solved", _parse_flag),
    "outer_iters": ("outer_iters", _count("outer_iters", 0)),
    "wall_s": ("wall_seconds", _parse_seconds),
    "lmo_calls": ("lmo_calls", _count("lmo_calls", 0)),
    "final_obj": ("final_objective", float),
    "reason": ("reason", str),
}
RESULT_FIELDS = list(_RESULT_COLUMNS)

# metric name -> the BenchResult field it reads
METRICS = {"iters": "outer_iters", "time": "wall_seconds", "lmo": "lmo_calls"}


def default_caps(suite, n):
    """(outer, inner) iteration caps: larger instances get the larger budget,
    smaller ones DcaConfig's defaults."""
    if suite == "qap" or n >= 100:
        return 500, 50000
    return DcaConfig.max_outer_iters, DcaConfig.max_inner_iters


@dataclass
class BenchResult:
    """Summary row of a single (instance, variant) run."""

    instance: str
    variant: str
    n: int
    seed: int
    solved: bool
    outer_iters: int
    wall_seconds: float
    lmo_calls: int
    final_objective: float
    reason: str

    @property
    def raised(self):
        """True for a run that raised, which has no final iterate."""
        return self.reason.startswith("error:")


def _iter_instances(gen, tag, sizes, seeds, qaplib_dir, log):
    # run_suite has checked the arguments; gen None is the qap suite
    if gen is not None:
        for n, seed in product(sizes, seeds):
            # no local holds the instance while the next one is built
            yield f"{tag}-n{n}-s{seed}", n, seed, gen(n, seed).problem
        return
    limit = max(sizes)
    report = scan_directory(qaplib_dir)
    if log is not None:
        for name, message in report.invalid:
            log(f"skipping {name}.dat: {message}")
    for name in report.valid:
        inst = parse_qaplib((Path(qaplib_dir) / f"{name}.dat").read_bytes(), name)
        if inst.n <= limit:
            yield name, inst.n, 0, (lambda inst=inst: qap_dc_oracles(inst))
        del inst  # not alive while the next file is parsed


def _error_reason(err):
    """error:<ExceptionName>, then ': <message>' on one line if there is one."""
    message = " ".join(str(err).split())
    reason = f"error:{type(err).__name__}"
    return f"{reason}: {message}" if message else reason


def _write_trace(path, record):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        # csv writes a float as its repr, which reads back to the same bits
        writer.writerows((t, *step) for t, step in enumerate(record.steps))


def _append_result(path, result):
    new = not Path(path).exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(RESULT_FIELDS)
        values = [getattr(result, name) for name, _ in _RESULT_COLUMNS.values()]
        writer.writerow([int(v) if isinstance(v, bool) else v for v in values])


def run_suite(
    suite,
    sizes,
    seeds,
    variants,
    *,
    qaplib_dir=None,
    out_dir=None,
    dca_gap_tol=DcaConfig.dca_gap_tol,
    outer_cap=None,
    inner_cap=None,
    time_limit=None,
    log=None,
):
    """Run every requested variant on every instance of a suite.

    suite is "quadratics", "hard", or "qap"; generated suites take the cross
    product of sizes and seeds, the qap suite reads *.dat files from
    qaplib_dir keeping instances with n <= max(sizes).  Every run's
    DcaConfig takes dca_gap_tol.  Results and per-run traces are
    written under out_dir as each run finishes; a run that raises is recorded
    as unsolved, with a trace of the outer steps it completed if any, and the
    suite continues.  One instance is alive at a time.  An
    out_dir that already holds a results.csv or a CSV under traces/, or a
    repeated size, seed or variant, is refused, since each would record one
    (instance, variant) pair twice or leave a trace that results.csv does
    not list, and so is a sizes, seeds or variants that is a str or bytes
    or has no len() (TypeError), an empty list, a cap below 1, a size a
    generated suite's family is not defined for or a qap size below 1, a
    negative seed, a cap, size or seed that is not an integer (TypeError; a
    bool included), a log that is neither None nor callable (TypeError), or
    a qap suite with seeds other than [0], all before any instance is built,
    or a qap suite with no instance to run, before any output.  Each file
    the qap suite cannot parse is passed to log with the parser's message.
    Returns the list of BenchResult rows.
    """
    # every argument is refused here, before anything is built or written,
    # but a qap suite with no instance to run, which needs its files parsed
    if time_limit is not None:
        real("time_limit", time_limit, positive=True)
    if log is not None and not callable(log):
        raise TypeError(f"log must be callable or None, got {log!r}")
    for name, values in (("sizes", sizes), ("seeds", seeds), ("variants", variants)):
        if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
            raise TypeError(f"{name} must be a list, got {values!r}")
        if not len(values):
            raise ValueError(f"{name} is empty; the suite would run nothing")
        if len(set(values)) != len(values):
            raise ValueError(f"{name} {list(values)} repeat an entry")
    common = dict(dca_gap_tol=dca_gap_tol, time_limit_seconds=time_limit)
    configs = {v: DcaConfig(v, **common) for v in variants}
    if suite == "quadratics":
        gen, tag, least = gen_quadratic_dc, "quad", QUADRATIC_MIN_N
    elif suite == "hard":
        gen, tag, least = gen_hard_dc, "hard", HARD_K
    elif suite == "qap":
        gen, tag, least = None, None, 1  # the files name the instances
    else:
        raise ValueError(f"unknown suite {suite!r}")
    for seed in seeds:
        integer("seed", seed, 0)
    for n in sizes:
        integer("n", n, least)
    for name, cap in (("outer_cap", outer_cap), ("inner_cap", inner_cap)):
        if cap is not None:
            integer(name, cap, 1)  # DcaConfig's rule, before any output
    if gen is None and list(seeds) != [0]:  # each file runs once, as seed 0
        raise ValueError(f"the qap suite takes seeds [0] only, got {list(seeds)}")
    if gen is None and qaplib_dir is None:
        raise ValueError("the qap suite needs a directory of instance files")
    trace_dir = results_path = None
    if out_dir is not None:
        results_path = Path(out_dir) / "results.csv"
        if results_path.exists():
            raise ValueError(f"{results_path} already exists; choose a new output")
        trace_dir = Path(out_dir) / "traces"
        if any(trace_dir.glob("*.csv")):
            raise ValueError(f"{trace_dir} already holds traces; choose a new output")
    instances = _iter_instances(gen, tag, sizes, seeds, qaplib_dir, log)
    entry = next(instances, None)
    if entry is None:
        raise ValueError(f"no QAP instance to run: no file parses with n <= {max(sizes)}")
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)

    results = []
    # one instance is alive at a time: each name that holds one is dropped
    # before the generator builds the next
    while entry is not None:
        instance_id, n, seed, make_problem = entry
        caps = default_caps(suite, n)
        outer = outer_cap if outer_cap is not None else caps[0]
        inner = inner_cap if inner_cap is not None else caps[1]
        for variant in variants:
            config = replace(
                configs[variant], max_outer_iters=outer, max_inner_iters=inner
            )
            problem = make_problem()  # fresh oracles and LMO counter per run
            x0 = initial_point(problem.lmo)
            started = time.perf_counter()
            try:
                _, record = dca_solve(problem, x0, config)
                reason = record.termination
            except Exception as err:  # keep the suite going
                # dca_solve attaches the steps it completed; from elsewhere,
                # an empty record: no steps, a NaN objective
                record = getattr(err, "record", RunRecord())
                reason = _error_reason(err)
            result = BenchResult(
                instance=instance_id,
                variant=variant,
                n=n,
                seed=seed,
                solved=reason == "converged",
                outer_iters=record.outer_iters,
                wall_seconds=time.perf_counter() - started,
                lmo_calls=problem.lmo.call_count,
                final_objective=(
                    record.steps[-1].objective if record.steps else record.phi0
                ),
                reason=reason,
            )
            if trace_dir is not None and (record.termination or record.steps):
                _write_trace(trace_dir / f"{instance_id}__{variant}.csv", record)
            if results_path is not None:
                _append_result(results_path, result)
            if log is not None:
                log(
                    f"{instance_id:>18} {variant:<18} solved={int(result.solved)} "
                    f"outer={result.outer_iters:<4} lmo={result.lmo_calls:<8} "
                    f"wall={result.wall_seconds:.2f}s {result.reason}"
                )
            results.append(result)
        del entry, make_problem, problem
        entry = next(instances, None)
    return results


def load_results(in_dir):
    """Read results.csv written by run_suite back into BenchResult rows.  A
    header without one of RESULT_FIELDS, a row with a missing or an extra
    field, a field that does not parse, an n below 1, a negative seed,
    outer_iters or lmo_calls, a wall_s that is negative or not finite, and
    a repeated (instance, variant) pair raise ValueError."""
    path = Path(in_dir) / "results.csv"
    if not path.exists():
        raise FileNotFoundError(f"no results.csv under {in_dir}")
    rows = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in RESULT_FIELDS if col not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path} line 1: the header lacks the columns {missing}")
        for rec in reader:
            if None in rec or None in rec.values():  # extra or missing fields
                count = len(reader.fieldnames)
                raise ValueError(f"{path} line {reader.line_num}: not {count} fields")
            key = (rec["instance"], rec["variant"])
            if key in seen:
                raise ValueError(f"{path} repeats the row for {key}")
            seen.add(key)
            fields = {}
            for col, (f, parse) in _RESULT_COLUMNS.items():
                try:
                    fields[f] = parse(rec[col])
                except ValueError as err:
                    where = f"{path} line {reader.line_num}: column {col}"
                    raise ValueError(f"{where}: {err}") from err
            rows.append(BenchResult(**fields))
    return rows


def shifted_geomean(values, shift=1.0):
    """exp(mean(log(v + shift))) - shift over the given values, which must
    be finite and exceed -shift; shift must be a finite real number."""
    shift = real("shift", shift, finite=True)
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        raise ValueError("shifted_geomean of an empty sequence")
    bad = v[~np.isfinite(v)]
    if bad.size:
        raise ValueError(f"values must be finite, got {bad.tolist()}")
    if np.any(v + shift <= 0):
        raise ValueError(f"values must exceed -shift = {-shift}")
    return float(np.exp(np.mean(np.log(v + shift))) - shift)


def performance_profile(results, metric, *, modified=False, thetas=None):
    """Performance profile curves over a set of benchmark results.

    For each instance, every variant's metric is divided by the best metric
    among variants that solved it; unsolved runs get an infinite ratio unless
    modified is set, in which case every run that did not raise counts with
    its recorded metric, as solved at its final iteration.  Returns (thetas,
    curves) where curves maps each variant to the fraction of instances
    with ratio <= theta, sampled on a log-spaced grid unless an explicit
    theta grid is given, each theta a real number that is not NaN.  metric
    is a key of METRICS.  A modified that is not a bool, or a thetas that is
    a str or bytes or has no len(), raises TypeError.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, choose from {list(METRICS)}")
    if not isinstance(modified, (bool, np.bool_)):
        raise TypeError(f"modified must be a bool, got {modified!r}")
    if thetas is not None:
        if isinstance(thetas, (str, bytes)) or not hasattr(thetas, "__len__"):
            raise TypeError(f"thetas must be a list, got {thetas!r}")
        thetas = np.array([real("thetas", t) for t in thetas])
    name = METRICS[metric]
    variants = list(dict.fromkeys(r.variant for r in results))
    instances = list(dict.fromkeys(r.instance for r in results))
    if not variants or not instances:
        raise ValueError("performance_profile needs at least one result")
    by_key = {(r.instance, r.variant): r for r in results}

    ratios = {s: [] for s in variants}
    for p in instances:
        vals = {}
        for s in variants:
            r = by_key.get((p, s))
            if r is None:
                continue
            if r.solved or (modified and not r.raised):
                vals[s] = float(getattr(r, name))
        best = max(min(vals.values(), default=np.inf), 1e-300)
        for s in variants:
            ratios[s].append(vals[s] / best if s in vals else np.inf)

    if thetas is None:
        finite = [r for rs in ratios.values() for r in rs if np.isfinite(r)]
        top = max(finite) if finite else 1.0
        thetas = np.geomspace(1.0, max(top * 1.05, 1.0 + 1e-9), 64)
        thetas[0] = 1.0
    curves = {}
    for s in variants:
        rs = np.asarray(ratios[s])
        curves[s] = np.array([np.mean(rs <= t) for t in thetas])
    return thetas, curves


def write_profile(path, thetas, curves):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", *curves.keys()])
        for i, t in enumerate(thetas):
            writer.writerow([repr(float(t)), *(repr(float(curves[s][i])) for s in curves)])


def summarize_table(results):
    """Shifted-geomean summary rows per (n, variant), with shift 1.

    Every run that did not raise counts, solved or not, so capped runs enter
    at their caps; count is their number, and none raises ValueError.  The
    per-size winner of each metric is flagged.  Returns a list of dicts with
    keys n, count, variant, iters, time, lmo, best_iters, best_time, best_lmo.
    """
    results = [r for r in results if not r.raised]
    if not results:
        raise ValueError("no result rows to summarize; runs that raised are left out")
    variants = list(dict.fromkeys(r.variant for r in results))
    rows = []
    for n in sorted({r.n for r in results}):
        group = [r for r in results if r.n == n]
        per_variant = []
        for s in variants:
            runs = [r for r in group if r.variant == s]
            if not runs:
                continue
            row = {"n": n, "count": len(runs), "variant": s}
            for metric, name in METRICS.items():
                row[metric] = shifted_geomean([getattr(r, name) for r in runs])
            per_variant.append(row)
        for metric in METRICS:
            best = min(row[metric] for row in per_variant)
            for row in per_variant:
                row[f"best_{metric}"] = row[metric] == best
        rows.extend(per_variant)
    return rows


def format_table(rows):
    """Plain-text rendering of summarize_table rows; * flags the winner."""
    header = f"{'n':>6} {'runs':>4}  {'variant':<18} {'iters':>12} {'time_s':>12} {'lmo':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for metric, width in (("iters", 12), ("time", 12), ("lmo", 14)):
            mark = "*" if row[f"best_{metric}"] else " "
            cells.append(f"{row[metric]:>{width - 1}.2f}{mark}")
        lines.append(
            f"{row['n']:>6} {row['count']:>4}  {row['variant']:<18} "
            + " ".join(cells)
        )
    return "\n".join(lines)

