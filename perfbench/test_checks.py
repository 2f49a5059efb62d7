"""Tests of the benchmark's output checks and tracer.

    python3 -m pytest -q perfbench
"""

import csv
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import dcfw.bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TOL = 1e-6


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    dcfw.bench.run_suite(
        "quadratics", [10], [0, 1], ["DCA-BPCG-ES", "DCA-BPCG"],
        out_dir=out, dca_gap_tol=TOL,
    )  # fmt: skip
    return out


def rewrite_trace(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def check_one(out, variant, edit):
    """Failures after applying edit to the trace of one run of variant."""
    row = next(r for r in checks.read_results(out) if r["variant"] == variant)
    rewrite_trace(checks.trace_path(out, row), edit)
    _, _, failures = checks.check_suite(out, TOL, 4)
    return failures


def test_unmodified_suite_passes(suite_dir):
    summary, runs, failures = checks.check_suite(suite_dir, TOL, 4)
    assert failures == []
    assert summary["runs"] == len(runs) == 4
    assert summary["failed_runs"] == 0
    assert summary["lmo_calls"] == sum(r["lmo_calls"] for r in runs) > 0


def doctor_objective(rows):
    rows[-1]["objective"] = repr(float(rows[-2]["objective"]) + 1e-6)


def doctor_bounds(rows):
    rows[0]["dc_gap_ub"] = repr(float(rows[0]["dc_gap_lb"]) - 1e-6)


def doctor_final_ub(rows):
    rows[-1]["dc_gap_ub"] = repr(10 * TOL)


def doctor_lmo_count(rows):
    rows[-1]["lmo_calls_cum"] = str(int(rows[-1]["lmo_calls_cum"]) + 1)


@pytest.mark.parametrize(
    "edit, expected",
    [
        (doctor_objective, "objective rises"),
        (doctor_bounds, "> ub"),
        (doctor_final_ub, "converged with final ub"),
        (doctor_lmo_count, "results lmo_calls"),
    ],
)
def test_doctored_trace_counts_as_failure(suite_dir, tmp_path, edit, expected):
    out = tmp_path / "copy"
    shutil.copytree(suite_dir, out)
    failures = check_one(out, "DCA-BPCG-ES", edit)
    assert len(failures) == 1 and expected in failures[0][1]
    summary, _, _ = checks.check_suite(out, TOL, 4)
    assert summary["failed_runs"] == 1


def test_rising_objective_is_allowed_for_fixed_variants(suite_dir, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(suite_dir, out)
    assert check_one(out, "DCA-BPCG", doctor_objective) == []


def test_missing_trace_and_error_rows_fail():
    row = {"variant": "DCA-FW", "reason": "iteration_cap", "lmo_calls": "3"}
    assert checks.check_run(row, None, TOL) == ["trace file missing or empty"]
    row["reason"] = "error:OracleFailure"
    assert "solver raised" in checks.check_run(row, [], TOL)[0]


def test_tracer_self_times_add_up_and_originals_return():
    original = dcfw.bench.run_suite
    tracer = Tracer()
    tracer.install()
    try:
        results = dcfw.bench.run_suite(
            "hard", [12], [0], ["DCA-BPCG-WS-ES-BT"], dca_gap_tol=TOL
        )
    finally:
        tracer.uninstall()
    assert dcfw.bench.run_suite is original
    suite_s = tracer.inclusive["bench.run_suite"]
    m = tracer.metrics(suite_s, sum(r.wall_seconds for r in results))
    layers = sum(m[f"{layer}.self_s"][0] for layer in LAYERS)
    assert layers == pytest.approx(suite_s, rel=1e-9)
    assert m["lmo.calls"][0] == sum(r.lmo_calls for r in results)
    assert m["dca.linearize_calls"][0] == sum(r.outer_iters for r in results)
    assert m["fw.inner_solves"][0] == m["dca.linearize_calls"][0]
    assert m["dca.boost_calls"][0] > 0 and m["dca.boost_phi_evals"][0] > 0
    assert m["fw.line_search_grad_evals"][0] > 0
