"""One rule for every number and count a caller passes: a value of the wrong
kind raises TypeError, a NaN or a value out of range raises ValueError, and
each message names the parameter."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dcfw import (
    ActiveSet,
    BirkhoffPolytope,
    DcaConfig,
    KSparsePolytope,
    ProbabilitySimplex,
    Secant,
    bpcg,
    gen_hard_dc,
    gen_quadratic_dc,
    load_results,
    performance_profile,
    run_suite,
    shifted_geomean,
    vanilla_fw,
)
from dcfw._checks import integer, real
from dcfw.bench import RESULT_FIELDS, BenchResult

from helpers import make_objective


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_an_integer_comes_back_as_an_int(self, value):
        out = integer("k", value, 1)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, np.float64(3), "3", None, 3j])
    def test_anything_else_is_the_wrong_kind(self, value):
        with pytest.raises(TypeError, match=f"^k must be an integer, got {re.escape(repr(value))}$"):
            integer("k", value, 1)

    def test_the_least_value_passes_and_one_below_does_not(self):
        assert integer("seed", 0, 0) == 0
        with pytest.raises(ValueError, match="^need seed >= 0, got -1$"):
            integer("seed", np.int64(-1), 0)


class TestReal:
    @pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.float32(0.25), Fraction(1, 4)])
    def test_a_real_number_comes_back_as_a_float(self, value):
        out = real("tau", value)
        assert out == 0.25 and type(out) is float

    def test_an_integer_is_a_real_number(self):
        assert real("shift", 2) == 2.0 and real("shift", np.int64(-2)) == -2.0

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5", None, 1j, np.array([0.5])])
    def test_anything_else_is_the_wrong_kind(self, value):
        with pytest.raises(TypeError, match="^tau must be a real number, got "):
            real("tau", value)

    @pytest.mark.parametrize("keywords, accepted, refused, need", [
        ({}, [-math.inf, -1.0, 0.0, math.inf], [], "a number, not NaN"),
        ({"positive": True}, [5e-324, math.inf], [0.0, -0.0, -1.0], "positive"),
        ({"nonnegative": True}, [0.0, -0.0, math.inf], [-5e-324, -math.inf], "at least 0"),
        ({"finite": True}, [-1e308, 0.0, 1e308], [math.inf, -math.inf], "finite"),
        (
            {"positive": True, "finite": True}, [5e-324, 1e308], [0.0, math.inf],
            "positive and finite",
        ),
        (
            {"nonnegative": True, "finite": True}, [0.0, 1e308], [-1.0, math.inf],
            "at least 0 and finite",
        ),
    ])
    def test_each_range(self, keywords, accepted, refused, need):
        for value in accepted:
            assert real("x", value, **keywords) == value
        for value in [*refused, math.nan, np.float64(math.nan)]:
            with pytest.raises(ValueError, match=f"^x must be {need}, got "):
                real("x", value, **keywords)


def _fw(solver, **kwargs):
    c = np.array([2.0, -1.0, 0.5])
    objective = make_objective(lambda x: float(c @ x), lambda x: c)
    lmo = ProbabilitySimplex(3)
    start = np.eye(3)[0]
    if solver is bpcg:
        start = ActiveSet.from_vertex(start)
    return solver(objective, lmo, start, Secant(), **kwargs)


# two variants on one instance, both solved
_RESULTS = [
    BenchResult("p1", variant, 3, 0, True, 1, 0.5, lmo, -1.0, "converged")
    for variant, lmo in (("A", 10), ("B", 20))
]


def _suite(**kwargs):
    args = dict(suite="quadratics", sizes=[3], seeds=[0], variants=["DCA-FW"])
    return run_suite(**{**args, **kwargs})


# (entry point, parameter, call passing value as that parameter, the kind of
# number it takes, a value below its range or None where it has no range,
# whether None is a setting of it)
PARAMETERS = [
    ("DcaConfig", "max_outer_iters", lambda v: DcaConfig(max_outer_iters=v), int, 0, False),
    ("DcaConfig", "max_inner_iters", lambda v: DcaConfig(max_inner_iters=v), int, -1, False),
    ("DcaConfig", "dca_gap_tol", lambda v: DcaConfig(dca_gap_tol=v), float, 0.0, False),
    (
        "DcaConfig", "time_limit_seconds",
        lambda v: DcaConfig(time_limit_seconds=v), float, -1.0, True,
    ),
    ("vanilla_fw", "max_iters", lambda v: _fw(vanilla_fw, max_iters=v), int, 0, False),
    ("bpcg", "max_iters", lambda v: _fw(bpcg, max_iters=v), int, 0, False),
    ("vanilla_fw", "fw_gap_tol", lambda v: _fw(vanilla_fw, fw_gap_tol=v), float, None, False),
    ("bpcg", "fw_gap_tol", lambda v: _fw(bpcg, fw_gap_tol=v), float, None, False),
    ("vanilla_fw", "descent_from", lambda v: _fw(vanilla_fw, descent_from=v), float, None, True),
    ("bpcg", "descent_from", lambda v: _fw(bpcg, descent_from=v), float, None, True),
    ("vanilla_fw", "deadline", lambda v: _fw(vanilla_fw, deadline=v), float, None, True),
    ("bpcg", "deadline", lambda v: _fw(bpcg, deadline=v), float, None, True),
    ("ProbabilitySimplex", "dimension", lambda v: ProbabilitySimplex(v), int, 0, False),
    ("KSparsePolytope", "dimension", lambda v: KSparsePolytope(v, 1.0, 1), int, 0, False),
    ("KSparsePolytope", "k", lambda v: KSparsePolytope(5, 1.0, v), int, 0, False),
    ("KSparsePolytope", "tau", lambda v: KSparsePolytope(5, v, 2), float, 0.0, False),
    ("BirkhoffPolytope", "n", lambda v: BirkhoffPolytope(v), int, 0, False),
    ("gen_quadratic_dc", "n", lambda v: gen_quadratic_dc(v, 0), int, 0, False),
    ("gen_quadratic_dc", "seed", lambda v: gen_quadratic_dc(3, v), int, -1, False),
    ("gen_hard_dc", "n", lambda v: gen_hard_dc(v, 0), int, 9, False),
    ("gen_hard_dc", "seed", lambda v: gen_hard_dc(10, v), int, -1, False),
    ("run_suite", "n", lambda v: _suite(sizes=[3, v]), int, 0, False),
    ("run_suite", "seed", lambda v: _suite(seeds=[0, v]), int, -1, False),
    ("run_suite", "outer_cap", lambda v: _suite(outer_cap=v), int, 0, True),
    ("run_suite", "inner_cap", lambda v: _suite(inner_cap=v), int, 0, True),
    ("run_suite", "dca_gap_tol", lambda v: _suite(dca_gap_tol=v), float, -1e-6, False),
    ("run_suite", "time_limit", lambda v: _suite(time_limit=v), float, 0.0, True),
    ("shifted_geomean", "shift", lambda v: shifted_geomean([1.0, 2.0], v), float, math.inf, False),
    (
        "performance_profile", "thetas",
        lambda v: performance_profile(_RESULTS, "lmo", thetas=[v, 2.0]), float, None, False,
    ),
    ("ActiveSet", "weights", lambda v: ActiveSet(np.eye(2), [v, 1.0]), float, 0.0, False),
]


def _table():
    for entry, name, call, kind, below, none_is_setting in PARAMETERS:
        cases = {
            "bool": (True, TypeError), "numpy-bool": (np.True_, TypeError),
            "string": ("3", TypeError), "None": (None, TypeError),
            "float": (2.0, TypeError),
            "nan": (math.nan, TypeError if kind is int else ValueError),
            "below-range": (below, ValueError),
        }
        if kind is float:
            del cases["float"]
        if none_is_setting:
            del cases["None"]
        if below is None:
            del cases["below-range"]
        for case, (value, error) in cases.items():
            yield pytest.param(call, name, value, error, id=f"{entry}-{name}-{case}")


@pytest.mark.parametrize("call, name, value, error", list(_table()))
def test_each_entry_point_refuses_each_mistake_by_its_kind(call, name, value, error):
    with pytest.raises(error, match=rf"\b{name}\b"):
        call(value)


def test_an_infinite_deadline_or_theta_is_a_setting():
    for solver in (vanilla_fw, bpcg):
        assert _fw(solver, deadline=math.inf)[-1].termination == "gap_tol"
    _, curves = performance_profile(_RESULTS, "lmo", thetas=[1.0, math.inf])
    assert curves["B"].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("column, text", [
    (column, text)
    for column in ["n", "seed", "outer_iters", "lmo_calls", "wall_s"]
    for text in ["True", "x", "", "2.5", "nan", "-1"]
    if (column, text) != ("wall_s", "2.5")  # 2.5 seconds are fine
])
def test_load_results_refuses_each_mistake_as_a_malformed_file(tmp_path, column, text):
    # a results.csv holds text, so every field that does not parse to a value
    # in range is one kind of mistake: a ValueError naming the column
    row = dict(
        instance="p1", variant="A", n="5", seed="0", solved="1", outer_iters="3",
        wall_s="0.5", lmo_calls="7", final_obj="-1.0", reason="converged",
    )
    row[column] = text
    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULT_FIELDS) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError, match=rf"line 2: column {column}: "):
        load_results(tmp_path)
