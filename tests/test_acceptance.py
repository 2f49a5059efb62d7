"""Acceptance checks: one test per contract-level guarantee.

Each test prints a single PASS line with the measured quantities so a log
scrape shows exactly which guarantees were exercised.  Module-scoped fixtures
share the expensive solver runs between related criteria.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from dcfw import (
    ActiveSet,
    BirkhoffPolytope,
    DcaConfig,
    ProbabilitySimplex,
    QapInstance,
    QaplibParseError,
    Secant,
    bpcg,
    dca_solve,
    gen_hard_dc,
    gen_quadratic_dc,
    initial_point,
    parse_qaplib,
    performance_profile,
    qap_dc_oracles,
    run_suite,
    scan_directory,
    shifted_geomean,
    serialize_qaplib,
    vanilla_fw,
)
from dcfw.fw import Agnostic, secant_line_search
from helpers import (
    Counter,
    brute_force_assignment,
    central_diff_grad,
    make_objective,
    perm_cost,
    rand_birkhoff,
    rand_ksparse,
    rand_simplex,
    random_pd_matrix,
    rel_err,
    simplex_qp_value,
)

FIXED_EPS = 5e-7


def _solve_grid(variant, sizes, seeds, **overrides):
    config = DcaConfig(variant, **overrides)
    runs = []
    for n, seed in product(sizes, seeds):
        problem = gen_quadratic_dc(n, seed).problem()
        _, record = dca_solve(problem, initial_point(problem.lmo), config)
        runs.append((variant, n, seed, record))
    return runs


@pytest.fixture(scope="module")
def adaptive_runs():
    """Adaptive-stop quadratic suite: n in {10,20,30}, seeds 0..4."""
    start = time.perf_counter()
    runs = []
    for variant in ("DCA-BPCG-ES", "DCA-BPCG-WS-ES"):
        runs += _solve_grid(variant, (10, 20, 30), range(5))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def fixed_runs():
    """Fixed-epsilon runs at eps = 5e-7, including a capped vanilla-FW run."""
    runs = []
    for variant in ("DCA-BPCG", "DCA-BPCG-WS"):
        runs += _solve_grid(variant, (10, 20), range(3), fw_gap_tol=FIXED_EPS)
    runs += _solve_grid(
        "DCA-FW", (10,), (0,), fw_gap_tol=FIXED_EPS,
        max_outer_iters=10, max_inner_iters=300,
    )
    return runs


@pytest.fixture(scope="module")
def desk_scale(tmp_path_factory):
    """n=100 quadratics, 5 seeds, warm-started adaptive BPCG vs plain FW."""
    out = tmp_path_factory.mktemp("desk_scale")
    start = time.perf_counter()
    results = run_suite(
        "quadratics",
        [100],
        [0, 1, 2, 3, 4],
        ["DCA-BPCG-WS-ES", "DCA-FW"],
        out_dir=out,
        dca_gap_tol=1e-6,
        outer_cap=200,
        inner_cap=10000,
    )
    return results, time.perf_counter() - start


def test_criterion_01_adaptive_rate_certificate(adaptive_runs):
    runs, wall = adaptive_runs
    assert wall < 60.0
    worst = -math.inf
    for variant, n, seed, record in runs:
        steps = record.outer_iters
        assert steps >= 1
        bound = 2.0 * (record.phi0 - record.objective[-1]) / steps + 1e-9
        slack = min(record.dc_gap_lb) - bound
        worst = max(worst, slack)
        assert min(record.dc_gap_lb) <= bound
    print(
        f"PASS criterion 1: rate certificate on {len(runs)} adaptive runs, "
        f"worst margin {worst:.3e}, {wall:.1f}s"
    )


def test_criterion_02_monotone_descent_adaptive(adaptive_runs):
    runs, _ = adaptive_runs
    checked = 0
    for variant, n, seed, record in runs:
        values = [record.phi0] + list(record.objective)
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9
            checked += 1
    print(f"PASS criterion 2: monotone descent at {checked} outer steps")


def test_criterion_03_fixed_epsilon_slack(fixed_runs):
    checked = 0
    for variant, n, seed, record in fixed_runs:
        prev = record.phi0
        for lb, obj in zip(record.dc_gap_lb, record.objective):
            assert prev - obj >= lb - FIXED_EPS - 1e-9
            prev = obj
            checked += 1
    print(f"PASS criterion 3: fixed-eps progress slack at {checked} steps")


def test_criterion_04_vanilla_fw_rate():
    inst = gen_quadratic_dc(50, 0)
    A, a = inst.A, inst.a
    lipschitz = inst.lipschitz_f()
    h_star, _ = simplex_qp_value(A, a)
    objective = make_objective(
        lambda x: 0.5 * float(x @ A @ x) + float(a @ x),
        lambda x: A @ x + a,
    )
    diameter_sq = 2.0
    start = time.perf_counter()
    trace = []
    x0 = np.full(50, 1.0 / 50)
    vanilla_fw(
        objective, ProbabilitySimplex(50), x0, Agnostic(),
        fw_gap_tol=0.0, max_iters=1000, callback=trace.append,
    )
    wall = time.perf_counter() - start
    assert wall < 5.0
    assert objective.value(x0) - h_star <= 2.0 * lipschitz * diameter_sq / 2.0
    assert len(trace) == 1000
    for info in trace:
        k = info["k"] + 1  # callback reports the iterate after step k
        excess = objective.value(info["x"]) - h_star
        assert excess <= 2.0 * lipschitz * diameter_sq / (k + 2.0)
    print(
        f"PASS criterion 4: agnostic FW rate bound held for k <= 1000 "
        f"(L={lipschitz:.2f}), {wall:.2f}s"
    )


def test_criterion_05_secant_on_quadratics():
    rng = np.random.default_rng(5)
    interior = clamped = ascent = 0
    for _ in range(1000):
        n = 6
        Q = random_pd_matrix(rng, n)
        q = rng.normal(size=n)
        x = rng.normal(size=n)
        d = rng.normal(size=n)
        gamma_max = float(rng.uniform(0.2, 2.0))
        dphi0 = float(d @ (Q @ x + q))
        gamma_star = -dphi0 / float(d @ Q @ d)
        expected = min(max(gamma_star, 0.0), gamma_max)
        value = Counter(lambda y, Q=Q, q=q: 0.5 * float(y @ Q @ y) + float(q @ y))
        grad = Counter(lambda y, Q=Q, q=q: Q @ y + q)
        got, point, g = secant_line_search(value, grad, x, d, gamma_max, dphi0=dphi0)
        assert abs(got - expected) <= 1e-10
        if dphi0 >= 0:
            assert grad.calls == 0 and g is None
            ascent += 1
            continue
        # the gamma_max or the converged exit hands back its probe's gradient
        assert g.tobytes() == grad.fn(point).tobytes()
        if gamma_star >= gamma_max:
            assert grad.calls == 1
            clamped += 1
        else:
            assert grad.calls == 2
            interior += 1
    assert interior >= 300
    print(
        f"PASS criterion 5: secant matched closed form on 1000 cases "
        f"({interior} interior with 2 evals, {clamped} clamped, {ascent} ascent)"
    )


def test_criterion_06_hungarian_equals_brute_force():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    for i in range(200):
        n = 2 + i % 6
        C = rng.normal(size=(n, n))
        X = BirkhoffPolytope(n)(C.ravel()).reshape(n, n)
        assert perm_cost(C, X) == brute_force_assignment(C)
    wall = time.perf_counter() - start
    assert wall < 10.0
    print(f"PASS criterion 6: 200 assignment oracles exact vs n! scan, {wall:.1f}s")


def test_criterion_07_qap_decomposition_identity():
    rng = np.random.default_rng(7)
    checked = 0
    for idx, n in enumerate((3, 5, 7, 9, 10)):
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        problem = qap_dc_oracles(QapInstance(f"rand{idx}", n, A, B))
        for _ in range(20):
            X = rand_birkhoff(rng, n)
            x = X.ravel()
            lhs = problem.f_value(x) - problem.g_value(x)
            rhs = float(np.sum((A.T @ X) * (X @ B)))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            checked += 1
    print(f"PASS criterion 7: f - g = <A'X, XB> on {checked} points")


def test_criterion_08_gradient_oracles():
    rng = np.random.default_rng(8)
    worst = 0.0

    def check(problem, point_fn):
        nonlocal worst
        for _ in range(10):
            x = point_fn()
            for grad_fn, value_fn in (
                (problem.f_grad, problem.f_value),
                (problem.g_subgrad, problem.g_value),
            ):
                err = rel_err(grad_fn(x), central_diff_grad(value_fn, x))
                worst = max(worst, err)
                assert err <= 1e-5

    check(gen_quadratic_dc(12, 0).problem(), lambda: rand_simplex(rng, 12))
    check(gen_hard_dc(10, 0).problem(), lambda: rand_ksparse(rng, 10, 10.0, 10))
    qap = qap_dc_oracles(
        QapInstance("fd", 5, rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
    )
    check(qap, lambda: rand_birkhoff(rng, 5).ravel())
    print(f"PASS criterion 8: central differences, worst relative error {worst:.2e}")


@pytest.mark.slow
def test_criterion_09_desk_scale_efficiency(desk_scale):
    results, wall = desk_scale
    assert wall < 600.0
    ws = [r for r in results if r.variant == "DCA-BPCG-WS-ES"]
    fw = [r for r in results if r.variant == "DCA-FW"]
    assert len(ws) == len(fw) == 5
    assert all(r.solved for r in ws)

    def geomean(values):
        return float(np.exp(np.mean(np.log(values))))

    gm_ws = geomean([r.lmo_calls for r in ws])
    gm_fw = geomean([r.lmo_calls for r in fw])
    assert gm_fw >= 10.0 * gm_ws
    print(
        f"PASS criterion 9: n=100 warm-started adaptive BPCG solved 5/5 with "
        f"geomean {gm_ws:.1f} LMO calls vs {gm_fw:.1f} for plain FW "
        f"({gm_fw / gm_ws:.0f}x), {wall:.0f}s"
    )


def test_criterion_10_active_set_and_warm_restart():
    rng = np.random.default_rng(10)
    steps = drops = trials = 0
    while steps < 1000 and trials < 200:
        trials += 1
        n = 20
        Q = random_pd_matrix(rng, n)
        q = 2.0 * rng.normal(size=n)
        objective = make_objective(
            lambda y, Q=Q, q=q: 0.5 * float(y @ Q @ y) + float(q @ y),
            lambda y, Q=Q, q=q: Q @ y + q,
        )
        lmo = ProbabilitySimplex(n)
        active = ActiveSet([lmo(q)], [1.0])
        sizes = [1]

        def check(info):
            nonlocal steps, drops
            aset = info["active_set"]
            weights = np.array(aset.weights)
            assert np.all(weights > 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert np.linalg.norm(info["x"] - aset.recombine()) <= 1e-10
            sizes.append(len(aset.vertices))
            if info["step_type"] == "pairwise_drop":
                drops += 1
                assert sizes[-1] == sizes[-2] - 1
            steps += 1

        bpcg(objective, lmo, active, Secant(), fw_gap_tol=1e-12, callback=check)
    assert steps >= 1000

    # a restart on an already-solved subproblem must not pay for new steps
    Q = random_pd_matrix(rng, 20)
    q = rng.normal(size=20)
    objective = make_objective(
        lambda y: 0.5 * float(y @ Q @ y) + float(q @ y),
        lambda y: Q @ y + q,
    )
    lmo = ProbabilitySimplex(20)
    _, warm_set, _ = bpcg(
        objective, lmo, ActiveSet([lmo(q)], [1.0]), Secant(), fw_gap_tol=1e-8
    )
    _, _, again = bpcg(objective, lmo, warm_set, Secant(), fw_gap_tol=1e-8)
    assert again.iterations <= 1
    print(
        f"PASS criterion 10: {steps} checked steps ({drops} drops), warm "
        f"restart finished in {again.iterations} iterations"
    )


def test_criterion_11_qaplib_corpus_and_fuzz(tmp_path):
    rng = np.random.default_rng(11)
    inst = QapInstance(
        "alpha", 4,
        rng.integers(0, 9, (4, 4)).astype(float),
        rng.integers(0, 9, (4, 4)).astype(float),
    )
    (tmp_path / "alpha.dat").write_text(serialize_qaplib(inst))
    (tmp_path / "beta.dat").write_text("2\n\n0 1\n1 0\n\n0 2\n2 0\n")
    (tmp_path / "gamma.dat").write_text("1 5 5")
    (tmp_path / "badsize.dat").write_text("0 1 2")
    (tmp_path / "truncated.dat").write_text("3 1 2 3")
    (tmp_path / "badentry.dat").write_text("2 1 2 3 x 5 6 7 8")
    (tmp_path / "notes.txt").write_text("not an instance")

    report = scan_directory(tmp_path)
    assert report.valid == ["alpha", "beta", "gamma"]
    assert [stem for stem, _ in report.invalid] == ["badentry", "badsize", "truncated"]
    assert all("offset" in message for _, message in report.invalid)

    for _ in range(10_000):
        blob = rng.integers(0, 256, size=rng.integers(0, 120)).astype(np.uint8)
        try:
            parse_qaplib(blob.tobytes())
        except QaplibParseError:
            pass
    print("PASS criterion 11: 6-file corpus partitioned exactly, 10k fuzz inputs")


def test_criterion_12_bench_statistics():
    assert shifted_geomean([1.0, 9.0], 1.0) == pytest.approx(
        math.sqrt(20.0) - 1.0, abs=1e-12
    )

    from test_bench import _result

    table = [
        _result("p1", "A", 2), _result("p1", "B", 4),
        _result("p2", "A", 4), _result("p2", "B", 4),
        _result("p3", "A", 8), _result("p3", "B", 12, solved=False),
    ]
    thetas, curves = performance_profile(table, "lmo", thetas=[1.0, 1.5, 2.0, 3.0])
    assert np.array_equal(curves["A"], [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(curves["B"], [1 / 3, 1 / 3, 2 / 3, 2 / 3])
    print("PASS criterion 12: shifted geomean and profile step functions exact")
