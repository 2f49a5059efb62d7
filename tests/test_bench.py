"""Benchmark harness: variant mapping, suite runs, persistence, statistics."""

import csv
import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dcfw.bench
from dcfw import (
    BenchResult,
    DcaConfig,
    QapInstance,
    QaplibParseError,
    RunRecord,
    VARIANTS,
    bpcg,
    dca_solve,
    gen_quadratic_dc,
    initial_point,
    load_results,
    parse_qaplib,
    performance_profile,
    run_suite,
    serialize_qaplib,
    shifted_geomean,
    summarize_table,
    vanilla_fw,
)
from dcfw.bench import (
    METRICS,
    RESULT_FIELDS,
    TRACE_FIELDS,
    default_caps,
    format_table,
    write_profile,
)
from dcfw.dca import OuterStep
from dcfw.problems import HardDcInstance, QuadraticDcInstance

from helpers import Counter, synthetic_qap


class TestVariantConfig:
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_every_name_runs_its_features(self, name, monkeypatch):
        # what dca_solve runs for the name: its subsolver, a stop rule for
        # -ES, the first solve's active set as the second one's start for
        # -WS, and boosted_step for -BT
        solves = []  # (subsolver, start, stop rule passed, what it returned)

        def spy(solver):
            def solve(sub, lmo, start, *args, **kwargs):
                out = solver(sub, lmo, start, *args, **kwargs)
                ruled = kwargs["descent_from"] is not None
                solves.append((solver.__name__, start, ruled, out))
                return out

            return solve

        boosts = Counter(dcfw.dca.boosted_step)
        monkeypatch.setattr(dcfw.dca, "bpcg", spy(bpcg))
        monkeypatch.setattr(dcfw.dca, "vanilla_fw", spy(vanilla_fw))
        monkeypatch.setattr(dcfw.dca, "boosted_step", boosts)
        problem = gen_quadratic_dc(10, 0).problem()
        config = DcaConfig(name, max_outer_iters=2)  # the asserts read two solves
        dca_solve(problem, initial_point(problem.lmo), config)
        assert len(VARIANTS) == 7 and len(solves) >= 2
        solver = "vanilla_fw" if "-FW" in name else "bpcg"
        assert all(s[0] == solver for s in solves)
        assert all(s[2] == ("-ES" in name) for s in solves)
        assert (solves[1][1] is solves[0][3][1]) == ("-WS" in name)
        assert (boosts.calls > 0) == name.endswith("-BT")

    def test_name_conventions(self):
        for name, features in VARIANTS.items():
            assert features["stop_mode"] == (
                "adaptive" if "-ES" in name else "fixed"
            )
            assert features["warm_start"] == ("-WS" in name)
            assert features["boosted"] == name.endswith("-BT")
            assert features["subsolver"] == ("fw" if "-FW" in name else "bpcg")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'DCA-GD', choose from"):
            DcaConfig("DCA-GD")

    def test_contradictory_override(self):
        # the name is the only way to set a feature
        with pytest.raises(TypeError, match="subsolver"):
            DcaConfig("DCA-BPCG-WS", subsolver="fw")
        with pytest.raises(TypeError, match="stop_mode"):
            DcaConfig("DCA-FW", stop_mode="adaptive")

    def test_only_other_keys_override(self):
        # a feature keyword raises even when it repeats the variant's value
        with pytest.raises(TypeError, match="subsolver"):
            DcaConfig("DCA-FW", subsolver="fw", dca_gap_tol=1e-3)
        cfg = DcaConfig("DCA-FW", dca_gap_tol=1e-3)
        assert cfg.dca_gap_tol == 1e-3

    def test_default_caps(self):
        assert default_caps("quadratics", 10) == (200, 10000)
        assert default_caps("quadratics", 50) == (200, 10000)
        assert default_caps("quadratics", 100) == (500, 50000)
        assert default_caps("hard", 100) == (500, 50000)
        assert default_caps("qap", 5) == (500, 50000)


def _with_field(row, column, text):
    """A results.csv row with the field of the named column replaced by text."""
    fields = row.split(",")
    fields[RESULT_FIELDS.index(column)] = text
    return ",".join(fields)


class TestRunSuite:
    VARIANT_PAIR = ["DCA-BPCG-ES", "DCA-BPCG-WS-ES"]

    def test_smoke_run_and_persistence(self, tmp_path):
        results = run_suite(
            "quadratics",
            [6],
            [0, 1],
            self.VARIANT_PAIR,
            out_dir=tmp_path,
            outer_cap=50,
            inner_cap=2000,
        )
        assert len(results) == 4
        assert all(r.solved and r.reason == "converged" for r in results)

        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULT_FIELDS
        assert len(rows) == 5

        for r in results:
            trace = tmp_path / "traces" / f"{r.instance}__{r.variant}.csv"
            with open(trace, newline="") as fh:
                trows = list(csv.reader(fh))
            assert trows[0] == TRACE_FIELDS
            assert len(trows) == r.outer_iters + 1
            # solved means the recorded certificate is below the tolerance
            assert float(trows[-1][TRACE_FIELDS.index("dc_gap_ub")]) <= 1e-6

    def test_trace_reads_back_as_the_record_s_rows(self, tmp_path, monkeypatch):
        records = []

        def solve(*args):
            x, record = dca_solve(*args)
            records.append(record)
            return x, record

        monkeypatch.setattr(dcfw.bench, "dca_solve", solve)
        variants = ["DCA-FW-ES", "DCA-BPCG-WS-ES-BT"]
        results = run_suite(
            "quadratics", [6], [0], variants,
            out_dir=tmp_path, outer_cap=20, inner_cap=500,
        )
        parse = [int, *OuterStep.__annotations__.values()]  # t, then the fields
        for r, record in zip(results, records, strict=True):
            with open(tmp_path / "traces" / f"{r.instance}__{r.variant}.csv") as fh:
                header, *rows = csv.reader(fh)
            assert header == TRACE_FIELDS
            got = [tuple(f(v) for f, v in zip(parse, row)) for row in rows]
            assert got == [(t, *step) for t, step in enumerate(record.steps)]
            assert len(got) == r.outer_iters >= 1

    def test_six_variant_row_count(self, tmp_path):
        non_boosted = [v for v in VARIANTS if not v.endswith("-BT")]
        assert len(non_boosted) == 6
        results = run_suite(
            "quadratics",
            [10],
            [0, 1, 2],
            non_boosted,
            out_dir=tmp_path,
            outer_cap=10,
            inner_cap=300,
        )
        assert len(results) == 18

    def test_load_results_round_trip(self, tmp_path):
        written = run_suite(
            "quadratics", [6], [0], self.VARIANT_PAIR, out_dir=tmp_path,
            outer_cap=50, inner_cap=2000,
        )
        loaded = load_results(tmp_path)
        assert len(loaded) == len(written)
        for w, l in zip(written, loaded):
            assert (w.instance, w.variant, w.n, w.seed) == (
                l.instance, l.variant, l.n, l.seed
            )
            assert w.solved == l.solved and w.reason == l.reason
            assert w.outer_iters == l.outer_iters and w.lmo_calls == l.lmo_calls
            assert w.wall_seconds == l.wall_seconds  # repr round-trip
            assert w.final_objective == l.final_objective

    def test_runs_are_deterministic(self, tmp_path):
        kwargs = dict(outer_cap=50, inner_cap=2000)
        a = run_suite(
            "quadratics", [8], [0, 1], self.VARIANT_PAIR,
            out_dir=tmp_path / "a", **kwargs,
        )
        b = run_suite(
            "quadratics", [8], [0, 1], self.VARIANT_PAIR,
            out_dir=tmp_path / "b", **kwargs,
        )
        for ra, rb in zip(a, b):
            assert ra.instance == rb.instance and ra.variant == rb.variant
            assert ra.outer_iters == rb.outer_iters
            assert ra.lmo_calls == rb.lmo_calls
            assert ra.final_objective == rb.final_objective
            assert ra.reason == rb.reason

    def test_failing_run_is_recorded_and_suite_continues(self, tmp_path, monkeypatch):
        def explode(problem, x0, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(dcfw.bench, "dca_solve", explode)
        results = run_suite(
            "quadratics", [6], [0], self.VARIANT_PAIR, out_dir=tmp_path
        )
        assert len(results) == 2
        for r in results:
            assert not r.solved
            assert r.reason == "error:RuntimeError: boom"
            assert math.isnan(r.final_objective)
        loaded = load_results(tmp_path)
        assert [r.reason for r in loaded] == ["error:RuntimeError: boom"] * 2

    def test_false_quadratic_declaration_is_recorded(self, monkeypatch):
        make = HardDcInstance.problem

        def declared(inst):
            problem = make(inst)
            problem.quadratic = True
            return problem

        monkeypatch.setattr(HardDcInstance, "problem", declared)
        fw, bpcg = run_suite(
            "hard", [10], [0], ["DCA-FW", "DCA-BPCG-ES"], outer_cap=20, inner_cap=500
        )
        assert fw.reason.startswith("error:OracleFailure: f is declared quadratic but")
        # BPCG does not take the closed-form step, so the flag changes nothing
        assert (bpcg.outer_iters, bpcg.lmo_calls, bpcg.final_objective) == (
            self.PINNED_RUNS[("hard-n10-s0", "DCA-BPCG-ES")]
        )

    @pytest.mark.parametrize(
        "message, reason",
        [
            ("boom", "error:RuntimeError: boom"),
            ("bad, worse\n  worst", "error:RuntimeError: bad, worse worst"),
            ("", "error:RuntimeError"),
        ],
        ids=["message", "multi-line", "empty"],
    )
    def test_failing_oracle_message_is_recorded(
        self, tmp_path, monkeypatch, message, reason
    ):
        real = dcfw.bench.gen_quadratic_dc

        def fail(x):
            raise RuntimeError(message)

        def broken(n, seed):
            inst = real(n, seed)
            make = inst.problem

            def problem():
                out = make()
                out.f_grad = fail
                return out

            inst.problem = problem
            return inst

        monkeypatch.setattr(dcfw.bench, "gen_quadratic_dc", broken)
        results = run_suite("quadratics", [6], [0], ["DCA-FW"], out_dir=tmp_path)
        assert [r.reason for r in results] == [reason]
        # the message stays on the row's one line and reads back whole
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 2
        assert [r.reason for r in load_results(tmp_path)] == [reason]

    def test_config_plumbing(self, monkeypatch):
        captured = []

        def capture(problem, x0, config):
            captured.append(config)
            rec = RunRecord(phi0=1.0)
            rec.termination = "converged"
            return x0, rec

        monkeypatch.setattr(dcfw.bench, "dca_solve", capture)
        run_suite("quadratics", [6], [0], ["DCA-FW", "DCA-BPCG-WS-ES-BT"])
        fw, bt = captured
        # the tolerance is DcaConfig's default; dca_solve halves it for
        # the inner solves
        assert fw.dca_gap_tol == bt.dca_gap_tol == DcaConfig.dca_gap_tol == 1e-6
        assert (fw.max_outer_iters, fw.max_inner_iters) == (200, 10000)
        assert (fw.variant, bt.variant) == ("DCA-FW", "DCA-BPCG-WS-ES-BT")

    def test_qap_suite_reads_directory_and_filters_by_size(self, tmp_path):
        rng = np.random.default_rng(0)
        small = QapInstance(
            "small", 3,
            rng.integers(0, 5, (3, 3)).astype(float),
            rng.integers(0, 5, (3, 3)).astype(float),
        )
        big = QapInstance(
            "big", 6,
            rng.integers(0, 5, (6, 6)).astype(float),
            rng.integers(0, 5, (6, 6)).astype(float),
        )
        qdir = tmp_path / "instances"
        qdir.mkdir()
        (qdir / "small.dat").write_text(serialize_qaplib(small))
        (qdir / "big.dat").write_text(serialize_qaplib(big))
        (qdir / "broken.dat").write_text("2 1")
        lines = []
        results = run_suite(
            "qap", [4], [0], ["DCA-BPCG-WS-ES"],
            qaplib_dir=qdir, out_dir=tmp_path / "out",
            outer_cap=200, inner_cap=2000, log=lines.append,
        )
        assert [r.instance for r in results] == ["small"]
        assert results[0].n == 3
        # the dropped file is named, with the parser's message
        with pytest.raises(QaplibParseError) as err:
            parse_qaplib(b"2 1", "broken")
        assert lines[0] == f"skipping broken.dat: {err.value}"

    @pytest.mark.parametrize("content", ["2 1", "too big"])
    def test_qap_suite_with_nothing_to_run_is_refused(self, tmp_path, content):
        qdir = tmp_path / "instances"
        qdir.mkdir()
        if content == "too big":
            rng = np.random.default_rng(0)
            A, B = rng.integers(0, 5, (2, 6, 6)).astype(float)
            content = serialize_qaplib(QapInstance("big", 6, A, B))
        (qdir / "only.dat").write_text(content)
        with pytest.raises(ValueError, match="no QAP instance to run"):
            run_suite(
                "qap", [4], [0], ["DCA-BPCG-WS-ES"], qaplib_dir=qdir,
                out_dir=tmp_path / "out",
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite, sizes, least", [
        ("hard", [20, 5], 10), ("quadratics", [10, 0], 1),
    ])
    def test_size_the_family_cannot_make_writes_nothing(
        self, tmp_path, suite, sizes, least
    ):
        with pytest.raises(ValueError, match=f"^need n >= {least}, got {sizes[-1]}$"):
            run_suite(
                suite, sizes, [0], ["DCA-BPCG-ES"], out_dir=tmp_path / "out",
                outer_cap=3, inner_cap=50,
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sizes, seeds, error, message", [
        ([10, 2.5], [0], TypeError, "n must be an integer, got 2.5"),
        ([10, True], [0], TypeError, "n must be an integer, got True"),
        ([10], [0, 1.5], TypeError, "seed must be an integer, got 1.5"),
        ([10], [0, True], TypeError, "seed must be an integer, got True"),
        ([10], [0, -1], ValueError, "need seed >= 0, got -1"),
    ], ids=["float-size", "bool-size", "float-seed", "bool-seed", "negative-seed"])
    def test_size_or_seed_that_is_no_index_writes_nothing(
        self, tmp_path, sizes, seeds, error, message
    ):
        # a results.csv left after the first run would refuse the re-run
        with pytest.raises(error, match=message):
            run_suite(
                "quadratics", sizes, seeds, ["DCA-BPCG-ES"], out_dir=tmp_path / "out",
                outer_cap=3, inner_cap=50,
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sizes, seeds, error, message", [
        ([True], [0], TypeError, "n must be an integer, got True"),
        ([4.5], [0], TypeError, "n must be an integer, got 4.5"),
        ([5], [-3], ValueError, "need seed >= 0, got -3"),
        ([5], ["x"], TypeError, "seed must be an integer, got 'x'"),
        # [4, 0] ran, and [0] failed for finding no file with n <= 0
        ([4, 0], [0], ValueError, "need n >= 1, got 0$"),
        ([0], [0], ValueError, "need n >= 1, got 0$"),
        ([5, -1], [0], ValueError, "need n >= 1, got -1$"),
    ], ids=[
        "bool-size", "float-size", "negative-seed", "str-seed",
        "zero-size-after-4", "zero-size", "negative-size",
    ])
    def test_qap_size_or_seed_that_is_no_index_writes_nothing(
        self, tmp_path, sizes, seeds, error, message
    ):
        # the qap suite takes no seed from the list, so a bad one went unseen
        qdir = tmp_path / "instances"
        qdir.mkdir()
        rng = np.random.default_rng(0)
        for n in (4, 5):
            flow, dist = rng.integers(0, 5, (2, n, n)).astype(float)
            inst = QapInstance(f"q{n}", n, flow, dist)
            (qdir / f"q{n}.dat").write_text(serialize_qaplib(inst))
        (qdir / "broken.dat").write_text("2 1")
        lines = []
        with pytest.raises(error, match=message):
            run_suite(
                "qap", sizes, seeds, ["DCA-BPCG-ES"], qaplib_dir=qdir,
                out_dir=tmp_path / "out", outer_cap=3, inner_cap=50, log=lines.append,
            )
        assert not (tmp_path / "out").exists() and lines == []

    @pytest.mark.parametrize("seeds", [[0, 1, 2], [1]], ids=["three", "one-not-0"])
    def test_qap_seeds_other_than_0_write_nothing(self, tmp_path, seeds):
        # the suite runs each file once, as seed 0, so other seeds would be
        # accepted and dropped
        qdir = tmp_path / "instances"
        qdir.mkdir()
        rng = np.random.default_rng(0)
        for n in (4, 5):
            flow, dist = rng.integers(0, 5, (2, n, n)).astype(float)
            inst = QapInstance(f"q{n}", n, flow, dist)
            (qdir / f"q{n}.dat").write_text(serialize_qaplib(inst))
        lines = []
        message = re.escape(f"the qap suite takes seeds [0] only, got {seeds}")
        with pytest.raises(ValueError, match=message):
            run_suite(
                "qap", [5], seeds, ["DCA-BPCG-ES"], qaplib_dir=qdir,
                out_dir=tmp_path / "out", outer_cap=3, inner_cap=50, log=lines.append,
            )
        assert not (tmp_path / "out").exists() and lines == []

    def test_hard_suite_instance_ids(self, tmp_path):
        results = run_suite(
            "hard", [10], [0], ["DCA-BPCG-WS-ES"], out_dir=tmp_path,
            outer_cap=100, inner_cap=2000,
        )
        assert [r.instance for r in results] == ["hard-n10-s0"]
        assert results[0].n == 10

    def test_a_log_that_cannot_be_called_is_refused_before_any_output(self, tmp_path):
        # the first run's line would be logged only after its result and
        # trace were written, leaving a prefix of the suite behind
        with pytest.raises(TypeError, match=r"^log must be callable or None, got 5$"):
            run_suite("quadratics", [3], [0, 1], ["DCA-FW"], out_dir=tmp_path, log=5)
        assert list(tmp_path.rglob("*")) == []

    def test_rerun_into_used_output_is_refused(self, tmp_path):
        kwargs = dict(out_dir=tmp_path, outer_cap=50, inner_cap=2000)
        run_suite("quadratics", [6], [0], ["DCA-BPCG-WS-ES"], **kwargs)
        before = (tmp_path / "results.csv").read_bytes()
        with pytest.raises(ValueError, match="already exists"):
            run_suite("quadratics", [6], [0], ["DCA-BPCG-WS-ES"], **kwargs)
        assert (tmp_path / "results.csv").read_bytes() == before
        assert len(load_results(tmp_path)) == 1

    def test_rerun_beside_old_traces_is_refused(self, tmp_path):
        kwargs = dict(out_dir=tmp_path, outer_cap=50, inner_cap=2000)
        run_suite("quadratics", [6], [0], ["DCA-BPCG-WS-ES"], **kwargs)
        (tmp_path / "results.csv").unlink()
        traces = tmp_path / "traces"
        before = {p.name: p.read_bytes() for p in traces.iterdir()}
        message = f"^{re.escape(str(traces))} already holds traces"
        with pytest.raises(ValueError, match=message):
            run_suite("quadratics", [6], [0], ["DCA-BPCG-ES"], **kwargs)
        assert not (tmp_path / "results.csv").exists()
        assert {p.name: p.read_bytes() for p in traces.iterdir()} == before
        # an emptied traces/ takes a new run
        for name in before:
            (traces / name).unlink()
        run_suite("quadratics", [6], [0], ["DCA-BPCG-ES"], **kwargs)
        assert [r.variant for r in load_results(tmp_path)] == ["DCA-BPCG-ES"]
        assert [p.name for p in traces.iterdir()] == ["quad-n6-s0__DCA-BPCG-ES.csv"]

    @pytest.mark.parametrize("suite, raising", [
        ("quadratics", False), ("quadratics", True), ("hard", False), ("qap", False),
    ], ids=["quadratics", "quadratics-raising", "hard", "qap"])
    def test_one_instance_is_alive_at_a_time(self, tmp_path, monkeypatch, suite, raising):
        # with the collector off, reference counts alone free each instance:
        # none built earlier, the first included, is alive when the next
        # one is built, and neither is its matrix A, which the oracles hold
        name = {"quadratics": "gen_quadratic_dc", "hard": "gen_hard_dc"}.get(
            suite, "parse_qaplib"
        )
        build = getattr(dcfw.bench, name)
        refs, alive_at_build = [], []

        def tracked(*args):
            alive_at_build.append([ref() is not None for ref in refs])
            inst = build(*args)
            refs.extend((weakref.ref(inst), weakref.ref(inst.A)))
            return inst

        def explode(problem, x0, config):
            problem.f_grad(x0)
            raise RuntimeError("boom")

        monkeypatch.setattr(dcfw.bench, name, tracked)
        if raising:
            monkeypatch.setattr(dcfw.bench, "dca_solve", explode)
        kwargs = dict(out_dir=tmp_path / "out", outer_cap=3, inner_cap=50)
        if suite == "qap":
            qdir = tmp_path / "instances"
            qdir.mkdir()
            rng = np.random.default_rng(0)
            for i, n in enumerate([3, 6, 4]):  # the n = 6 file is skipped
                inst = QapInstance(f"q{i}", n, *synthetic_qap(rng, n))
                (qdir / f"q{i}.dat").write_text(serialize_qaplib(inst))
            args = ("qap", [4], [0])
            kwargs["qaplib_dir"] = qdir
        else:
            args = (suite, [10, 12], [0, 1])
        gc.disable()
        try:
            results = run_suite(*args, ["DCA-FW", "DCA-BPCG-WS-ES"], **kwargs)
        finally:
            gc.enable()
        assert len(results) == (4 if suite == "qap" else 8)
        assert all(r.raised == raising for r in results)
        assert len(alive_at_build) == (3 if suite == "qap" else 4)
        assert alive_at_build == [[False] * 2 * k for k in range(len(alive_at_build))]

    def test_peak_memory_is_the_instance_being_built(self):
        # One instance alive at a time, each built with no n x n temporary:
        # the peak is B's build, the draw M and the product M^T M, beside the
        # finished A, plus the solver's vectors.  The warm-up build leaves
        # numpy.random's first import out of the count.
        n = 300
        gen_quadratic_dc(n, 0)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_suite(
                "quadratics", [n], [0, 1, 2], ["DCA-BPCG-WS-ES"], outer_cap=1, inner_cap=2
            )
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 3.5 * 8 * n * n

    def test_load_results_rejects_repeated_rows(self, tmp_path):
        run_suite(
            "quadratics", [6], [0], ["DCA-BPCG-WS-ES"], out_dir=tmp_path,
            outer_cap=50, inner_cap=2000,
        )
        path = tmp_path / "results.csv"
        header, row = path.read_text().splitlines()
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(ValueError, match="repeats"):
            load_results(tmp_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda header, row: ("instance,variant,n", row), "line 1: the header lacks"),
            (lambda header, row: (header, row.rsplit(",", 2)[0]), "line 2: not 10 fields"),
            (lambda header, row: (header, row + ",extra"), "line 2: not 10 fields"),
            (
                lambda header, row: (header, _with_field(row, "n", "five")),
                "line 2: column n: invalid literal for int",
            ),
            (
                lambda header, row: (header, _with_field(row, "solved", "7")),
                "line 2: column solved: expected 0 or 1, got '7'",
            ),
            (
                lambda header, row: (header, _with_field(row, "wall_s", "nan")),
                "line 2: column wall_s: wall_s must be at least 0 and finite, got nan",
            ),
            (
                lambda header, row: (header, _with_field(row, "wall_s", "inf")),
                "line 2: column wall_s: wall_s must be at least 0 and finite, got inf",
            ),
            (
                lambda header, row: (header, _with_field(row, "wall_s", "-3.0")),
                "line 2: column wall_s: wall_s must be at least 0 and finite, got -3.0",
            ),
            (
                lambda header, row: (header, _with_field(row, "lmo_calls", "-1")),
                "line 2: column lmo_calls: need lmo_calls >= 0, got -1",
            ),
            (
                lambda header, row: (header, _with_field(row, "outer_iters", "-2")),
                "line 2: column outer_iters: need outer_iters >= 0, got -2",
            ),
            (
                lambda header, row: (header, _with_field(row, "n", "0")),
                "line 2: column n: need n >= 1, got 0",
            ),
            (
                lambda header, row: (header, _with_field(row, "n", "-5")),
                "line 2: column n: need n >= 1, got -5",
            ),
            (
                lambda header, row: (header, _with_field(row, "seed", "-1")),
                "line 2: column seed: need seed >= 0, got -1",
            ),
        ],
        ids=[
            "header", "missing-field", "extra-field", "unparsed-field",
            "solved-not-0-or-1", "wall_s-nan", "wall_s-inf", "wall_s-negative",
            "lmo_calls-negative", "outer_iters-negative", "n-zero", "n-negative",
            "seed-negative",
        ],
    )
    def test_load_results_rejects_malformed_file(self, tmp_path, edit, message):
        run_suite(
            "quadratics", [6], [0], ["DCA-BPCG-WS-ES"], out_dir=tmp_path,
            outer_cap=50, inner_cap=2000,
        )
        path = tmp_path / "results.csv"
        header, row = edit(*path.read_text().splitlines())
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} {message}"):
            load_results(tmp_path)

    # (outer_iters, lmo_calls, final objective) of every variant at outer cap
    # 20, inner cap 500; a refactor of the solvers must leave them exactly as
    # they are, down to the last bit of the objective.  The quadratic FW rows
    # take the closed-form step, whose objectives differ from the secant
    # search's in the 15th digit.
    PINNED_RUNS = {
        ("quad-n10-s0", "DCA-FW"): (20, 10020, -1.9714430887410865),
        ("quad-n10-s0", "DCA-FW-ES"): (20, 6118, -1.9713570097485391),
        ("quad-n10-s0", "DCA-BPCG"): (10, 78, -1.9716425373437267),
        ("quad-n10-s0", "DCA-BPCG-ES"): (9, 29, -1.9716425338530648),
        ("quad-n10-s0", "DCA-BPCG-WS"): (10, 71, -1.9716425373437216),
        ("quad-n10-s0", "DCA-BPCG-WS-ES"): (9, 21, -1.9716424059057402),
        ("quad-n10-s0", "DCA-BPCG-WS-ES-BT"): (9, 21, -1.9716424059057402),
        ("hard-n10-s0", "DCA-FW"): (20, 10020, -8400.044418079458),
        ("hard-n10-s0", "DCA-FW-ES"): (12, 222, -8400.095570373176),
        ("hard-n10-s0", "DCA-BPCG"): (12, 1090, -8400.095570424952),
        ("hard-n10-s0", "DCA-BPCG-ES"): (11, 209, -8400.09557044799),
        ("hard-n10-s0", "DCA-BPCG-WS"): (12, 1062, -8400.095570424952),
        ("hard-n10-s0", "DCA-BPCG-WS-ES"): (13, 191, -8400.09557040298),
        ("hard-n10-s0", "DCA-BPCG-WS-ES-BT"): (13, 191, -8400.09557040298),
    }

    # (f_grad, f_value, g_value) calls of the same runs: each oracle is
    # evaluated once per point, so a later change that evaluates a point
    # again shows here.  On the quadratic FW rows f_grad is called once per
    # distinct vertex and once per outer step, at the iterate certify checks.
    # Every boost of the boosted quadratic row takes y from phi's closed form
    # without a search; g at the subsolver's point is the new iterate's g.
    # An adaptive inner solve asks f only where a convexity bound on the
    # surrogate leaves its stop rule a chance to fire (fw._inner_loop), so
    # the adaptive rows make far fewer f_value calls than inner iterations.
    # The quadratic fast path carries no h, so the stop rule of the quadratic
    # DCA-FW-ES row asks the oracles for f: 22 calls beyond the DCA-FW row's.
    PINNED_ORACLE_CALLS = {
        ("quad-n10-s0", "DCA-FW"): (27, 21, 21),
        ("quad-n10-s0", "DCA-FW-ES"): (23, 43, 21),
        ("quad-n10-s0", "DCA-BPCG"): (127, 11, 11),
        ("quad-n10-s0", "DCA-BPCG-ES"): (32, 20, 10),
        ("quad-n10-s0", "DCA-BPCG-WS"): (117, 11, 11),
        ("quad-n10-s0", "DCA-BPCG-WS-ES"): (22, 12, 10),
        ("quad-n10-s0", "DCA-BPCG-WS-ES-BT"): (22, 12, 10),
        ("hard-n10-s0", "DCA-FW"): (20667, 21, 21),
        ("hard-n10-s0", "DCA-FW-ES"): (550, 18, 13),
        ("hard-n10-s0", "DCA-BPCG"): (2895, 13, 13),
        ("hard-n10-s0", "DCA-BPCG-ES"): (599, 36, 12),
        ("hard-n10-s0", "DCA-BPCG-WS"): (2928, 13, 13),
        ("hard-n10-s0", "DCA-BPCG-WS-ES"): (530, 21, 14),
        ("hard-n10-s0", "DCA-BPCG-WS-ES-BT"): (530, 268, 261),
    }

    def test_pinned_counts(self, monkeypatch):
        oracle_calls = []  # one dict of Counters per run, in run order
        for cls in (QuadraticDcInstance, HardDcInstance):

            def counted(inst, make=cls.problem):
                problem = make(inst)
                calls = {}
                for name in ("f_grad", "f_value", "g_value"):
                    calls[name] = Counter(getattr(problem, name))
                    setattr(problem, name, calls[name])
                oracle_calls.append(calls)
                return problem

            monkeypatch.setattr(cls, "problem", counted)
        results = []
        for suite in ("quadratics", "hard"):
            results += run_suite(
                suite, [10], [0], list(VARIANTS), outer_cap=20, inner_cap=500
            )
        got, got_calls = {}, {}
        for r, calls in zip(results, oracle_calls, strict=True):
            got[(r.instance, r.variant)] = (
                r.outer_iters, r.lmo_calls, r.final_objective
            )
            got_calls[(r.instance, r.variant)] = tuple(
                calls[name].calls for name in ("f_grad", "f_value", "g_value")
            )
        assert got == self.PINNED_RUNS
        assert got_calls == self.PINNED_ORACLE_CALLS

    # (outer_iters, lmo_calls, final objective, (f_grad, f_value, g_value)
    # calls) of the BPCG variants on a seeded 6 x 6 QAP in the style of
    # QAPLIB's nug set, at the tolerance of the benchmark's QAP workload
    PINNED_QAP_RUNS = {
        "DCA-BPCG-ES": (13, 243, 197.38611843103018, (462, 57, 14)),
        "DCA-BPCG-WS-ES": (14, 177, 197.38607490435058, (323, 30, 15)),
    }

    def test_pinned_qap_counts(self, tmp_path, monkeypatch):
        n = 6
        inst = QapInstance("syn6", n, *synthetic_qap(np.random.default_rng(0), n))
        (tmp_path / "syn6.dat").write_text(serialize_qaplib(inst))
        oracle_calls = []
        make = dcfw.bench.qap_dc_oracles

        def counted(inst):
            problem = make(inst)
            calls = []
            for name in ("f_grad", "f_value", "g_value"):
                calls.append(Counter(getattr(problem, name)))
                setattr(problem, name, calls[-1])
            oracle_calls.append(calls)
            return problem

        monkeypatch.setattr(dcfw.bench, "qap_dc_oracles", counted)
        results = run_suite(
            "qap", [n], [0], list(self.PINNED_QAP_RUNS), qaplib_dir=tmp_path,
            dca_gap_tol=1e-3, outer_cap=20, inner_cap=500,
        )
        got = {
            r.variant: (
                r.outer_iters, r.lmo_calls, r.final_objective,
                tuple(c.calls for c in calls),
            )
            for r, calls in zip(results, oracle_calls, strict=True)
        }
        assert got == self.PINNED_QAP_RUNS

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_suite("quadratics", [6], [0], ["DCA-XX"])
        with pytest.raises(ValueError):
            run_suite("qap", [6], [0], ["DCA-FW"])  # no directory
        with pytest.raises(ValueError):
            run_suite("mystery", [6], [0], ["DCA-FW"])
        for sizes, seeds, variants in (
            ([6, 6], [0], ["DCA-FW"]),
            ([6], [0, 0], ["DCA-FW"]),
            ([6], [0], ["DCA-FW", "DCA-FW"]),
        ):
            with pytest.raises(ValueError, match="repeat"):
                run_suite("quadratics", sizes, seeds, variants, out_dir=tmp_path)
        assert not (tmp_path / "results.csv").exists()


    @pytest.mark.parametrize("override", [
        dict(sizes=[]), dict(seeds=[]), dict(variants=[]),
        dict(outer_cap=0), dict(inner_cap=0),
    ], ids=["sizes", "seeds", "variants", "outer_cap", "inner_cap"])
    def test_empty_list_or_cap_below_one_writes_nothing(self, tmp_path, override):
        args = dict(
            suite="quadratics", sizes=[6], seeds=[0], variants=["DCA-FW"],
            out_dir=tmp_path / "out",
        )
        with pytest.raises(ValueError, match="empty|>= 1"):
            run_suite(**{**args, **override})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        dict(outer_cap=2.5), dict(outer_cap=3.0), dict(inner_cap=True),
    ], ids=["outer_cap-fraction", "outer_cap-float", "inner_cap-bool"])
    def test_cap_that_is_not_an_integer_writes_nothing(self, tmp_path, override):
        # DcaConfig's rule, applied before any output rather than as one
        # error row per run
        args = dict(
            suite="quadratics", sizes=[6], seeds=[0], variants=["DCA-FW"],
            out_dir=tmp_path / "out",
        )
        with pytest.raises(TypeError, match="^(outer|inner)_cap must be an integer, got "):
            run_suite(**{**args, **override})
        assert not (tmp_path / "out").exists()


class TestShiftedGeomean:
    def test_singleton(self):
        assert shifted_geomean([0.3]) == pytest.approx(0.3, abs=1e-12)

    def test_worked_example(self):
        assert shifted_geomean([1.0, 9.0], 1.0) == pytest.approx(
            math.sqrt(20.0) - 1.0, abs=1e-12
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            shifted_geomean([])
        with pytest.raises(ValueError):
            shifted_geomean([-2.0], 1.0)

    @pytest.mark.parametrize("values, named", [
        ([1.0, math.nan], "[nan]"),
        ([math.inf, 2.0], "[inf]"),
        ([-math.inf, 3.0, math.nan], "[-inf, nan]"),
    ])
    def test_non_finite_values_are_refused(self, values, named):
        with pytest.raises(ValueError, match=f"^values must be finite, got {re.escape(named)}$"):
            shifted_geomean(values)

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
        st.floats(0.1, 10.0),
    )
    def test_between_min_and_max(self, values, shift):
        gm = shifted_geomean(values, shift)
        lo, hi = min(values), max(values)
        slack = 1e-9 + 1e-9 * hi
        assert lo - slack <= gm <= hi + slack


def _result(instance, variant, lmo, solved=True, outer=1, wall=1.0):
    return BenchResult(
        instance=instance, variant=variant, n=5, seed=0, solved=solved,
        outer_iters=outer, wall_seconds=wall, lmo_calls=lmo,
        final_objective=0.0, reason="converged" if solved else "iteration_cap",
    )


def _raised(instance, variant):
    """A run that raised at once: no steps and no final iterate."""
    return BenchResult(
        instance=instance, variant=variant, n=5, seed=0, solved=False,
        outer_iters=0, wall_seconds=0.01, lmo_calls=0,
        final_objective=math.nan, reason="error:OracleFailure: boom",
    )


class TestPerformanceProfile:
    def _table(self):
        return [
            _result("p1", "A", 2), _result("p1", "B", 4),
            _result("p2", "A", 4), _result("p2", "B", 4),
            _result("p3", "A", 8), _result("p3", "B", 12, solved=False),
        ]

    def test_hand_computed_step_functions(self):
        thetas, curves = performance_profile(
            self._table(), "lmo", thetas=[1.0, 1.5, 2.0, 3.0]
        )
        assert np.array_equal(thetas, [1.0, 1.5, 2.0, 3.0])
        # A: ratios (1, 1, 1);  B: ratios (2, 1, inf)
        assert np.array_equal(curves["A"], [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(curves["B"], [1 / 3, 1 / 3, 2 / 3, 2 / 3])

    def test_modified_profile_counts_unsolved_at_recorded_metric(self):
        thetas, curves = performance_profile(
            self._table(), "lmo", modified=True, thetas=[1.0, 1.5, 2.0]
        )
        # B's unsolved run now enters at ratio 12/8 = 1.5; ratios (2, 1, 1.5)
        assert np.array_equal(curves["B"], [1 / 3, 2 / 3, 1.0])
        assert np.array_equal(curves["A"], [1.0, 1.0, 1.0])

    def test_missing_pair_never_counts_as_solved(self):
        # p3 has no B run; unlike an unsolved one it stays out of the
        # modified profile too, so B's ratios are (2, 1, inf)
        thetas, curves = performance_profile(
            self._table()[:-1], "lmo", modified=True, thetas=[1.0, 1.5, 2.0]
        )
        assert np.array_equal(curves["A"], [1.0, 1.0, 1.0])
        assert np.array_equal(curves["B"], [1 / 3, 1 / 3, 2 / 3])

    @pytest.mark.parametrize("modified", [False, True])
    def test_run_that_raised_gets_infinite_ratio(self, modified):
        results = [
            _result("p1", "GOOD", 5, outer=12), _raised("p1", "CRASH"),
            _result("p2", "GOOD", 5, outer=12), _raised("p2", "CRASH"),
        ]
        _, curves = performance_profile(
            results, "iters", modified=modified, thetas=[1.0, 1e300]
        )
        assert np.array_equal(curves["GOOD"], [1.0, 1.0])
        assert np.array_equal(curves["CRASH"], [0.0, 0.0])

    def test_default_grid_starts_at_one(self):
        thetas, curves = performance_profile(self._table(), "lmo")
        assert thetas[0] == 1.0
        assert curves["A"][0] == 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            performance_profile(self._table(), "energy")

    def test_empty_results(self):
        with pytest.raises(ValueError):
            performance_profile([], "lmo")

    def test_write_profile(self, tmp_path):
        thetas, curves = performance_profile(
            self._table(), "lmo", thetas=[1.0, 2.0]
        )
        path = tmp_path / "profile.csv"
        write_profile(path, thetas, curves)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "A", "B"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 1.0


class TestSummarizeTable:
    def _rows(self):
        results = [
            _result("p1", "A", 3, outer=1, wall=0.5),
            _result("p2", "A", 3, outer=9, wall=1.5),
            _result("p1", "B", 1, outer=2, wall=0.25),
            _result("p2", "B", 7, outer=2, wall=0.25),
        ]
        return summarize_table(results)

    def test_hand_checked_values(self):
        rows = {row["variant"]: row for row in self._rows()}
        assert rows["A"]["iters"] == pytest.approx(math.sqrt(20.0) - 1.0, abs=1e-12)
        assert rows["B"]["iters"] == pytest.approx(2.0, abs=1e-12)
        assert rows["A"]["lmo"] == pytest.approx(3.0, abs=1e-12)
        assert rows["B"]["lmo"] == pytest.approx(3.0, abs=1e-12)
        assert rows["A"]["count"] == rows["B"]["count"] == 2

    def test_winner_flags(self):
        rows = {row["variant"]: row for row in self._rows()}
        assert not rows["A"]["best_iters"] and rows["B"]["best_iters"]
        assert not rows["A"]["best_time"] and rows["B"]["best_time"]
        # exact tie on the lmo metric flags both variants
        assert rows["A"]["best_lmo"] and rows["B"]["best_lmo"]

    def test_variant_missing_at_one_size_has_no_row_there(self):
        results = [
            _result("p1", "A", 3), _result("p1", "B", 1),
            replace(_result("q1", "A", 5), n=10),
        ]
        rows = summarize_table(results)
        assert [(r["n"], r["variant"]) for r in rows] == [(5, "A"), (5, "B"), (10, "A")]
        assert rows[2]["count"] == 1 and rows[2]["best_lmo"]

    def test_run_that_raised_is_left_out(self):
        results = [
            _result("p1", "GOOD", 5, outer=12, wall=2.0),
            _result("p2", "GOOD", 5, outer=12, wall=2.0),
            _raised("p1", "CRASH"),
            _result("p2", "CRASH", 9, outer=30, wall=4.0, solved=False),
        ]
        rows = {row["variant"]: row for row in summarize_table(results)}
        assert rows["GOOD"]["count"] == 2 and rows["CRASH"]["count"] == 1
        assert rows["CRASH"]["iters"] == pytest.approx(30.0, abs=1e-12)
        assert rows["CRASH"]["lmo"] == pytest.approx(9.0, abs=1e-12)
        for metric in METRICS:
            assert rows["GOOD"][f"best_{metric}"]
            assert not rows["CRASH"][f"best_{metric}"]

    def test_only_runs_that_raised_is_refused(self):
        with pytest.raises(ValueError, match="no result rows"):
            summarize_table([_raised("p1", "CRASH")])

    def test_format_table_marks_winners(self):
        text = format_table(self._rows())
        lines = text.splitlines()
        assert len(lines) == 4
        assert "variant" in lines[0]
        b_line = next(l for l in lines if " B " in l)
        assert "*" in b_line

