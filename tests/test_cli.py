"""Command line interface: subcommands, config files, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcfw import VARIANTS
from dcfw.bench import RESULT_FIELDS
from dcfw.cli import _read_config_file, main

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

REPO_ROOT = Path(__file__).resolve().parent.parent

LAUNCHER = """#!{python}
import sys
from importlib.metadata import EntryPoint

target = EntryPoint(name={name!r}, group="console_scripts", value={value!r}).load()
sys.exit(target())
"""


def _run_small(tmp_path, *extra):
    argv = [
        "run",
        "--suite", "quadratics",
        "--sizes", "6",
        "--seeds", "0",
        "--variants", "DCA-BPCG-WS-ES",
        "--out", str(tmp_path),
        "--outer-cap", "50",
        "--inner-cap", "2000",
        *extra,
    ]
    return main(argv)


def _read_results(out_dir):
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_end_to_end(self, tmp_path, capsys):
        assert _run_small(tmp_path) == 0
        rows = _read_results(tmp_path)
        assert len(rows) == 1
        assert rows[0]["variant"] == "DCA-BPCG-WS-ES"
        assert rows[0]["solved"] == "1"
        out = capsys.readouterr().out
        assert "1 runs, 1 solved" in out

    def test_boosted_flag_exits_2(self, tmp_path, capsys):
        # the boosted variant is selected by name, --variants DCA-BPCG-WS-ES-BT
        with pytest.raises(SystemExit) as exc:
            _run_small(tmp_path / "out", "--boosted")
        assert exc.value.code == 2
        assert "--boosted" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--time-limit", "nan"),
        ("--time-limit", "0"), ("--time-limit", "-1"),
    ])
    def test_bad_tolerance_or_time_limit_exits_2(self, tmp_path, capsys, flag, value):
        assert _run_small(tmp_path / "out", flag, value) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any output

    @pytest.mark.parametrize("flag, value", [
        ("--sizes", ","), ("--seeds", ","), ("--variants", ","),
        ("--outer-cap", "0"), ("--inner-cap", "0"),
    ])
    def test_empty_list_or_zero_cap_exits_2(self, tmp_path, capsys, flag, value):
        assert _run_small(tmp_path / "out", flag, value) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any output

    @pytest.mark.parametrize("suite, sizes, message", [
        ("hard", "20,5", "n >= 10, got 5"), ("quadratics", "10,0", "n >= 1, got 0"),
    ])
    def test_size_the_family_cannot_make_exits_2(
        self, tmp_path, capsys, suite, sizes, message
    ):
        out = tmp_path / "out"
        argv = [
            "run", "--suite", suite, "--sizes", sizes, "--seeds", "0",
            "--variants", "DCA-BPCG-ES", "--outer-cap", "3", "--inner-cap", "50",
            "--out", str(out),
        ]  # fmt: skip
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # refused before any output, so a re-run works
        argv[argv.index(sizes)] = sizes.split(",")[0]
        assert main(argv) == 0

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--suite", "quadratics", "--sizes", "6", "--seeds", "0",
            "--variants", "DCA-NEWTON", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_qap_directory_with_nothing_to_run_exits_2(self, tmp_path, capsys):
        qdir = tmp_path / "instances"
        qdir.mkdir()
        (qdir / "broken.dat").write_text("2 1")
        code = main([
            "run", "--suite", "qap", "--qaplib-dir", str(qdir), "--sizes", "4",
            "--out", str(tmp_path / "out"),
        ])  # fmt: skip
        assert code == 2
        captured = capsys.readouterr()
        assert "skipping broken.dat: " in captured.out
        assert "no QAP instance to run" in captured.err
        assert not (tmp_path / "out").exists()  # refused before any output

    def test_config_file_supplies_options(self, tmp_path):
        out_dir = tmp_path / "from_config"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# small smoke configuration\n"
            "suite = quadratics\n"
            "sizes = 6\n"
            "seeds = 0,1\n"
            "variants = DCA-BPCG-ES\n"
            f"out = {out_dir}\n"
            "outer-cap = 50\n"
            "inner-cap = 2000\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        rows = _read_results(out_dir)
        assert len(rows) == 2
        assert {r["variant"] for r in rows} == {"DCA-BPCG-ES"}

    def test_config_file_lists_take_spaces_after_commas(self, tmp_path):
        out_dir = tmp_path / "spaced"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "sizes = 6\n"
            "seeds = 0\n"
            "variants = DCA-BPCG-ES, DCA-BPCG-WS-ES\n"
            f"out = {out_dir}\n"
            "outer-cap = 50\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        rows = _read_results(out_dir)
        assert [r["variant"] for r in rows] == ["DCA-BPCG-ES", "DCA-BPCG-WS-ES"]

    def test_variants_flag_takes_spaces_after_commas(self, tmp_path):
        assert _run_small(tmp_path, "--variants", "DCA-BPCG-ES, DCA-BPCG-WS-ES") == 0
        rows = _read_results(tmp_path)
        assert [r["variant"] for r in rows] == ["DCA-BPCG-ES", "DCA-BPCG-WS-ES"]

    def test_explicit_flags_win_over_config(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "suite = quadratics\nsizes = 6\nseeds = 0,1,2\n"
            f"variants = DCA-BPCG-ES\nout = {out_dir}\n"
            "outer-cap = 50\ninner-cap = 2000\n"
        )
        assert main(["run", "--config", str(cfg), "--seeds", "0"]) == 0
        assert len(_read_results(out_dir)) == 1

    def test_config_boosted_key(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "sizes = 6\nseeds = 0\nvariants = DCA-BPCG-WS-ES\n"
            f"out = {out_dir}\n"
            "boosted = true\nouter-cap = 50\ninner-cap = 2000\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "'boosted'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "sizez = 99\nsizes = 6\nseeds = 0\nvariants = DCA-BPCG-WS-ES\n"
            f"out = {out_dir}\nouter-cap = 50\ninner-cap = 2000\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "sizez" in capsys.readouterr().err
        assert not out_dir.exists()  # nothing ran

    @pytest.mark.parametrize("second", ["sizes = 20", "outer_cap = 20"])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, second):
        # outer-cap and outer_cap name the same option
        out_dir = tmp_path / "out"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "sizes = 6\nseeds = 0\nvariants = DCA-BPCG-WS-ES\n"
            f"out = {out_dir}\nouter-cap = 50\n{second}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        key = second.split()[0]
        assert f"config key {key!r} is set twice in {cfg}" in capsys.readouterr().err
        assert not out_dir.exists()  # nothing ran

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("outer-cap = fifty\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rerun_into_used_out_exits_2(self, tmp_path, capsys):
        assert _run_small(tmp_path) == 0
        assert _run_small(tmp_path) == 2
        assert "already exists" in capsys.readouterr().err
        assert len(_read_results(tmp_path)) == 1

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("sizes 6\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "key=value" in capsys.readouterr().err

    # the options of each shipped per-family config file
    SHIPPED_CONFIGS = {
        "quadratics": dict(
            suite="quadratics",
            sizes=[10, 20, 30],
            seeds=[0, 1, 2, 3, 4],
            out="bench_out/quadratics",
        ),
        "hard_dc": dict(
            suite="hard", sizes=[20, 50], seeds=[0, 1, 2, 3, 4], out="bench_out/hard"
        ),
        "qap": dict(
            suite="qap",
            sizes=[15],
            seeds=[0],
            variants=["DCA-BPCG-ES", "DCA-BPCG-WS-ES"],
            out="bench_out/qap",
        ),
    }

    def test_shipped_configs_parse(self):
        shipped = sorted(REPO_ROOT.glob("configs/*.ini"))
        assert [p.stem for p in shipped] == sorted(self.SHIPPED_CONFIGS)
        for path in shipped:
            opts = _read_config_file(path)
            assert opts == self.SHIPPED_CONFIGS[path.stem]
            assert set(opts.get("variants", [])) <= set(VARIANTS)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    code = main([
        "run", "--suite", "quadratics", "--sizes", "6", "--seeds", "0,1",
        "--variants", "DCA-BPCG-ES,DCA-BPCG-WS-ES", "--out", str(out),
        "--outer-cap", "50", "--inner-cap", "2000",
    ])
    assert code == 0
    return out


class TestProfileAndTable:
    def test_profile_writes_curves(self, out_dir, capsys):
        assert main(["profile", "--in", str(out_dir), "--metric", "lmo"]) == 0
        path = out_dir / "profile_lmo.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "DCA-BPCG-ES", "DCA-BPCG-WS-ES"]
        assert float(rows[1][0]) == 1.0
        out = capsys.readouterr().out
        assert "rho(1)=" in out and str(path) in out

    def test_modified_profile_gets_own_file(self, out_dir):
        code = main([
            "profile", "--in", str(out_dir), "--metric", "time", "--modified",
        ])
        assert code == 0
        assert (out_dir / "profile_time_modified.csv").exists()

    def test_table_prints_and_saves_summary(self, out_dir, capsys):
        assert main(["table", "--in", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "variant" in out and "lmo" in out
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["variant"] for r in rows} == {"DCA-BPCG-ES", "DCA-BPCG-WS-ES"}

    def test_table_without_rows_exits_2(self, tmp_path, capsys):
        (tmp_path / "results.csv").write_text(",".join(RESULT_FIELDS) + "\n")
        assert main(["table", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no result rows" in err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("command", [["table"], ["profile", "--metric", "lmo"]])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("instance,variant,n\np1,A,5\n", "line 1: the header lacks"),
            (",".join(RESULT_FIELDS) + "\np1,A,5,0,1,3,0.5,7\n", "line 2: not 10 fields"),
        ],
        ids=["header", "short-row"],
    )
    def test_malformed_results_exit_2(self, tmp_path, capsys, command, text, message):
        (tmp_path / "results.csv").write_text(text)
        assert main([command[0], "--in", str(tmp_path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_table_of_runs_that_all_raised_exits_2(self, tmp_path, capsys):
        row = "p1,A,5,0,0,0,0.5,0,nan,error:OracleFailure: boom"
        (tmp_path / "results.csv").write_text(",".join(RESULT_FIELDS) + f"\n{row}\n")
        assert main(["table", "--in", str(tmp_path)]) == 2
        assert "no result rows" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_missing_results_dir_exits_2(self, tmp_path, capsys):
        code = main(["profile", "--in", str(tmp_path / "nope"), "--metric", "lmo"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_metric_rejected_by_parser(self, out_dir):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--in", str(out_dir), "--metric", "energy"])
        assert exc.value.code == 2


@pytest.fixture
def declared_scripts_on_path(tmp_path, monkeypatch):
    """Install pyproject.toml's console scripts as an installer would.

    Each ``[project.scripts]`` entry becomes an executable launcher in a
    fresh directory put first on PATH, and PYTHONPATH is set to the
    declared package roots alone, so the scripts run this checkout
    whatever the caller's environment or working directory.
    """
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    roots = pyproject["tool"]["setuptools"]["packages"]["find"]["where"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, value in pyproject["project"]["scripts"].items():
        script = bin_dir / name
        script.write_text(
            LAUNCHER.format(python=sys.executable, name=name, value=value))
        script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(str(REPO_ROOT / r) for r in roots))


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dcfw.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for word in ("run", "profile", "table"):
            assert word in proc.stdout

    @pytest.mark.parametrize(
        "args", [["-c", "import dcfw"], ["-m", "dcfw.cli", "--help"]]
    )
    def test_scipy_is_not_imported(self, args):
        # only the hard family and the Birkhoff LMO need scipy, and they
        # import it when used; -X importtime lists every module imported
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "dcfw" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]

    def test_console_script(self, declared_scripts_on_path):
        proc = subprocess.run(["bench", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "difference-of-convex" in proc.stdout
