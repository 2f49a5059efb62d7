"""pytest under the repository's configuration reports a failing property
test as one failure and runs the tests after it, and can import every test
module of the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1


def test_no_module_name_is_in_both_test_directories():
    # pytest imports the modules of tests/ and perfbench/ by their basenames,
    # so one name in both breaks collection of the whole run
    tests = {p.name for p in (ROOT / "tests").glob("*.py")}
    perfbench = {p.name for p in (ROOT / "perfbench").glob("*.py")}
    assert not tests & perfbench, (
        f"{sorted(tests & perfbench)} in both tests/ and perfbench/; rename one"
    )
