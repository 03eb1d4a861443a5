"""The pytest configuration itself: a failing Hypothesis test is reported
as one failure, the run goes on to the tests after it, and a bare `pytest`
imports the package from src/."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_a_plain_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_bare_pytest_imports_the_package_from_src(tmp_path):
    # no PYTHONPATH and no install needed: pyproject.toml puts src/ on the path
    src = PYPROJECT.parent / "src"
    (tmp_path / "test_probe.py").write_text(
        "from pathlib import Path\n"
        "import kpcurve\n\n\n"
        "def test_source():\n"
        f"    assert Path(kpcurve.__file__).resolve().parent.parent == Path({str(src)!r})\n",
        encoding="utf-8",
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
