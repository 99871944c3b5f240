"""The repo's pytest settings turn warnings into errors, and a failing
property test must still report its falsifying example and let the session
run on to the next test."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    # the repo's ini, with the probe's directory as rootdir and no cache, so
    # nothing is written into the checkout
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"]
    res = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "Falsifying example" in out
    assert "PASSED test_probe.py::test_passes" in out
