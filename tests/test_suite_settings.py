"""The test suite's own settings: ``[tool.pytest.ini_options]`` in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_next_to_the_others(tmp_path):
    # To explain a failing example Hypothesis imports libcst, and that import warns
    # (mypy_extensions.TypedDict); under error::DeprecationWarning the warning stopped
    # the whole run with INTERNALERROR and lost every other result.
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO), "test_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in proc.stdout, output
    assert "INTERNALERROR" not in output
