"""The repository's pytest settings: a rule that turns warnings into errors
must not cost a failing test its report."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_prints_its_example(tmp_path):
    """Under pyproject.toml's filterwarnings, a failing Hypothesis test ends
    with its falsifying example, not an INTERNALERROR from a deprecation
    warning raised while the report is made."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    # only the plugin of the declared test dependencies, hypothesis, is loaded
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"))
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output and "x=5," in output
