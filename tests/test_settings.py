"""The test settings in pyproject.toml: a failing test is reported, and the run goes on."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_next_test_runs(tmp_path):
    # filterwarnings = ["error"] must not turn the DeprecationWarning that hypothesis's own report
    # hook raises into an INTERNALERROR that ends the run.  The child runs in tmp_path, so
    # hypothesis keeps its example database there.
    (tmp_path / "test_two.py").write_text(textwrap.dedent(TWO_TESTS))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_two.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
