"""The pytest configuration in pyproject.toml, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_a_failing_hypothesis_test_hides_no_other_failure(tmp_path):
    # hypothesis imports libcst to report a falsifying example, and libcst's
    # mypy_extensions TypedDict warning, raised as an error by the warning
    # filters, once ended the run with an INTERNALERROR after one failure
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout
