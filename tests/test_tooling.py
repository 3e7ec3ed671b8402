"""The test configuration itself: a failing property test is reported as
one failure and does not abort the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """Under the project's warning filters, one failing ``@given`` test and
    one passing test give exit code 1 and "1 failed, 1 passed".  Reporting a
    failed example imports libcst, which warns that
    ``mypy_extensions.TypedDict`` is deprecated; as an error, that warning
    ended the run with INTERNALERROR (exit code 3) before the passing test
    ran."""
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
