"""The test configuration itself: a failing property test is reported as
one failure and does not abort the run.  And the package's export lists:
every name a module exports exists, once."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import braidplan

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


def test_every_exported_name_resolves_once():
    """Each ``braidplan`` module's ``__all__`` names attributes the module
    has, and none twice, so deleting a function cannot leave a dangling
    export behind."""
    modules = [
        importlib.import_module(f"braidplan.{info.name}")
        for info in pkgutil.iter_modules(braidplan.__path__)
    ]
    assert {"planner", "geometry", "workspace", "harness"} <= {
        module.__name__.rsplit(".", 1)[1] for module in modules
    }
    for module in [braidplan, *modules]:
        names = getattr(module, "__all__", [])
        missing = [name for name in names if not hasattr(module, name)]
        repeated = [name for name, count in Counter(names).items() if count > 1]
        assert not missing and not repeated, (module.__name__, missing, repeated)
