"""A failing test fails alone under the repo's pytest settings.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
``@given`` property fails, hypothesis's report imports libcst, which warns
that ``mypy_extensions.TypedDict`` is deprecated; raised inside a pytest
hook, that error ended the session with ``INTERNALERROR`` and no later test
ran.  ``pyproject.toml`` ignores that one warning.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    assert True
"""


def test_failing_property_does_not_abort_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    out = res.stdout + res.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
