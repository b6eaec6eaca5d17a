"""The package parses on Python 3.10, the oldest version ``pyproject.toml``
allows.

Where a ``python3.10`` runs, it compiles every file under ``src/``,
``tests/`` and ``bench/``.  Elsewhere only the hand-written walk below
checks the package: ``ast.parse(..., feature_version=(3, 10))`` accepts a
starred element in a subscript, ``d[kind, *args]``, which only Python 3.11
parses, so the constructs 3.11 added are looked for by hand.
"""

import ast
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "irvpivot").glob("*.py"))
ALL_SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))

# Reads one path a line and prints ``path:line: message`` per file that
# does not compile.
COMPILE_EACH = """
import sys
for path in sys.stdin.read().splitlines():
    try:
        with open(path, encoding="utf-8") as f:
            compile(f.read(), path, "exec")
    except SyntaxError as exc:
        print(f"{path}:{exc.lineno}: {exc.msg}")
"""


def python_310_env() -> dict | None:
    """An environment in which ``python3.10`` runs Python 3.10, or None.

    A pyenv shim runs it only when a 3.10 version is selected, so the
    environment as it is and one naming pyenv's 3.10.13 are tried in turn.
    """
    for extra in ({}, {"PYENV_VERSION": "3.10.13"}):
        env = dict(os.environ, **extra)
        try:
            res = subprocess.run(
                ["python3.10", "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, env=env, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if res.returncode == 0 and res.stdout.strip() == "(3, 10)":
            return env
    return None


def newer_than_310(source: str) -> list[str]:
    """Each 3.11-only construct in ``source``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            if any(isinstance(e, ast.Starred) for e in node.slice.elts):
                found.append(f"line {node.lineno}: starred element in a subscript")
        if isinstance(node, getattr(ast, "TryStar", ())):
            found.append(f"line {node.lineno}: except* clause")
    return found


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_on_python_310(path):
    assert newer_than_310(path.read_text()) == []


def test_guard_catches_311_constructs():
    assert newer_than_310("d[kind, *args]\nd[kind, args]\nd[*args]") == [
        "line 1: starred element in a subscript",
        "line 3: starred element in a subscript",
    ]
    assert newer_than_310(
        "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ) == ["line 1: except* clause"]
    assert newer_than_310("f(*args)\nx = [*a, b]\nd[a:b, c]\n") == []


def test_compiles_with_python_310():
    assert len(ALL_SOURCES) > len(SOURCES)
    env = python_310_env()
    if env is None:
        pytest.skip("no python3.10 on PATH; the hand-written walk checks the package")
    res = subprocess.run(
        ["python3.10", "-c", COMPILE_EACH],
        input="\n".join(map(str, ALL_SOURCES)),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == []
