"""The package parses on Python 3.10, the oldest version ``pyproject.toml``
allows.

``ast.parse(..., feature_version=(3, 10))`` accepts a starred element in a
subscript, ``d[kind, *args]``, which only Python 3.11 parses, so the
constructs 3.11 added are looked for by hand.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "irvpivot").glob("*.py"))


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
