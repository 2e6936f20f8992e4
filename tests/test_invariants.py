"""Engine invariants must be raised errors: `python -O` strips `assert`."""

import ast
from pathlib import Path

import epigame

SOURCES = sorted(Path(epigame.__file__).parent.glob("*.py"))


def test_engine_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
