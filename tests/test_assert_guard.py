"""No ``assert`` statement in ``src/qsp``.

``python -O`` strips asserts, so a check written as one silently vanishes;
the program raises its own errors instead (``qsp.errors``)."""

import ast
from pathlib import Path

import qsp

SRC = Path(qsp.__file__).parent


def test_the_program_has_no_assert_statement():
    found = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
