"""Rules the package source keeps.

Correctness checks must still run under `python -O`, which strips every
`assert` statement, so the package raises explicit errors instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torusapprox"


def test_package_source_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
