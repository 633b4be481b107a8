"""Rules the package source keeps.

Correctness checks must still run under `python -O`, which strips every
`assert` statement, so the package raises explicit errors instead.
Resource caps are module constants read at call time, never per-call
parameters.
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


def test_package_functions_take_no_cap_parameters():
    found = [
        f"{path.name}:{arg.lineno} {arg.arg}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.arguments)
        for arg in [*node.posonlyargs, *node.args, *node.kwonlyargs, node.vararg, node.kwarg]
        if arg is not None and (arg.arg == "cap" or arg.arg.endswith("_cap"))
    ]
    assert found == []
