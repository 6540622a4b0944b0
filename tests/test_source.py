import ast
from pathlib import Path

import degseq

PACKAGE = Path(degseq.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips asserts, and every invariant must still hold under it:
    # a check is an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert not found, found
