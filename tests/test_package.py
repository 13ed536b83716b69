import ast
from pathlib import Path

import fracsaddle


def test_all_exports_resolve():
    missing = [name for name in fracsaddle.__all__ if not hasattr(fracsaddle, name)]
    assert missing == []


def test_no_function_local_imports():
    # a module's dependencies sit at its top, where an import cycle fails loudly
    found = []
    for path in sorted(Path(fracsaddle.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
