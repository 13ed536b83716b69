import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_heavy_scipy_unloaded():
    # every run pays for what `import fracsaddle.cli` loads; the package uses
    # scipy.fft, special and ndimage, and nothing that pulls in these four
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg"]
    env = dict(os.environ, PYTHONPATH=str(Path(fracsaddle.__file__).parent.parent))
    code = (
        "import sys, fracsaddle.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
