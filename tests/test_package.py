import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import fracsaddle

SRC = Path(fracsaddle.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

# The README's Python API: what a script calls to run a solve and to check a
# field.  Every other exported name must have a caller in the package.
ENTRY_POINTS = {
    "Grid", "ModelParams", "SolverConfig", "named_group", "init_saddle", "solve",
    "nodal_domains", "energy", "gradient", "interaction", "nehari_energy",
    "hs_norm_sq", "seminorm_sq", "l2_norm_sq", "generate_group",
}


def test_all_exports_resolve():
    missing = [name for name in fracsaddle.__all__ if not hasattr(fracsaddle, name)]
    assert missing == []


def test_every_export_has_a_caller():
    # a name counts as called where a module other than __init__ reads it
    # outside the function or class that defines it
    called = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name is not None and name != owner:
                    called.add(name)
    uncalled = sorted(set(fracsaddle.__all__) - called - ENTRY_POINTS)
    assert uncalled == []
    api = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    assert sorted(n for n in ENTRY_POINTS if not re.search(rf"\b{n}\b", api)) == []
    assert ENTRY_POINTS <= set(fracsaddle.__all__)


def test_no_function_local_imports():
    # a module's dependencies sit at its top, where an import cycle fails loudly
    found = []
    for path in sorted(SRC.glob("*.py")):
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
