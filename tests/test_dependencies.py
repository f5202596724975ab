"""numpy is the package's only runtime dependency outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liemarkov"


def imported_top_level_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    foreign = {
        f"{path.name}: {name}"
        for path in files
        for name in imported_top_level_modules(path)
        if name not in sys.stdlib_module_names and name != "numpy"
    }
    assert not foreign, sorted(foreign)


def test_import_walk_sees_numpy_and_relative_imports():
    # the walk must actually find imports, or the test above passes vacuously
    assert "numpy" in imported_top_level_modules(SRC / "linalg.py")
    assert "liemarkov" not in imported_top_level_modules(SRC / "catalog.py")
