"""The package imports only the standard library (``dependencies = []``)."""

import ast
import sys
from pathlib import Path

from mapda.linalg import Matrix

PACKAGE = Path(__file__).parent.parent / "src" / "mapda"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 5
    foreign = {
        path.name: name
        for path in modules
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert foreign == {}


def test_only_linalg_reads_matrix_internals():
    # Scalar handling for each backend lives in linalg: other modules build
    # and read matrices through its public names and ``from_ints``.  The
    # private slots are read from the class, so a renamed one is still
    # guarded.
    internals = {name for name in Matrix.__slots__ if name.startswith("_")}
    assert internals, Matrix.__slots__
    reads = {
        (path.name, node.attr, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in internals
    }
    assert reads == set()


def test_only_metrics_names_scheme_columns():
    # The comparison table's scheme columns and the plot's are derived from
    # metrics.TABLE_SCHEMES; no other module writes one out or parses one.
    prefixes = ("F_", "lambda_", "log10_F_")
    names = {
        (path.name, node.value, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "metrics.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith(prefixes)
    }
    assert names == set()
