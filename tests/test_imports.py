"""The package imports only the standard library (``dependencies = []``)."""

import ast
import os
import subprocess
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
    # Scalar handling for each backend lives in linalg: a matrix is its rows
    # over one denominator, and other modules build and read it through
    # linalg's public names alone.  The private slots are read from the
    # class, so a renamed one is still guarded, and so is a read of the
    # names of the flat layout that went, so that a second layout cannot
    # come back.
    internals = {name for name in Matrix.__slots__ if name.startswith("_")}
    assert internals, Matrix.__slots__
    internals |= {"data", "at", "row", "from_ints"}
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


def test_only_engine_raises_infeasible():
    # linalg.solve returns the inconsistent right-hand sides; the engine
    # alone raises Infeasible, naming the slot and column.
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None))

    raisers = {
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None and raised(node) == "Infeasible"
    }
    assert raisers and {name for name, _ in raisers} == {"engine.py"}, raisers


# Printed by a fresh interpreter without site hooks: which of dataclasses
# and inspect importing the CLI loads, how many package classes it finds,
# and those that carry dataclass fields.
IMPORT_PROBE = """
import sys
import mapda.cli

classes = {
    value
    for name, module in list(sys.modules.items())
    if name.split(".")[0] == "mapda"
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__.split(".")[0] == "mapda"
}
built = sorted(c.__name__ for c in classes if hasattr(c, "__dataclass_fields__"))
print(repr((sorted({"dataclasses", "inspect"} & sys.modules.keys()), len(classes), built)))
"""


def test_importing_the_cli_builds_no_dataclass():
    # Every mapda command imports the CLI before it does any work, so the
    # records are NamedTuples and plain classes: a dataclass would generate
    # and compile its methods, and import dataclasses and inspect, each time.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded, n_classes, built = ast.literal_eval(probe.stdout)
    assert n_classes >= 20
    assert (loaded, built) == ([], [])
