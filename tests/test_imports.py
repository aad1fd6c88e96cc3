"""The package imports only the standard library (``dependencies = []``)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapda
from mapda import cli, linalg
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


def probe(source, *args):
    """Run ``source`` in a fresh interpreter without site hooks, with the
    package on its path, and return what it prints, read as a literal."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", source, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return ast.literal_eval(done.stdout)


# Imports every package module named on its command line, then prints which
# of dataclasses and inspect that loaded, how many package classes it finds,
# and those that carry dataclass fields.
IMPORT_PROBE = """
import importlib
import sys

for name in sys.argv[1:]:
    importlib.import_module(name)
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
    # Every mapda command imports the CLI before it does any work, and each
    # imports the modules it runs, so the records are NamedTuples and plain
    # classes: a dataclass would generate and compile its methods, and
    # import dataclasses and inspect, each time.  The CLI alone loads only
    # arrays, so the probe imports every module of the package itself.
    modules = [f"mapda.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    loaded, n_classes, built = probe(IMPORT_PROBE, *modules)
    assert len(modules) >= 5 and n_classes >= 20
    assert (loaded, built) == ([], [])


# Runs the command line given as its arguments through ``mapda.cli.main``
# (none imports the CLI alone) and prints the package modules then loaded.
COMMAND_PROBE = """
import contextlib
import io
import sys
import mapda

if sys.argv[1:]:
    import mapda.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = mapda.cli.main(sys.argv[1:])
    assert code == 0, code
print(repr(sorted(name for name in sys.modules if name.split(".")[0] == "mapda")))
"""

ARRAY = "1 2 2 1 1\n* 1\n1 *\n"
CLI_MODULES = ["mapda", "mapda.arrays", "mapda.cli"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], ["mapda"]),
        (["validate", "{array}", "--antennas", "1"], CLI_MODULES),
        (["gen", "mn", "--users", "4", "--t", "2"], CLI_MODULES),
        (["gen", "replicate", "--input", "{array}", "--copies", "2"], CLI_MODULES),
        (["compare", "--point", "6,1/3,2"], CLI_MODULES + ["mapda.metrics"]),
        (["sweep", "--users", "6", "--antennas", "2"], CLI_MODULES + ["mapda.metrics"]),
        (["simulate", "{array}", "--files", "1"], CLI_MODULES + ["mapda.engine", "mapda.linalg"]),
    ],
    ids=["import", "validate", "gen-mn", "gen-replicate", "compare", "sweep", "simulate"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # ``import mapda`` loads no submodule; the catalog commands never load
    # the delivery engine or linalg, and simulate never loads metrics.
    array = tmp_path / "a.mapda"
    array.write_text(ARRAY, encoding="utf-8")
    assert probe(COMMAND_PROBE, *(arg.format(array=array) for arg in argv)) == loaded


# The parent package's eager exports, by defining module.
EXPORTS = {
    "arrays": (
        "STAR DomainError Mapda NonPositiveSlotId ParseError RaggedGrid ValidationFailure "
        "ValidationReport format_mapda generate_cyclic generate_mn_pda parse_mapda read_mapda "
        "replicate validate write_mapda"
    ),
    "engine": (
        "ChannelMatrix DecodeMismatch DegenerateChannel DeliveryReport PacketId PrecodingMatrix "
        "SchemeInstance SlotGroup build_instance default_demands make_channel random_library "
        "run_delivery run_slot synthesize_precoder"
    ),
    "linalg": "EXACT FLOAT BackendMismatch DimensionMismatch Infeasible Matrix conj_transpose count_ops matmul solve",
    "metrics": (
        "ConstraintViolation SchemeMetrics SystemPoint asmst_metrics best_m scheme_metrics "
        "silence_antennas table_report"
    ),
}
SUBMODULES = ("arrays", "cli", "engine", "linalg", "metrics")


def test_package_names_resolve_to_their_modules_objects():
    names = {name: module for module, names in EXPORTS.items() for name in names.split()}
    for name, module in names.items():
        defined = getattr(importlib.import_module(f"mapda.{module}"), name)
        namespace = {}
        exec(f"from mapda import {name}", namespace)
        assert getattr(mapda, name) is defined and namespace[name] is defined, name
    for module in SUBMODULES:
        namespace = {}
        exec(f"from mapda import {module}", namespace)
        assert getattr(mapda, module) is namespace[module] is sys.modules[f"mapda.{module}"]
    assert sorted(mapda.__all__) == sorted([*names, *SUBMODULES])
    assert set(mapda.__all__) <= set(dir(mapda))
    assert mapda.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        mapda.nothing


def test_scalar_choices_are_linalg_backends():
    # The CLI spells the backends out, since only simulate loads linalg.
    simulate = next(
        action.choices["simulate"] for action in cli.build_parser()._actions if action.dest == "command"
    )
    (scalar,) = [action for action in simulate._actions if action.dest == "scalar"]
    assert scalar.choices == ("auto", linalg.EXACT, linalg.FLOAT)
