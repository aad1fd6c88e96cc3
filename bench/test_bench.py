"""Smoke tests of the benchmark harness:  python3 -m pytest bench

They run every workload at tiny sizes, traced and untraced, and check that
the generator, the output checks and the tracer agree with the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
import mapda  # noqa: E402
import mapda.cli  # noqa: E402,F401


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        calls = result["metrics"]["linalg.solve.calls"]["value"]
        assert (calls == 0) == (workload == "catalog")


def test_missing_package_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(
        "--workload", "catalog", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke",
        cwd=tmp_path, script=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("users,cached", [(4, 1), (5, 2), (6, 3)])
def test_generator_matches_package(users, cached):
    mn = inputs.t_subset(users, cached)
    assert mn.text() == mapda.format_mapda(mapda.generate_mn_pda(users, cached))
    assert inputs.replicate(mn, 2).text() == mapda.format_mapda(
        mapda.replicate(mapda.generate_mn_pda(users, cached), 2)
    )
    assert inputs.circulant(users, cached).text() == mapda.format_mapda(
        mapda.generate_cyclic(users, cached)
    )


def test_isomorph_keeps_profile_and_expected_validate_text():
    import random

    arr = inputs.replicate(inputs.t_subset(5, 2), 2)
    iso = inputs.isomorph(arr, random.Random(7))
    assert iso.grid != arr.grid
    m = mapda.parse_mapda(iso.text())
    assert m.parameters() == (arr.antennas, arr.cols, arr.rows, arr.stars_per_col, arr.slots)
    assert m.profile.min_antennas == arr.min_antennas
    report = mapda.validate(m.grid, arr.antennas - 1)
    assert not report.c4 and report.failures == ("C4 violated at s=1",)


def test_same_seed_same_inputs(tmp_path):
    def files(seed, name):
        workloads.build("deliver-exact", seed, tmp_path / name, smoke=True)
        return {p.name: p.read_text() for p in (tmp_path / name).iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_checks_reject_wrong_outputs(tmp_path):
    catalog = {r.label: r for r in workloads.build("catalog", 1, tmp_path / "c", smoke=True)}
    code, text = workloads.validate_output(inputs.t_subset(6, 2), 1)
    assert catalog["validate-mn"].check(code, text) is None
    assert catalog["validate-mn"].check(code, text.replace("sum-DoF=", "sum-DoF=1")) is not None
    assert catalog["reject-replicated"].check(0, "") is not None
    (sim,) = workloads.build("deliver-exact", 1, tmp_path / "e", smoke=True)
    assert sim.check(0, "{}") is not None
    assert sim.check(1, "") is not None


def test_tracer_restores_every_name():
    originals = (mapda.engine.solve, mapda.linalg.solve, mapda.arrays.validate, mapda.cli.main)
    profile = mapda.arrays.Mapda.__dict__["profile"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mapda)
    assert mapda.engine.solve is not originals[0] and mapda.linalg.solve is not originals[1]
    mapda.generate_cyclic(4, 2)
    restore()
    assert (mapda.engine.solve, mapda.linalg.solve, mapda.arrays.validate, mapda.cli.main) == originals
    assert mapda.arrays.Mapda.__dict__["profile"] is profile
    names = {name for name, _, _ in tracer.self_times()}
    assert {"arrays.generate_cyclic", "arrays.validate", "arrays.profile"} <= names
