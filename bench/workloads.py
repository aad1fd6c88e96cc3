"""The three workloads: seeded input files, the fixed request list of one
pass, and a check of every output against figures computed here.

Why each workload exists (the per-layer metric each should move is listed
in ``run.py``):

- ``catalog``: gen, validate (accept and C4-reject paths), sweep and
  compare.  ``arrays`` does nearly all the work and ``engine``/``linalg``
  are never called, so engine or precoder changes should show no change.
- ``deliver-float``: simulate on an isomorph of replicate(mn(10,3),3) with
  a float channel: many mid-size slots, time split between repeated
  ``arrays`` scans and float ``linalg``.
- ``deliver-exact``: simulate on an isomorph of cyclic(16,8) over an
  integer Vandermonde channel: few large slots, dominated by ``Fraction``
  arithmetic in ``linalg``; array-layer changes should show no change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs

FILES = 4  # library size N of every simulate request
FLOAT_RESIDUAL_MAX = 1e-6

# Full and smoke sizes.  Smoke sizes run in well under a second, so the
# benchmark's own tests exercise every request and check on each change.
SIZES = {
    False: {
        "mn": (12, 4),
        "replicated": ((10, 3), 3),
        "circulant": (16, 8),
        "sweep": (150, 10),
        "float_requests": 2,
        "exact_requests": 3,
    },
    True: {
        "mn": (6, 2),
        "replicated": ((4, 1), 2),
        "circulant": (6, 3),
        "sweep": (20, 4),
        "float_requests": 1,
        "exact_requests": 1,
    },
}

WORKLOADS = ("catalog", "deliver-float", "deliver-exact")


@dataclass(frozen=True)
class Request:
    """One CLI call; ``check(exit_code, stdout)`` returns a failure reason
    or None.  ``packets`` is K(F-Z) of the array the call processes."""

    label: str
    argv: tuple
    check: Callable
    packets: int = 0
    simulate: bool = False


def _expect_exit(code, want):
    return None if code == want else f"exit code {code}, expected {want}"


def _regular(arr, antennas):
    counts = {}
    for row in arr.grid:
        for e in row:
            if e != inputs.STAR:
                counts[e] = counts.get(e, 0) + 1
    return all(c == arr.t + antennas for c in counts.values())


def validate_output(arr, antennas):
    """Expected (exit code, stdout) of ``validate`` on an array at L."""
    ok = antennas >= arr.min_antennas
    lines = []
    if ok:
        lines.append(
            f"({antennas},{arr.cols},{arr.rows},{arr.stars_per_col},{arr.slots}) MAPDA, "
            f"t={arr.t}, sum-DoF={arr.sum_dof}"
        )
    lines += ["C1: pass", "C2: pass", "C3: pass", f"C4: {'pass' if ok else 'FAIL'}"]
    lines.append(f"min antennas: {arr.min_antennas}")
    lines.append(f"regular: {'yes' if _regular(arr, antennas) else 'no'}")
    if not ok:
        # Every slot of these constructions needs min_antennas rows, so
        # the first slot id already fails.
        lines.append("C4 violated at s=1")
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _exact_text(label, want_code, want_out):
    def check(code, out):
        return _expect_exit(code, want_code) or (
            None if out == want_out else f"{label}: output differs from the expected text"
        )

    return check


def _split_csv_row(line):
    """Split on commas outside parentheses: 'n/a(...)' cells hold commas."""
    cells, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            cells.append(line[start:i])
            start = i + 1
    cells.append(line[start:])
    return cells


def _table_check(points):
    """compare/sweep CSV: one row per point, F_asmst = C(K,t) C(K-t-1,L-1)
    and F_s3 = K in every row."""

    def check(code, out):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        lines = out.splitlines()
        if len(lines) != len(points) + 1:
            return f"{len(lines) - 1} table rows, expected {len(points)}"
        header = lines[0].split(",")
        for line, (k, ratio, l) in zip(lines[1:], points):
            row = dict(zip(header, _split_csv_row(line)))
            t = int(k * ratio)
            want = {
                "K": str(k),
                "ratio": str(ratio),
                "L": str(l),
                "F_asmst": str(math.comb(k, t) * math.comb(k - t - 1, l - 1)),
                "F_s3": str(k),
            }
            for column, value in want.items():
                if row.get(column) != value:
                    return f"point {(k, str(ratio), l)}: {column}={row.get(column)!r}, expected {value}"
        return None

    return check


def _simulate_check(arr, exact):
    """Report shape, served sets, NDT, residuals and the ops model."""
    served = [[] for _ in range(arr.slots + 1)]
    for k in range(arr.cols):
        for row in arr.grid:
            if row[k] != inputs.STAR:
                served[row[k]].append(k + 1)
    ndt = str(Fraction(arr.slots, arr.rows))
    model = sum(len(users) ** 3 + len(users) ** 2 + arr.t * len(users) for users in served[1:])
    model = int(model) if model.denominator == 1 else str(model)

    def check(code, out):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        try:
            report = json.loads(out)
        except ValueError:
            return "simulate stdout is not JSON"
        if report.get("ndt_ul") != ndt or report.get("ndt_dl") != ndt:
            return f"ndt {report.get('ndt_ul')}/{report.get('ndt_dl')}, expected {ndt}"
        if report.get("ops_model") != model:
            return f"ops_model {report.get('ops_model')}, expected {model}"
        slots = report.get("slots", [])
        if [r.get("s") for r in slots] != list(range(1, arr.slots + 1)):
            return f"report lists {len(slots)} slots, expected {arr.slots}"
        for r in slots:
            if r["served"] != served[r["s"]] or r["feasible"] is not True:
                return f"slot {r['s']}: served {r['served']}, feasible {r['feasible']}"
            if exact and r["residual_max"] != 0:
                return f"slot {r['s']}: exact residual {r['residual_max']}"
            if not exact and not 0 <= r["residual_max"] <= FLOAT_RESIDUAL_MAX:
                return f"slot {r['s']}: float residual {r['residual_max']}"
        return None

    return check


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def build(workload, seed, workdir, smoke=False):
    """Write the workload's inputs under ``workdir`` and return the fixed
    request list of one pass.  Same seed, same files and requests."""
    size = SIZES[smoke]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    base, copies = size["replicated"]

    if workload == "catalog":
        mn = inputs.t_subset(*size["mn"])
        replicated = inputs.replicate(inputs.t_subset(*base), copies)
        circulant = inputs.circulant(*size["circulant"])
        requests = [
            Request(
                "gen-mn",
                ("gen", "mn", "-K", str(size["mn"][0]), "--t", str(size["mn"][1])),
                _exact_text("gen-mn", 0, mn.text()),
                mn.packets,
            )
        ]
        for label, arr, antennas in (
            ("validate-mn", mn, mn.antennas),
            ("validate-replicated", replicated, replicated.antennas),
            ("reject-replicated", replicated, replicated.antennas - 1),
            ("validate-circulant", circulant, circulant.antennas),
        ):
            path = _write(workdir, f"{label}.mapda", inputs.isomorph(arr, rng).text())
            requests.append(
                Request(
                    label,
                    ("validate", path, "-L", str(antennas)),
                    _exact_text(label, *validate_output(arr, antennas)),
                    arr.packets,
                )
            )
        users, antennas = size["sweep"]
        sweep_points = [(users, Fraction(t, users), antennas) for t in range(1, users - antennas + 1)]
        requests.append(
            Request(
                "sweep",
                ("sweep", "-K", str(users), "-L", str(antennas)),
                _table_check(sweep_points),
            )
        )
        points = _write(workdir, "points.txt", inputs.points_text(inputs.PUBLISHED_POINTS))
        requests.append(
            Request("compare", ("compare", "--points", points), _table_check(inputs.PUBLISHED_POINTS))
        )
        return requests

    if workload == "deliver-float":
        arr = inputs.isomorph(inputs.replicate(inputs.t_subset(*base), copies), rng)
        path = _write(workdir, "replicated.mapda", arr.text())
        check = _simulate_check(arr, exact=False)
        return [
            Request(
                "simulate-float",
                ("simulate", path, "--files", str(FILES), "--demands", "random", "--seed", str(s)),
                check,
                arr.packets,
                simulate=True,
            )
            for s in inputs.request_seeds(rng, size["float_requests"])
        ]

    if workload == "deliver-exact":
        arr = inputs.isomorph(inputs.circulant(*size["circulant"]), rng)
        path = _write(workdir, "circulant.mapda", arr.text())
        nodes = inputs.vandermonde_nodes(arr.cols, rng)
        channel = _write(workdir, "vandermonde.txt", inputs.vandermonde_text(arr.antennas, nodes))
        check = _simulate_check(arr, exact=True)
        return [
            Request(
                "simulate-exact",
                (
                    "simulate", path, "--files", str(FILES), "--channel", channel,
                    "--demands", "random", "--seed", str(s),
                ),
                check,
                arr.packets,
                simulate=True,
            )
            for s in inputs.request_seeds(rng, size["exact_requests"])
        ]

    raise ValueError(f"unknown workload {workload!r}")
