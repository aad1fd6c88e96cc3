"""Command line frontend: validate / gen / simulate / compare / sweep.

Exit codes are stable across commands: 0 success, 1 domain error or
infeasibility, 2 I/O or parse failure.  Output is deterministic for a
fixed configuration and seed; the MAPDA_SEED environment variable
overrides --seed.  ``gen`` writes the array file format on stdout so
commands compose through pipes.  ``main`` builds the argument parser once
per process and reuses it; the environment, stdin and stdout/stderr are
still read on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import arrays, engine, metrics
from .arrays import DomainError, ParseError, ValidationFailure, _number, _plain, _quote, _read_int
from .linalg import (
    EXACT,
    FLOAT,
    BackendMismatch,
    DimensionMismatch,
    Infeasible,
    Matrix,
)
from .metrics import SystemPoint

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
_MAX_SWEEP_ROWS = 1000  # the longest t range ``sweep`` tabulates


def _effective_seed(args):
    env = os.environ.get("MAPDA_SEED")
    if env is not None:
        return _read_int(env, "MAPDA_SEED", "must be an integer, got")
    return args.seed


def _integer(token):
    """``int`` for an integer option, read by ``_read_int``: argparse refuses
    a bad token with exit 2, in the reader's words."""
    try:
        return _read_int(token, "invalid int value", "")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_validate(args) -> int:
    _, header, grid = arrays.parse_raw(_read_text(args.file))
    report = arrays.validate(grid, args.antennas)
    mismatches = arrays.header_mismatches(header, report)
    ok = report.ok and not mismatches
    lines = []
    if ok:
        lines.append(
            f"({report.antennas},{report.cols},{report.rows},{report.stars_per_col},"
            f"{report.slots}) MAPDA, t={report.t}, sum-DoF={report.sum_dof}"
        )
    for cond, okflag in (("C1", report.c1), ("C2", report.c2), ("C3", report.c3), ("C4", report.c4)):
        lines.append(f"{cond}: {'pass' if okflag else 'FAIL'}")
    lines.append(f"min antennas: {report.min_antennas}")
    lines.append(f"regular: {'yes' if report.regular else 'no'}")
    lines.extend(report.failures)
    lines.extend(mismatches)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_gen(args) -> int:
    if args.generator == "mn":
        m = arrays.generate_mn_pda(args.users, args.t)
    elif args.generator == "cyclic":
        m = arrays.generate_cyclic(args.users, args.t)
    else:  # replicate; argparse restricts the choices
        base = arrays.parse_mapda(_read_text(args.input))
        m = arrays.replicate(base, args.copies)
    _write_text(args.out, arrays.format_mapda(m))
    profile = m.profile
    print(
        f"{m.parameters()} MAPDA, t={profile.t}, sum-DoF={profile.sum_dof}, "
        f"regular={'yes' if profile.regular else 'no'}, min-antennas={profile.min_antennas}",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_demands(spec, users, files, rng):
    if spec is None:
        return engine.default_demands(users, files)
    if spec == "random":
        return tuple(rng.randint(1, files) for _ in range(users))
    return tuple(_read_int(token, "demand list", "bad demand") for token in spec.split(","))


def _on_backend(matrix, backend, what):
    """A fixture's matrix on the run's backend: rationals widen to floats,
    floats cannot run exact."""
    if backend == EXACT and matrix.backend != EXACT:
        raise DomainError(f"{what} fixture holds floats; cannot run the exact backend")
    if backend == FLOAT and matrix.backend == EXACT:
        return Matrix.from_rows(matrix.to_rows(), FLOAT)
    return matrix


def cmd_simulate(args) -> int:
    import random as _random

    m = arrays.parse_mapda(_read_text(args.file))
    seed = _effective_seed(args)
    rng = _random.Random(seed)

    fixture = None
    if args.channel is not None:
        fixture = engine.read_channel_fixture(args.channel)

    backend = args.scalar
    if backend == "auto":
        backend = EXACT if fixture is not None and fixture.matrix.backend == EXACT else FLOAT
    if backend == EXACT and fixture is None:
        raise DomainError("exact backend needs a rational channel fixture (--channel)")
    if fixture is not None:
        fixture = engine.ChannelMatrix(_on_backend(fixture.matrix, backend, "channel"))

    instance = engine.build_instance(m, args.files)
    demands = _parse_demands(args.demands, m.cols, args.files, rng)

    if args.library is not None:
        library = _on_backend(engine.read_library_fixture(args.library), backend, "library")
    else:
        library = engine.random_library(args.files, m.rows, seed=rng.randint(0, 2**31), backend=backend)

    attempts = 4 if fixture is None else 1
    last_error = None
    for attempt in range(attempts):
        if fixture is not None:
            channel = fixture
        else:
            channel = engine.make_channel(m.antennas, m.cols, seed=seed + attempt)
        try:
            report = engine.run_delivery(instance, channel, demands, library)
        except engine.DegenerateChannel as exc:
            last_error = exc
            continue
        print(json.dumps(report.to_json_dict()))
        return EXIT_OK
    raise last_error


def _parse_ratio(token) -> Fraction:
    """A ``_plain`` memory ratio as Fraction reads it.  Its numerator and
    denominator have at most the mantissa's digits plus |exponent| digits;
    past Python's digit limit it is refused before Fraction builds
    10**exponent."""
    mantissa, _, exponent = token.lower().partition("e")
    digits = max(sum(c.isdigit() for c in part) for part in mantissa.split("/"))
    digits += abs(_read_int(exponent or "0", f"memory ratio {_quote(token)}", "bad exponent"))
    limit = sys.get_int_max_str_digits()
    if 0 < limit < digits:
        raise ParseError(
            f"memory ratio {_quote(token)} needs up to {digits} digits, past Python's "
            f"limit of {limit} (sys.get_int_max_str_digits())"
        )
    try:
        if _plain(token):
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad memory ratio {_quote(token)}")


def _parse_point(token) -> SystemPoint:
    parts = token.replace(",", " ").split()
    if len(parts) not in (3, 4):
        raise ParseError(f"point must be 'K ratio L [m]', got {_quote(token)}")
    ratio = _parse_ratio(parts[1])
    where, what = f"point {_quote(token)}", "K, L and m must be integers, got"
    users, antennas, *m = (_read_int(part, where, what) for part in (parts[0], *parts[2:]))
    return SystemPoint(users, antennas, ratio, *m)


def _points_from_file(path):
    points = []
    for line_no, line in arrays.content_lines(_read_text(path)):
        try:
            points.append(_parse_point(line))
        except ParseError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
    return points


def cmd_compare(args) -> int:
    points = []
    if args.points is not None:
        points.extend(_points_from_file(args.points))
    for token in args.point or []:
        points.append(_parse_point(token))
    _write_text(args.out, metrics.table_report(points))
    return EXIT_OK


def cmd_sweep(args) -> int:
    users, antennas = args.users, args.antennas
    # Checked here too so bad K, L or m fail even when the t range is empty.
    metrics.check_counts(users, antennas, args.m)
    t_max = args.t_max if args.t_max is not None else users - antennas
    ts = range(max(args.t_min, 1), min(t_max, users - 1) + 1)
    count = ts.stop - ts.start  # len(ts) fails past sys.maxsize
    if count > _MAX_SWEEP_ROWS:
        raise DomainError(
            f"sweep of t = {_number(ts[0])}..{_number(ts[-1])} needs {_number(count)} rows, "
            f"limit {_MAX_SWEEP_ROWS}"
        )
    points = [SystemPoint(users, antennas, Fraction(t, users), args.m) for t in ts]
    rows = [metrics.table_row(p) for p in points]
    _write_text(args.out, metrics.format_table(rows))
    if args.plot_out is not None:
        _write_text(args.plot_out, metrics.format_plot(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapda",
        description="Placement delivery array toolkit and information-retrieval delivery simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a grid file against C1-C4")
    p_val.add_argument("file", help="array file ('-' for stdin)")
    p_val.add_argument("--antennas", "-L", type=_integer, required=True)
    p_val.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen", help="generate an array")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    g_mn = gen_sub.add_parser("mn", help="t-subset star pattern (single antenna)")
    g_mn.add_argument("--users", "-K", type=_integer, required=True)
    g_mn.add_argument("--t", type=_integer, required=True)
    g_cy = gen_sub.add_parser("cyclic", help="circulant array on K-t antennas")
    g_cy.add_argument("--users", "-K", type=_integer, required=True)
    g_cy.add_argument("--t", type=_integer, required=True)
    g_rep = gen_sub.add_parser("replicate", help="concatenate copies of a base array")
    g_rep.add_argument("--input", "-i", default="-", help="base array file (default stdin)")
    g_rep.add_argument("--copies", "-g", type=_integer, required=True)
    for g in (g_mn, g_cy, g_rep):
        g.add_argument("--out", "-o", default=None, help="output file (default stdout)")
        g.set_defaults(func=cmd_gen)

    p_sim = sub.add_parser("simulate", help="run the delivery protocol end to end")
    p_sim.add_argument("file", help="array file ('-' for stdin)")
    p_sim.add_argument("--files", "-N", type=_integer, required=True)
    p_sim.add_argument("--demands", default=None, help="'random' or comma list (default ((k-1) mod N)+1)")
    p_sim.add_argument("--channel", default=None, help="channel fixture file (default seeded random)")
    p_sim.add_argument("--library", default=None, help="library fixture file (default seeded random)")
    p_sim.add_argument("--scalar", choices=("auto", EXACT, FLOAT), default="auto")
    p_sim.add_argument("--seed", type=_integer, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="CSV metric comparison at given points")
    p_cmp.add_argument("--points", default=None, help="points file: lines 'K ratio L [m]'")
    p_cmp.add_argument("--point", action="append", help="inline point 'K,ratio,L[,m]' (repeatable)")
    p_cmp.add_argument("--out", "-o", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="sweep memory ratios at fixed K and L")
    p_swp.add_argument("--users", "-K", type=_integer, required=True)
    p_swp.add_argument("--antennas", "-L", type=_integer, required=True)
    p_swp.add_argument("--m", type=_integer, default=None)
    p_swp.add_argument("--t-min", type=_integer, default=1, dest="t_min")
    p_swp.add_argument("--t-max", type=_integer, default=None, dest="t_max")
    p_swp.add_argument("--out", "-o", default=None)
    p_swp.add_argument("--plot-out", default=None, help="also write log10-F plot data CSV")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        DomainError,
        ValidationFailure,
        Infeasible,
        DimensionMismatch,
        BackendMismatch,
        engine.DegenerateChannel,
        engine.DecodeMismatch,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
