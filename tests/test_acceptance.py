"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Stated time bounds are asserted (after a warm-up call where the
bound is tight).
"""

import dataclasses
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from mapda.arrays import STAR, DomainError, Mapda, generate_mn_pda, validate
from mapda.engine import (
    ChannelMatrix,
    PacketId,
    build_instance,
    default_demands,
    make_channel,
    random_library,
    read_channel_fixture,
    run_delivery,
    synthesize_precoder,
)
from mapda.linalg import FLOAT, Infeasible
from mapda.metrics import (
    ConstraintViolation,
    SystemPoint,
    asmst_metrics,
    sci,
    scheme_metrics,
    silence_antennas,
    table_row,
)

from oracles import enumerate_deliverable_grids, vandermonde_channel

FIXTURES = Path(__file__).parent / "fixtures"

EXAMPLE1 = (
    (STAR, 1, 2, STAR, 1, 2),
    (1, STAR, 3, 1, STAR, 3),
    (2, 3, STAR, 2, 3, STAR),
)

V1 = [
    [0, Fraction(21, 4), 0, Fraction(-13, 4)],
    [Fraction(21, 4), 0, Fraction(-11, 4), 0],
    [0, Fraction(-11, 4), 0, Fraction(7, 4)],
    [Fraction(-13, 4), 0, Fraction(7, 4), 0],
]
B1 = [
    [1, Fraction(3, 2), 0, Fraction(-1, 2)],
    [Fraction(1, 2), 1, Fraction(1, 2), 0],
    [0, Fraction(1, 2), 1, Fraction(1, 2)],
    [Fraction(-1, 2), 0, Fraction(3, 2), 1],
]


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {title}: PASS")


def best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_example_validation():
    with criterion(1, "example array validation"):
        report = validate(EXAMPLE1, 2)
        assert report.ok
        assert (report.antennas, report.cols, report.rows, report.stars_per_col, report.slots) == (2, 6, 3, 1, 3)
        assert report.t == 2
        assert report.min_antennas == 2
        assert report.regular
        failing = validate(EXAMPLE1, 1)
        assert not failing.ok
        assert not failing.c4
        assert "C4 violated at s=1" in failing.failures
        assert best_time(lambda: validate(EXAMPLE1, 2)) < 1e-3


def test_criterion_2_worked_precoder():
    with criterion(2, "worked-example precoder"):
        instance = build_instance(Mapda(EXAMPLE1, 2), files=6)
        channel = read_channel_fixture(FIXTURES / "channel_2x6.txt")
        group = instance.groups[0]
        restricted = channel.matrix.take(range(2), [0, 1, 3, 4])
        assert restricted.to_rows() == [[1, 1, 1, 1], [2, 3, 4, 5]]
        pre = synthesize_precoder(group, channel)
        assert pre.matrix.to_rows() == [[Fraction(x) for x in row] for row in V1]
        assert pre.combined.to_rows() == [[Fraction(x) for x in row] for row in B1]
        assert best_time(lambda: synthesize_precoder(group, channel), 3) < 1e-2


def test_criterion_3_end_to_end_decode():
    with criterion(3, "end-to-end decode, exact and float"):
        start = time.perf_counter()
        m = Mapda(EXAMPLE1, 2)
        instance = build_instance(m, files=6)
        demands = default_demands(6, 6)

        channel = read_channel_fixture(FIXTURES / "channel_2x6.txt")
        library = random_library(6, 3, seed=2024)
        report = run_delivery(instance, channel, demands, library)
        assert report.ndt_ul == 1 and report.ndt_dl == 1
        for user in range(1, 7):
            parts = {f + 1 for f in range(3) if EXAMPLE1[f][user - 1] is not STAR}
            assert report.recovered[user] == frozenset(
                PacketId(demands[user - 1], part) for part in parts
            )

        # Float backend: 100 seeded channels and libraries, zero failures;
        # run_delivery itself enforces the relative 1e-6 decode tolerance.
        for seed in range(100):
            channel_f = make_channel(2, 6, seed=seed)
            library_f = random_library(6, 3, seed=seed, backend=FLOAT)
            report_f = run_delivery(instance, channel_f, demands, library_f)
            assert report_f.ndt_ul == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_4_complexity_fixtures():
    with criterion(4, "complexity fixtures 264 / 2115 / 0.1248"):
        p = SystemPoint(6, 2, Fraction(1, 3))
        lam_base = asmst_metrics(p).complexity
        lam_new = scheme_metrics(dataclasses.replace(p, m=2), 1).complexity
        assert lam_new == 264
        assert lam_base == 2115
        assert round(lam_new / lam_base, 4) == 0.1248


def test_criterion_5_table_reproduction():
    with criterion(5, "table reproduction and inconsistency flag"):
        row_20 = table_row(SystemPoint(20, 4, Fraction(1, 5)))
        assert row_20["F_asmst"] == "2204475"
        assert row_20["F_s1"] == "5" and row_20["m"] == "4"
        assert row_20["F_s2"] == "20"
        assert SystemPoint(20, 4, Fraction(1, 5)).alpha == 4

        p50 = SystemPoint(50, 5, Fraction(1, 5))
        m50 = asmst_metrics(p50)
        assert m50.subpacketization == math.comb(50, 10) * math.comb(39, 4)
        assert sci(m50.subpacketization) == "8.4E+14"
        assert scheme_metrics(dataclasses.replace(p50, m=5), 1).subpacketization == 45
        assert scheme_metrics(p50, 2).subpacketization == 360
        row_50 = table_row(p50)
        assert row_50["F_s3"] == "50"

        assert sci(asmst_metrics(SystemPoint(100, 5, Fraction(1, 20))).subpacketization) == "2.3E+14"

        flagged = table_row(SystemPoint(20, 5, Fraction(2, 5)))
        assert "F_asmst:formula=41570100!=published=20785050" in flagged["flags"]
        assert "F_s1:formula=" in flagged["flags"]
        assert "F_s2:formula=" in flagged["flags"]


def test_criterion_6_identity_grid():
    with criterion(6, "scheme identities on a parameter grid"):
        start = time.perf_counter()
        checked = 0
        silenced_checked = 0
        for users in range(4, 42):
            for t in range(1, users):
                for antennas in (1, 2, 3, 5, t, users - t):
                    if antennas < 1:
                        continue
                    try:
                        p = SystemPoint(users, antennas, Fraction(t, users))
                    except DomainError:
                        continue
                    for which in (1, 2, 3):
                        try:
                            metric = scheme_metrics(p, which)
                        except ConstraintViolation:
                            continue
                        assert metric.ndt == Fraction(
                            users * (users - t), users * (t + antennas)
                        )
                        assert metric.ndt == Fraction(users, 1) * (
                            1 - p.memory_ratio
                        ) / (t + antennas)
                        assert metric.sum_dof == t + antennas
                        checked += 1
                    if p.t < p.antennas:
                        silenced = silence_antennas(p)
                        try:
                            metric = scheme_metrics(silenced, 2)
                        except ConstraintViolation:
                            continue
                        assert metric.ndt == Fraction(users - t, 2 * t)
                        silenced_checked += 1
        assert checked >= 200
        assert silenced_checked >= 20
        assert time.perf_counter() - start < 1.0


def test_criterion_7_infeasibility_below_density_gate():
    with criterion(7, "low-density infeasibility witness"):
        for users in range(2, 7):
            base = generate_mn_pda(users, 1)
            forced = Mapda(base.grid, antennas=2)
            instance = build_instance(forced, files=2)
            channel = ChannelMatrix(vandermonde_channel(2, users))
            assert instance.groups, "star pattern must contain slots"
            for group in instance.groups:
                with pytest.raises(Infeasible):
                    synthesize_precoder(group, channel)


def test_criterion_8_exhaustive_small_instances():
    """Exhaustive oracle over all grids with K,F,S <= 4 passing C1-C4 at
    some L <= t.

    The delivery claim is exhaustively verified on the regime the
    construction's decodability argument covers: arrays whose every slot
    occurs exactly t+L times.  Outside that shape a validated grid can be
    undeliverable in principle (smallest case ((*,1),(2,*)) at L=1: the
    only served user of slot 1 does not cache the packet it needs, so no
    uplink signal can carry it); for those the engine must report
    Infeasible rather than mis-decode, and every feasible one must decode
    exactly for every demand vector.
    """
    with criterion(8, "exhaustive small-instance oracle"):
        start = time.perf_counter()

        # Pin the minimal counterexample to the unrestricted reading.
        tiny = Mapda(((STAR, 1), (2, STAR)), antennas=1)
        assert tiny.profile.t == 1 and not tiny.profile.regular
        with pytest.raises(Infeasible):
            synthesize_precoder(
                build_instance(tiny, 2).groups[0],
                ChannelMatrix(vandermonde_channel(1, 2)),
            )

        grids = enumerate_deliverable_grids(max_rows=4, max_cols=4, max_s=4)
        assert len(grids) > 5000

        libraries = {}
        regular_pairs = 0
        decoded_pairs = 0
        infeasible_pairs = 0
        infeasible_regular = []
        for rows, min_antennas in grids:
            n_rows, n_cols = len(rows), len(rows[0])
            grid = tuple(tuple(None if e == 0 else e for e in row) for row in rows)
            stars = sum(1 for f in range(n_rows) if grid[f][0] is None)
            for antennas in range(min_antennas, (n_cols * stars) // n_rows + 1):
                m = Mapda(grid, antennas=antennas)
                instance = build_instance(m, files=2)
                channel = ChannelMatrix(vandermonde_channel(antennas, n_cols))
                regular = m.profile.regular
                if regular:
                    regular_pairs += 1
                try:
                    precoders = [
                        synthesize_precoder(g, channel) for g in instance.groups
                    ]
                except Infeasible:
                    infeasible_pairs += 1
                    if regular:
                        infeasible_regular.append((rows, antennas))
                    continue
                if (2, n_rows) not in libraries:
                    libraries[(2, n_rows)] = random_library(2, n_rows, seed=404)
                library = libraries[(2, n_rows)]
                for demands in product((1, 2), repeat=n_cols):
                    run_delivery(
                        instance, channel, demands, library
                    )
                decoded_pairs += 1

        # Known members of the enumerated class must be present: the
        # circulant arrays fit inside the 4x4 window.  Membership is tested
        # against the full transform orbit since the dedup key is not a
        # canonical form.
        from mapda.arrays import generate_cyclic
        from oracles import orbit_keys

        keys = {rows for rows, _ in grids}
        for users, t in ((2, 1), (3, 2), (4, 2), (4, 3)):
            arr = generate_cyclic(users, t)
            as_ints = tuple(
                tuple(0 if e is None else e for e in row) for row in arr.grid
            )
            assert orbit_keys(as_ints) & keys

        assert regular_pairs >= 15
        assert decoded_pairs >= regular_pairs
        assert infeasible_regular == [], (
            "delivery failed inside the covered regime: "
            f"{infeasible_regular[:3]}"
        )
        elapsed = time.perf_counter() - start
        print(
            f"\n  [criterion 8] grids={len(grids)} decoded_pairs={decoded_pairs} "
            f"infeasible_irregular_pairs={infeasible_pairs} "
            f"regular_pairs={regular_pairs} elapsed={elapsed:.1f}s"
        )
        assert elapsed < 300.0
