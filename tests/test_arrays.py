"""Array construction, validation, generators, and file round trips."""

import itertools
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapda.arrays import (
    STAR,
    DomainError,
    Mapda,
    NonPositiveSlotId,
    ParseError,
    RaggedGrid,
    ValidationFailure,
    format_mapda,
    generate_cyclic,
    generate_mn_pda,
    header_mismatches,
    parse_mapda,
    parse_raw,
    read_mapda,
    replicate,
    validate,
    write_mapda,
)

from oracles import naive_conditions, naive_report, naive_slot_cells, token_parse_raw

FIXTURES = Path(__file__).parent / "fixtures"

# The doubled three-user star pattern: a (2,6,3,1,3) array.
EXAMPLE1 = (
    (STAR, 1, 2, STAR, 1, 2),
    (1, STAR, 3, 1, STAR, 3),
    (2, 3, STAR, 2, 3, STAR),
)


class TestValidate:
    def test_example1_passes_at_two_antennas(self):
        report = validate(EXAMPLE1, 2)
        assert report.ok
        assert (report.c1, report.c2, report.c3, report.c4) == (True,) * 4
        assert report.stars_per_col == 1
        assert report.slots == 3
        assert report.t == 2
        assert report.min_antennas == 2
        assert report.regular  # each slot occurs 4 = t+L times

    def test_example1_fails_c4_at_one_antenna(self):
        report = validate(EXAMPLE1, 1)
        assert not report.ok
        assert report.c1 and report.c2 and report.c3 and not report.c4
        assert "C4 violated at s=1" in report.failures

    def test_repeated_slot_in_column_fails_c3(self):
        report = validate(((STAR,), (1,), (1,)), 1)
        assert not report.ok
        assert not report.c3

    def test_missing_slot_id_fails_c2(self):
        report = validate(((STAR, 2), (2, STAR)), 1)
        assert not report.c2
        assert report.slots == 2

    def test_huge_slot_id_names_ten_missing_ids(self):
        start = time.perf_counter()
        report = validate(((STAR, 10**9),), 1)
        with pytest.raises(ValidationFailure) as info:
            parse_mapda(f"1 2 1 - -\n* {10**9}\n")
        assert time.perf_counter() - start < 1
        c2 = f"C2 violated: missing slot id(s) {list(range(1, 11))} and {10**9 - 11} more"
        assert c2 in report.failures
        assert c2 in str(info.value)
        assert len(str(info.value)) < 1024

    def test_unequal_star_counts_fail_c1(self):
        report = validate(((STAR, 1), (STAR, 2)), 1)
        assert not report.c1
        assert report.stars_per_col is None
        assert report.t is None

    def test_ragged_grid_rejected(self):
        with pytest.raises(RaggedGrid):
            validate(((STAR, 1), (1,)), 1)
        with pytest.raises(RaggedGrid):
            validate((), 1)

    def test_bad_entries_rejected(self):
        with pytest.raises(NonPositiveSlotId):
            validate(((0, 1),), 1)
        with pytest.raises(NonPositiveSlotId):
            validate((("x", 1),), 1)

    def test_bad_antenna_count_rejected(self):
        with pytest.raises(DomainError):
            validate(EXAMPLE1, 0)

    def test_mapda_constructor_enforces_validity(self):
        with pytest.raises(ValidationFailure):
            Mapda(EXAMPLE1, antennas=1)
        m = Mapda(EXAMPLE1, antennas=2)
        assert m.parameters() == (2, 6, 3, 1, 3)

    def test_agrees_with_naive_recheck_on_random_samples(self):
        # Soundness sweep: >= 1e5 random grids up to 5x6 over {*, 1..4},
        # mixing fully random entries with column-star-balanced draws so a
        # meaningful share reaches the later conditions.  Each draw is a few
        # C-level calls: a shape, then a grid's entries, or a column's slot
        # ids and star rows.
        rng = random.Random(12345)
        shapes = [(f, k, a) for f in range(1, 6) for k in range(1, 7) for a in range(1, 4)]
        star_rows = {
            (f, z): list(itertools.combinations(range(f), z))
            for f in range(1, 6)
            for z in range(f + 1)
        }
        checked = 0
        while checked < 100_000:
            n_rows, n_cols, antennas = rng.choice(shapes)
            if rng.random() < 0.5:
                entries = iter(rng.choices((STAR, 1, 2, 3, 4), k=n_rows * n_cols))
                grid = tuple(zip(*[entries] * n_cols))
            else:
                stars = rng.randint(0, n_rows)
                entries = iter(rng.choices((1, 2, 3, 4), k=n_rows * n_cols))
                cols = [list(column) for column in zip(*[entries] * n_rows)]
                for column, rows in zip(cols, rng.choices(star_rows[n_rows, stars], k=n_cols)):
                    for f in rows:
                        column[f] = STAR
                grid = tuple(zip(*cols))
            report = validate(grid, antennas)
            assert (report.c1, report.c2, report.c3, report.c4) == naive_conditions(
                grid, antennas
            )
            assert (
                report.min_antennas,
                report.slots,
                report.regular,
                report.failures,
            ) == naive_report(grid, antennas)
            checked += 1

    def test_slot_cells_match_column_major_scan(self):
        for m in (
            generate_mn_pda(6, 2),
            replicate(generate_mn_pda(4, 1), 2),
            generate_cyclic(6, 3),
        ):
            for s in range(1, m.slots + 1):
                assert m.slot_cells(s) == naive_slot_cells(m.grid, s)

    @pytest.mark.parametrize(
        "grid, antennas, failure",
        [
            (((STAR, 1, 3), (1, STAR, 4), (3, 4, STAR)), 1, "C2 violated: missing slot id(s) [2]"),
            (((STAR, 1, 2), (1, STAR, 2), (2, 1, STAR)), 2, "C3 violated in column 2: slot 1 repeated"),
            (EXAMPLE1, 1, "C4 violated at s=1"),
        ],
    )
    def test_failing_reports_serve_the_slot_index(self, grid, antennas, failure):
        report = validate(grid, antennas)
        assert not report.ok and failure in report.failures
        present = sorted({e for row in grid for e in row if e is not STAR})
        assert list(report.slot_index.items()) == [(s, naive_slot_cells(grid, s)) for s in present]

    def test_slot_index_is_built_on_first_read_once(self):
        report = validate(EXAMPLE1, 2)
        assert "slot_index" not in vars(report)
        index = report.slot_index
        assert vars(report)["slot_index"] is index
        assert report.slot_index is index
        assert report == validate(EXAMPLE1, 2)  # equality ignores the built index
        m = Mapda(EXAMPLE1, antennas=2)
        assert "slot_index" not in vars(m.report)
        assert m.slot_cells(2) == ((3, 1), (1, 3), (3, 4), (1, 6))
        assert m.slot_cells(4) == ()
        assert "slot_index" in vars(m.report)

    def test_mapda_keeps_one_copy_of_its_grid(self):
        # The grid the array keeps is the one its report was validated on,
        # however the rows were given.
        listed = Mapda([list(row) for row in EXAMPLE1], antennas=2)
        assert listed.grid is listed.report._grid
        assert listed == Mapda(EXAMPLE1, antennas=2)
        assert listed.grid == EXAMPLE1 and type(listed.grid[0]) is tuple

    @pytest.mark.parametrize(
        "shape, antennas, min_antennas",
        [
            ("mn(12,4)", 1, 1),
            ("replicate(mn(10,3),3)", 3, 3),
            ("replicate(mn(10,3),3)", 2, 3),
            ("cyclic(16,8)", 8, 8),
            ("cyclic(16,8)", 7, 8),
            ("cyclic(70,35)", 35, 35),
            ("cyclic(70,35)", 34, 35),
            ("replicate(mn(6,2),11)", 11, 11),
            ("replicate(mn(6,2),11)", 10, 11),
        ],
    )
    def test_benchmark_shapes_agree_with_naive_recheck(self, shape, antennas, min_antennas):
        # The benchmark's arrays, far larger than the random samples above,
        # and two arrays of more than 64 columns, so C4's column masks span
        # more than one machine word: each cyclic(70, 35) slot covers every
        # column, each replicate(mn(6, 2), 11) slot 33 of 66.  Accepted and
        # C4-rejected, as built and under a seeded row and column permutation.
        grid = {
            "mn(12,4)": lambda: generate_mn_pda(12, 4),
            "replicate(mn(10,3),3)": lambda: replicate(generate_mn_pda(10, 3), 3),
            "cyclic(16,8)": lambda: generate_cyclic(16, 8),
            "cyclic(70,35)": lambda: generate_cyclic(70, 35),
            "replicate(mn(6,2),11)": lambda: replicate(generate_mn_pda(6, 2), 11),
        }[shape]().grid
        rng = random.Random(f"{shape}:{antennas}")
        rows = rng.sample(range(len(grid)), len(grid))
        cols = rng.sample(range(len(grid[0])), len(grid[0]))
        permuted = tuple(tuple(grid[f][k] for k in cols) for f in rows)
        for g in (grid, permuted):
            report = validate(g, antennas)
            assert (report.c1, report.c2, report.c3, report.c4) == naive_conditions(g, antennas)
            assert (
                report.min_antennas,
                report.slots,
                report.regular,
                report.failures,
            ) == naive_report(g, antennas)
            assert report.min_antennas == min_antennas
            assert report.c4 == (antennas >= min_antennas)
            assert list(report.slot_index.items()) == [
                (s, naive_slot_cells(g, s)) for s in range(1, report.slots + 1)
            ]


class TestGenerators:
    def test_mn_three_users(self):
        m = generate_mn_pda(3, 1)
        assert m.grid == ((STAR, 1, 2), (1, STAR, 3), (2, 3, STAR))
        assert m.antennas == 1

    def test_mn_two_users(self):
        m = generate_mn_pda(2, 1)
        assert m.grid == ((STAR, 1), (1, STAR))

    def test_mn_counts_forced_by_binomials(self):
        m = generate_mn_pda(4, 2)
        assert m.parameters() == (1, 4, 6, 3, 4)

    @pytest.mark.parametrize("users", range(2, 7))
    def test_mn_parameter_formulas(self, users):
        for t in range(1, users):
            m = generate_mn_pda(users, t)
            assert m.stars_per_col == math.comb(users - 1, t - 1)
            assert m.slots == math.comb(users, t + 1)
            assert m.profile.min_antennas == 1
            counts = {}
            for row in m.grid:
                for e in row:
                    if e is not STAR:
                        counts[e] = counts.get(e, 0) + 1
            assert set(counts.values()) == {t + 1}
            assert m.profile.regular  # t+L = t+1 at one antenna

    def test_mn_domain_errors(self):
        with pytest.raises(DomainError):
            generate_mn_pda(2, 2)
        with pytest.raises(DomainError):
            generate_mn_pda(3, 0)

    def test_replicate_doubling_gives_example1(self):
        m = replicate(generate_mn_pda(3, 1), 2)
        assert m.grid == EXAMPLE1
        assert m.parameters() == (2, 6, 3, 1, 3)

    def test_replicate_identity(self):
        base = generate_cyclic(5, 2)
        assert replicate(base, 1) == base

    def test_replicate_mn_two_users_three_copies(self):
        m = replicate(generate_mn_pda(2, 1), 3)
        assert m.parameters() == (3, 6, 2, 1, 1)

    def test_replicate_scales_sum_dof_of_mn(self):
        for users in range(2, 7):
            for t in range(1, users):
                base = generate_mn_pda(users, t)
                for copies in (2, 3):
                    assert (
                        replicate(base, copies).profile.sum_dof
                        == base.profile.sum_dof * copies
                    )

    def test_replicate_domain_error(self):
        with pytest.raises(DomainError):
            replicate(generate_mn_pda(2, 1), 0)

    def test_cyclic_six_users(self):
        m = generate_cyclic(6, 3)
        assert m.parameters() == (3, 6, 6, 3, 3)
        assert m.profile.sum_dof == 6

    def test_cyclic_smallest(self):
        assert generate_cyclic(2, 1).grid == ((STAR, 1), (1, STAR))

    def test_cyclic_four_users(self):
        m = generate_cyclic(4, 2)
        assert m.stars_per_col == 2
        assert m.slots == 2
        counts = {}
        for row in m.grid:
            for e in row:
                if e is not STAR:
                    counts[e] = counts.get(e, 0) + 1
        assert counts == {1: 4, 2: 4}
        assert m.profile.regular

    @pytest.mark.parametrize("users", range(2, 13))
    def test_cyclic_profile_sweep(self, users):
        for t in range(1, users):
            m = generate_cyclic(users, t)
            profile = m.profile
            assert m.parameters() == (users - t, users, users, t, users - t)
            assert profile.t == t
            assert profile.sum_dof == users
            assert profile.regular

    def test_min_antennas_fixtures(self):
        assert Mapda(EXAMPLE1, 2).profile.min_antennas == 2
        assert generate_mn_pda(5, 2).profile.min_antennas == 1


class TestFileFormat:
    def test_example1_file_parses(self):
        m = read_mapda(FIXTURES / "example1.mapda")
        assert m.grid == EXAMPLE1
        assert m.antennas == 2

    def test_round_trip(self, tmp_path):
        for m in (generate_cyclic(6, 3), Mapda(EXAMPLE1, 2), generate_mn_pda(4, 2)):
            path = tmp_path / "array.mapda"
            write_mapda(m, path)
            again = read_mapda(path)
            assert again.grid == m.grid
            assert again == m

    def test_derive_markers(self):
        m = parse_mapda("1 2 2 - -\n* 1\n1 *\n")
        assert m.parameters() == (1, 2, 2, 1, 1)

    def test_zero_entry_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_mapda("1 2 2 - -\n* 0\n1 *\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_mapda("1 2\n* 1\n1 *\n")
        with pytest.raises(ParseError):
            parse_mapda("a 2 2 - -\n* 1\n1 *\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_mapda("1 2 3 - -\n* 1\n1 *\n")

    def test_column_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_mapda("1 2 2 - -\n* 1 2\n1 *\n")

    def test_declared_parameter_mismatch(self):
        with pytest.raises(ValidationFailure):
            parse_mapda("1 2 2 2 -\n* 1\n1 *\n")
        with pytest.raises(ValidationFailure):
            parse_mapda("1 2 2 - 9\n* 1\n1 *\n")

    def test_invalid_grid_fails_validation(self):
        with pytest.raises(ValidationFailure):
            parse_mapda("1 1 3 - -\n*\n1\n1\n")

    def test_header_z_not_compared_when_c1_fails(self):
        _, header, grid = parse_raw("1 2 2 1 -\n* 1\n* 2\n")
        report = validate(grid, 1)
        assert not report.c1
        assert header_mismatches(header, report) == []

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\n1 2 2 1 1\n# body\n* 1\n\n1 *\n"
        assert parse_mapda(text).parameters() == (1, 2, 2, 1, 1)

    def test_writer_emits_explicit_parameters(self):
        text = format_mapda(generate_cyclic(4, 2))
        assert text.splitlines()[0] == "2 4 4 2 2"

    def test_line_reader_fails_as_the_token_reader(self):
        # Seeded well-formed array texts and corrupted copies: a bad token,
        # a short line, or both on different lines in either order.  The
        # reader converts a line at a time; the oracle reads every token
        # through _parse_entry.  Both give the same grid or the same first
        # error, so a reader that checked every line's length before
        # converting any would fail the two-fault cases.
        rng = random.Random(2028)
        entries = ("*", "*", "1", "2", "7", "30", "+3", "007")
        bad = ("x", "1.5", "**", "2*", "0", "-0", "-3", "9" * 5000, "1_0", "\u0663")
        seen = {"rows": 0, "bad entry": 0, "slot ids start at 1": 0, "digits": 0, "expected": 0}
        for _ in range(3000):
            n_rows, n_cols = rng.randint(1, 6), rng.randint(2, 6)
            body = [[rng.choice(entries) for _ in range(n_cols)] for _ in range(n_rows)]
            faults = rng.choice(((), ("token",), ("short",), ("token", "short")))
            for fault, row in zip(faults, rng.sample(range(n_rows), min(len(faults), n_rows))):
                if fault == "token":
                    body[row][rng.randrange(n_cols)] = rng.choice(bad)
                else:
                    del body[row][rng.randrange(n_cols)]
            lines = [rng.choice((" ", "\t", "  ")).join(row) + "\n" * rng.randint(1, 2) for row in body]
            header = f"2 {n_cols} {n_rows} {rng.choice(('-', '1'))} {rng.choice(('-', '4'))}\n"
            text = "# array\n" * rng.randint(0, 1) + header + "".join(lines)
            try:
                expected = token_parse_raw(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    parse_raw(text)
                assert str(info.value) == str(exc)
                seen[next(key for key in seen if key in str(exc))] += 1
            else:
                assert parse_raw(text) == expected
                seen["rows"] += 1
        assert min(seen.values()) >= 100, seen


@st.composite
def generated_arrays(draw):
    """An mn or cyclic array, replicated one to three times."""
    generator = draw(st.sampled_from((generate_mn_pda, generate_cyclic)))
    users = draw(st.integers(2, 7 if generator is generate_mn_pda else 12))
    t = draw(st.integers(1, users - 1))
    return replicate(generator(users, t), draw(st.integers(1, 3)))


small_grids = st.integers(1, 5).flatmap(
    lambda n_rows: st.integers(1, 6).flatmap(
        lambda n_cols: st.lists(
            st.tuples(*[st.sampled_from((STAR, 1, 2, 3, 4))] * n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
)


class TestProperties:
    @settings(max_examples=100)
    @given(generated_arrays())
    def test_format_parse_round_trip(self, m):
        text = format_mapda(m)
        again = parse_mapda(text)
        assert again == m
        assert format_mapda(again) == text

    @settings(max_examples=200)
    @given(small_grids, st.integers(1, 3))
    def test_validate_agrees_with_naive_conditions(self, grid, antennas):
        report = validate(grid, antennas)
        conditions = naive_conditions(grid, antennas)
        assert (report.c1, report.c2, report.c3, report.c4) == conditions
        assert report.ok == all(conditions)

    @settings(max_examples=20)
    @given(st.integers(0, 5), st.integers(10**9, 10**12))
    def test_huge_declared_row_count_fails_fast(self, comments, declared):
        text = "# c\n" * comments + f"1 2 {declared} - -\n* 1\n1 *\n"
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"^line {comments + 1}: header declares {declared} rows"):
            parse_mapda(text)
        assert time.perf_counter() - start < 0.1
