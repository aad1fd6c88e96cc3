"""Exact and float matrix arithmetic, the solver, and rank."""

import random
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np
import pytest
import sympy

from mapda import linalg
from mapda.linalg import (
    EXACT,
    FLOAT,
    BackendMismatch,
    DimensionMismatch,
    Matrix,
    _exact_quotients,
    _solve_rows,
    conj_transpose,
    count_ops,
    isolate,
    matmul,
    solve,
)

from oracles import (
    as_vector,
    assert_float_rows,
    flat_entries,
    loop_matmul_float,
    loop_solve_float,
    naive_solve_exact,
    rank,
)

# Gram matrix of the 2x4 uplink channel [[1,1,1,1],[2,3,4,5]], worked out
# by hand: entry (i,j) = 1 + h_i*h_j with h = (2,3,4,5).
CHANNEL_2X4 = [[1, 1, 1, 1], [2, 3, 4, 5]]
GRAM_4X4 = [
    [5, 7, 9, 11],
    [7, 10, 13, 16],
    [9, 13, 17, 21],
    [11, 16, 21, 26],
]


def frac_matrix(rows):
    return Matrix.from_rows(rows, EXACT)


def identity(n):
    return frac_matrix([[int(i == j) for j in range(n)] for i in range(n)])


def random_rational(rng):
    """Mixed-sign rational with a random denominator; zero one time in four."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def random_system(rng):
    """(A rows, B rows) of a random shape: square, tall or wide, sometimes
    rank-deficient (rows drawn from fewer independent ones, so a random
    right-hand side is usually inconsistent) or holding an all-zero row."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 6)
    if rng.random() < 0.4:
        base = [[random_rational(rng) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        a = []
        for _ in range(n):
            # One coefficient per base row: the row is their combination.
            coefs = [random_rational(rng) for _ in base]
            a.append(
                [sum((c * row[j] for c, row in zip(coefs, base)), Fraction(0)) for j in range(m)]
            )
    else:
        a = [[random_rational(rng) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.3:
        a[rng.randrange(n)] = [Fraction(0)] * m
    width = rng.randint(1, 3)
    b = [[random_rational(rng) for _ in range(width)] for _ in range(n)]
    return a, b


def random_complex(rng):
    return complex(rng.gauss(0, 1), rng.gauss(0, 1))


def float_rows(rows):
    return Matrix.from_rows(rows, FLOAT)


def bits(z):
    return z.real.hex(), z.imag.hex()


def float_system(rng, kind):
    """(A rows, B rows) of one kind of float system for the kernel oracles."""
    if kind == "slot":
        # A deliver-float column system: 3 equations over 9 cacher
        # positions, one unit right-hand side per member of the cache group.
        a = [[random_complex(rng) for _ in range(9)] for _ in range(3)]
        return a, [[complex(i == j) for j in range(3)] for i in range(3)]
    n = rng.randint(2 if kind == "deficient" else 1, 6)
    m = {"square": n, "wide": rng.randint(n, 8)}.get(kind, rng.randint(2, 6))
    a = [[random_complex(rng) for _ in range(m)] for _ in range(n)]
    if kind == "free":
        # Zero and repeated columns: free variables between pivot columns.
        for c in rng.sample(range(m), rng.randint(1, m - 1)):
            a_col = [0j] * n if rng.random() < 0.5 else [row[rng.randrange(m)] for row in a]
            for row, e in zip(a, a_col):
                row[c] = e
    if kind == "deficient":
        # Each row a combination of fewer independent rows.
        rank_ = rng.randint(1, min(n, m) - 1)
        base = [[random_complex(rng) for _ in range(m)] for _ in range(rank_)]
        a = []
        for _ in range(n):
            weights = [random_complex(rng) for _ in base]
            a.append([sum((w * row[j] for w, row in zip(weights, base)), 0j) for j in range(m)])
    width = rng.randint(1, 3)
    if kind == "deficient" and rng.random() < 0.5:
        # A random right-hand side is inconsistent; one from A is not.
        return a, [[random_complex(rng) for _ in range(width)] for _ in range(n)]
    b = loop_matmul_float(a, [[random_complex(rng) for _ in range(width)] for _ in range(m)])
    if rng.random() < 0.5:
        # A zero right-hand side (of either sign): every solution entry is
        # an exact zero, where dropping free-variable terms shows.
        zero = rng.choice([0j, complex(-0.0, -0.0)])
        for row in b:
            row[0] = zero
    return a, b


class TestFloatKernelOracles:
    """The float kernels against their loop forms in ``oracles``: the same
    products in the same order, so the same bits."""

    def test_matmul_bit_identical_to_running_sum(self):
        rng = random.Random(101)
        shapes = [(12, 3, 3), (12, 12, 1), (3, 9, 3)] * 20
        shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(160)]
        for n, k, m in shapes:
            a = [[random_complex(rng) for _ in range(k)] for _ in range(n)]
            b = [[random_complex(rng) for _ in range(m)] for _ in range(k)]
            got = matmul(float_rows(a), float_rows(b))
            want = [z for row in loop_matmul_float(a, b) for z in row]
            assert [bits(z) for z in flat_entries(got)] == [bits(z) for z in want]

    def test_solve_bit_identical_to_full_back_substitution(self):
        # ``_solve_rows`` back-substitutes over pivot columns, dropping the
        # products of free variables, which are exact zeros, and returns x
        # at the pivot columns alone.  Subtracting such a zero product can
        # only flip the sign of an exact zero, so components that are zero
        # in the oracle are compared with ==; every other component must
        # have the same bits.
        rng = random.Random(103)
        kinds = ["slot", "square", "wide", "free", "deficient"]
        seen = dict.fromkeys(kinds + ["infeasible"], 0)
        for case in range(250):
            kind = kinds[case % len(kinds)]
            a, b = float_system(rng, kind)
            want = loop_solve_float(a, b)
            rows = [[*a_row, *b_row] for a_row, b_row in zip(a, b)]
            flagged, pivot_cols, x, det = _solve_rows(rows, len(a[0]), FLOAT)
            assert det == 1
            if want is None:
                seen["infeasible"] += 1
                assert flagged
                continue
            seen[kind] += 1
            assert flagged == []
            assert not any(any(row) for c, row in enumerate(want) if c not in pivot_cols)
            for got, expected in zip(x, (want[c] for c in pivot_cols)):
                assert_same_bits_but_zero_signs(got, expected)
        assert min(seen.values()) >= 15, seen


def assert_same_bits_but_zero_signs(got, want):
    """Each component has the bits of the oracle's, but an exact zero may
    differ in sign."""
    for z, w in zip(got, want, strict=True):
        for part, want_part in ((z.real, w.real), (z.imag, w.imag)):
            if want_part == 0:
                assert part == want_part
            else:
                assert part.hex() == want_part.hex()


def unit_system(rng, kind, entry):
    """(A rows, units) of one kind of column system: ``units`` are the rows
    of A whose unit right-hand sides a case reads."""
    if kind == "slot":
        # A deliver-float column system: 3 equations over 9 cacher
        # positions, one unit right-hand side per member of the cache group.
        return [[entry(rng) for _ in range(9)] for _ in range(3)], [0, 1, 2]
    n = rng.randint(3 if kind == "deficient" else 2 if kind == "tall" else 1, 5)
    low, high = {"square": (n, n), "wide": (n + 1, 8), "tall": (1, n - 1), "free": (n + 2, 8)}.get(
        kind, (n, 8)
    )
    m = rng.randint(low, high)
    a = [[entry(rng) for _ in range(m)] for _ in range(n)]
    units = rng.sample(range(n), rng.randint(1, min(3, n)))
    if kind == "free":
        # Zero and repeated columns between pivot columns; n columns stay.
        for c in rng.sample(range(m), m - n):
            copy = rng.randrange(m)
            for row in a:
                row[c] = 0 * row[c] if rng.random() < 0.5 else row[copy]
    if kind == "deficient":
        # Rows outside the first k, which hold the units, are multiples of
        # row k (or zero): rank k + 1 < n.  A unit on one of them is
        # inconsistent, one unit in two.
        k = rng.randint(1, n - 2)
        for row in a[k + 1 :]:
            factor = entry(rng)
            row[:] = [factor * e for e in a[k]]
        units = rng.sample(range(k), min(k, 2))
        if rng.random() < 0.5:
            units.append(rng.randrange(k + 1, n))
    return a, units


def embed(rng, a, entry):
    """A square block holding ``a`` at random distinct rows and columns,
    with random entries elsewhere; returns (block rows, rows, columns)."""
    size = max(len(a), len(a[0])) + rng.randint(0, 3)
    rows = rng.sample(range(size), len(a))
    cols = rng.sample(range(size), len(a[0]))
    block = [[entry(rng) for _ in range(size)] for _ in range(size)]
    for values, l in zip(a, rows):
        for e, i in zip(values, cols):
            block[l][i] = e
    return block, rows, cols


class TestColumnKernels:
    """``solve`` against the oracles, column by column, with the op counts
    of ``_solve_rows`` and of B's summed terms, and ``isolate`` against its
    loop form.  Each case reads the columns of its ``units``: the full solve
    is one elimination, so they are what a solve for them alone gives."""

    KINDS = ["slot", "square", "wide", "tall", "free", "deficient"]

    def column_system(self, rng, kind, entry, matrix):
        """(block, equation rows, unknowns, units, a): ``units`` index a's
        rows, which are the block's ``equations`` over its ``unknowns``."""
        a, units = unit_system(rng, kind, entry)
        block, equations, unknowns = embed(rng, a, entry)
        return matrix(block), equations, unknowns, units, a

    @staticmethod
    def counts(block, equations, unknowns, support):
        """``_solve_rows``'s tally on the system against the identity over
        its equation rows, a unit entering at the block's denominator, plus
        B's summed terms over the support: every row on floats, the rows
        outside the equations on the exact backend."""
        rows, den = block._rows
        exact, n = block.backend == EXACT, len(equations)
        unit, zero = (den, 0) if exact else (complex(1), complex(0))
        system = [
            [rows[l][i] for i in unknowns] + [unit if k == j else zero for j in range(n)]
            for k, l in enumerate(equations)
        ]
        with count_ops() as tally:
            _solve_rows(system, len(unknowns), block.backend)
        terms = (block.n_rows - n if exact else block.n_rows) * n
        return tally.mul + terms * len(support), tally.add + terms * max(len(support) - 1, 0)

    def test_float_matches_solve_matmul_and_oracles(self):
        rng = random.Random(107)
        seen = dict.fromkeys(self.KINDS + ["infeasible", "partial"], 0)
        for case in range(300):
            kind = self.KINDS[case % len(self.KINDS)]
            block, equations, unknowns, units, a = self.column_system(
                rng, kind, random_complex, float_rows
            )
            n = len(equations)
            with count_ops() as tally:
                flagged, support, x_rows, b_cols, *dens = solve(block, equations, unknowns)
            # solve flags the right-hand sides that the oracle, run on each
            # alone, finds no solution for.
            alone = [loop_solve_float(a, [[complex(l == j)] for l in range(n)]) for j in range(n)]
            assert flagged == [j for j, x in enumerate(alone) if x is None]
            counts = self.counts(block, equations, unknowns, support)
            assert ((tally.mul, tally.add), dens) == (counts, [1, 1])
            # B is the running-sum product over the support, in every column.
            columns = [[row[i] for i in support] for row in block.to_rows()]
            product = loop_matmul_float(columns, x_rows)
            assert [[bits(z) for z in col] for col in b_cols] == [
                [bits(row[j]) for row in product] for j in range(n)
            ]
            picked = [j for j in units if j in flagged]
            if picked:
                seen["infeasible"] += 1
                seen["partial"] += len(picked) < len(units)
                continue
            seen[kind] += 1
            # The oracle, full back-substitution, whose exact zeros may
            # differ in sign, in each column read.
            for j in units:
                column = dict(zip(unknowns, (v for (v,) in alone[j])))
                assert not any(column[i] for i in unknowns if i not in support)
                assert_same_bits_but_zero_signs([row[j] for row in x_rows], map(column.get, support))
            if not flagged:
                assert support == [i for k, i in enumerate(unknowns) if any(x[k][0] for x in alone)]
        # A tall system rarely has a solution for a unit right-hand side;
        # it counts among the infeasible ones.
        seen.pop("tall")
        assert min(seen.values()) >= 15, seen

    def test_exact_matches_solve_matmul_and_fraction_elimination(self):
        rng = random.Random(109)
        seen = dict.fromkeys(self.KINDS + ["infeasible", "partial"], 0)

        def inherited(rows):
            # A block taken from a wider parent keeps the parent's denominator.
            parent = frac_matrix([row + [random_rational(rng)] for row in rows])
            return parent.take(range(len(rows)), range(len(rows[0])))

        for case in range(300):
            kind = self.KINDS[case % len(self.KINDS)]
            block, equations, unknowns, units, a = self.column_system(
                rng, kind, random_rational, inherited
            )
            n = len(equations)
            with count_ops() as tally:
                flagged, support, x_ints, b_ints, det, b_den = solve(block, equations, unknowns)
            assert all(type(e) is int for part in [[det, b_den], *x_ints, *b_ints] for e in part)
            # x's rows are over det, B over the block's denominator times det.
            assert b_den == block._rows[1] * det
            x_rows = [[Fraction(v, det) for v in values] for values in x_ints]
            b_cols = [[Fraction(v, b_den) for v in col] for col in b_ints]
            # B's equation rows are read from the right-hand side, not summed.
            assert (tally.mul, tally.add) == self.counts(block, equations, unknowns, support)
            # solve flags the right-hand sides that the oracle, run on each
            # alone, finds no solution for, and solves the others as the
            # oracle does; B is the block times x over the support there.
            alone = [naive_solve_exact(a, [[Fraction(l == j)] for l in range(n)]) for j in range(n)]
            assert flagged == [j for j, x in enumerate(alone) if x is None]
            for j, x in enumerate(alone):
                if x is None:
                    continue
                column = dict(zip(unknowns, (values[0] for values in x)))
                assert [row[j] for row in x_rows] == [column[i] for i in support]
                assert not any(column[i] for i in unknowns if i not in support)
                assert b_cols[j] == [
                    sum((row[i] * column[i] for i in support), Fraction(0))
                    for row in block.to_rows()
                ]
            picked = [j for j in units if j in flagged]
            if picked:
                seen["infeasible"] += 1
                seen["partial"] += len(picked) < len(units)
                continue
            seen[kind] += 1
            if not flagged:
                assert support == [i for k, i in enumerate(unknowns) if any(x[k][0] for x in alone)]
        # A tall system rarely has a solution for a unit right-hand side;
        # it counts among the infeasible ones.
        seen.pop("tall")
        assert min(seen.values()) >= 15, seen

    def test_isolate_matches_loop_form(self):
        rng = random.Random(113)
        for _ in range(150):
            n = rng.randint(1, 8)
            known = [
                sorted(rng.sample([j for j in range(n) if j != l], rng.randint(0, n - 1)))
                for l in range(n)
            ]
            for entry, backend in ((random_complex, FLOAT), (random_rational, EXACT)):
                rows = [[entry(rng) for _ in range(n + 1)] for _ in range(n)]
                for l, row in enumerate(rows):
                    row[l] = row[l] or entry(rng) or 1
                # The extra column gives b its parent's denominator.
                b = Matrix.from_rows(rows, backend).take(range(n), range(n))
                w = [entry(rng) for _ in range(n)]
                y = [entry(rng) for _ in range(n)]
                want = []
                for l in range(n):
                    acc = y[l]
                    for j in known[l]:
                        acc = acc - rows[l][j] * w[j]
                    want.append(acc / rows[l][l])
                # isolate reads, for each column j, the rows that know it.
                cachers = [[l for l in range(n) if j in known[l]] for j in range(n)]
                with count_ops() as tally:
                    got = isolate(b, as_vector(w, backend), as_vector(y, backend), cachers)
                n_known = sum(map(len, known))
                assert (tally.mul, tally.add) == (n_known + n, n_known)
                if backend == FLOAT:
                    assert [bits(z) for z in got] == [bits(z) for z in want]
                else:
                    assert got == want and all(type(e) is Fraction for e in got)


class TestMatmul:
    def test_identity(self):
        m = frac_matrix([[1, 2], [3, 4]])
        assert matmul(identity(2), m) == m
        assert matmul(m, identity(2)) == m

    def test_gram_fixture(self):
        h = frac_matrix(CHANNEL_2X4)
        assert matmul(conj_transpose(h), h) == frac_matrix(GRAM_4X4)

    def test_one_by_one(self):
        a = frac_matrix([[Fraction(3, 4)]])
        b = frac_matrix([[Fraction(2, 3)]])
        assert matmul(a, b) == frac_matrix([[Fraction(1, 2)]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(frac_matrix([[1, 2]]), frac_matrix([[1, 2]]))

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatch):
            matmul(frac_matrix([[1]]), Matrix.from_rows([[1.0]], FLOAT))

    def test_associativity_on_random_chains(self):
        rng = random.Random(7)
        for _ in range(50):
            dims = [rng.randint(1, 4) for _ in range(4)]
            mats = [
                frac_matrix(
                    [
                        [
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(dims[i + 1])
                        ]
                        for _ in range(dims[i])
                    ]
                )
                for i in range(3)
            ]
            a, b, c = mats
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))

    def test_exact_matches_naive_fraction_sums(self):
        rng = random.Random(19)
        for _ in range(200):
            n, k, m = (rng.randint(1, 6) for _ in range(3))
            a = [[random_rational(rng) for _ in range(k)] for _ in range(n)]
            b = [[random_rational(rng) for _ in range(m)] for _ in range(k)]
            product = matmul(frac_matrix(a), frac_matrix(b))
            expected = [
                [sum((a[i][x] * b[x][j] for x in range(k)), Fraction(0)) for j in range(m)]
                for i in range(n)
            ]
            assert product.to_rows() == expected
            assert all(type(e) is Fraction for e in flat_entries(product))


class TestConjTranspose:
    def test_real_matrix_plain_transpose(self):
        m = frac_matrix([[1, 2, 3], [4, 5, 6]])
        assert conj_transpose(m) == frac_matrix([[1, 4], [2, 5], [3, 6]])

    def test_imaginary_unit(self):
        m = Matrix.from_rows([[1j]], FLOAT)
        assert conj_transpose(m).to_rows() == [[-1j]]

    def test_involution(self):
        m = Matrix.from_rows([[1 + 2j, 3], [0.5j, -1]], FLOAT)
        assert conj_transpose(conj_transpose(m)) == m


def solve_all(a):
    """``solve`` over all of a's rows and columns."""
    return solve(a, list(range(a.n_rows)), list(range(a.n_cols)))


def full_x(solution, n_cols):
    """x as Fractions over every unknown, zero off the support, from an
    exact ``solve`` over all of a's columns."""
    _, support, x_rows, b_cols, det, _ = solution
    x = [[Fraction(0)] * len(b_cols) for _ in range(n_cols)]
    for i, values in zip(support, x_rows):
        x[i] = [Fraction(v, det) for v in values]
    return x


def as_fractions(solution):
    """An exact ``solve``'s result with x and B as Fractions."""
    flagged, support, x_rows, b_cols, x_den, b_den = solution
    x = [[Fraction(v, x_den) for v in row] for row in x_rows]
    return flagged, support, x, [[Fraction(v, b_den) for v in col] for col in b_cols]


class TestSolve:
    def test_identity_system(self):
        got = solve_all(identity(2))
        assert got == ([], [0, 1], [[1, 0], [0, 1]], [[1, 0], [0, 1]], 1, 1)

    def test_worked_column_system(self):
        # {7 v2 + 11 v4 = 1, 13 v2 + 21 v4 = 0} and the unit in the second
        # row: determinant 4, so by Cramer's rule v2 = 21/4 and v4 = -13/4
        # in the first column, -11/4 and 7/4 in the second.
        flagged, support, x_rows, b_cols, x_den, b_den = solve_all(frac_matrix([[7, 11], [13, 21]]))
        assert (flagged, support, x_den, b_den) == ([], [0, 1], 4, 4)
        assert x_rows == [[21, -11], [-13, 7]]
        assert b_cols == [[4, 0], [0, 4]]

    def test_free_variables_zeroed(self):
        # x1 is free: it is zero and left out of the support.
        assert solve_all(frac_matrix([[1, 1]]))[:3] == ([], [0], [[1]])

    def test_inconsistent_column_named(self):
        # The unit in row 0 lies in a's column space; the one in the zero
        # row 1 does not.  solve names it and raises nothing, and its x
        # solves the pivot row alone.
        for backend in (EXACT, FLOAT):
            a = Matrix.from_rows([[1, 2], [0, 0]], backend)
            flagged, support, x_rows, _, x_den, _ = solve_all(a)
            assert (flagged, support) == ([1], [0])
            assert [[v / x_den for v in row] for row in x_rows] == [[1, 0]]

    @pytest.mark.parametrize("scale", [1e-100, 1e-12, 1e-5, 1.0, 1e100])
    def test_float_pivots_are_relative_to_the_systems_scale(self, scale):
        # A pivot is tested against the system's largest |entry|, and a unit
        # right-hand side against 1, so a scaled system keeps its pivots:
        # a generic one solves to the scaled inverse, a singular one names
        # both units.  Below 1e-9 a generic system was once called singular.
        generic = Matrix.from_rows([[2 * scale, scale], [scale, 3 * scale]], FLOAT)
        flagged, support, x_rows, _, x_den, _ = solve_all(generic)
        assert (flagged, support, x_den) == ([], [0, 1], 1)
        inverse = [[0.6, -0.2], [-0.2, 0.4]]
        assert all(
            abs(x * scale - want) <= 1e-15 for row, wants in zip(x_rows, inverse) for x, want in zip(row, wants)
        )
        singular = Matrix.from_rows([[scale, 2 * scale], [2 * scale, 4 * scale]], FLOAT)
        assert solve_all(singular)[:2] == ([0, 1], [0])

    def test_exact_solutions_satisfy_system(self):
        rng = random.Random(11)
        solved = 0
        while solved < 60:
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-10, 10)) for _ in range(m)] for _ in range(n)]
            solution = solve_all(frac_matrix(rows))
            x = full_x(solution, m)
            for j in range(n):
                unit = [int(l == j) for l in range(n)]
                if j in solution[0]:
                    # Verified independently: inconsistency means augmenting
                    # raises the rank.
                    sa = sympy.Matrix(rows)
                    assert sa.rank() < sa.row_join(sympy.Matrix(unit)).rank()
                    continue
                assert [sum(map(mul, row, (x_i[j] for x_i in x))) for row in rows] == unit
            solved += not solution[0]

    def test_exact_matches_fraction_elimination_oracle(self):
        rng = random.Random(47)
        kinds = {"solved": 0, "infeasible": 0, "square": 0, "tall": 0, "wide": 0, "deficient": 0}
        for _ in range(400):
            a, _ = random_system(rng)
            n, m = len(a), len(a[0])
            kinds["square" if n == m else "tall" if n > m else "wide"] += 1
            units = [[Fraction(l == j) for j in range(n)] for l in range(n)]
            expected = naive_solve_exact(a, units)
            a_rank = sympy.Matrix(a).rank()
            kinds["deficient"] += a_rank < min(n, m)
            assert rank(frac_matrix(a)) == a_rank
            solution = solve_all(frac_matrix(a))
            flagged, _, x_rows, b_cols, det, b_den = solution
            assert all(type(e) is int for part in [[det, b_den], *x_rows, *b_cols] for e in part)
            # Each right-hand side is flagged, or solved, as the oracle finds
            # it alone.
            x = full_x(solution, m)
            for j in range(n):
                want = naive_solve_exact(a, [[row[j]] for row in units])
                assert (j in flagged) == (want is None)
                if want is not None:
                    assert [x_i[j] for x_i in x] == [w for (w,) in want]
            if expected is None:
                kinds["infeasible"] += 1
                continue
            kinds["solved"] += 1
            assert x == expected
        # Every kind of system the loop is meant to cover occurred.
        assert min(kinds.values()) >= 20, kinds

    def test_pivot_ties_take_the_first_row(self):
        # Column 0 holds x above ix, then x above -x: equal magnitudes, other
        # values.  solve pivots on the first of them.  Pivoting on the
        # second gives other bits: -0.0 for the imaginary part of x[0][0] in
        # the first system, other last digits in the second.
        def from_hex(*parts):
            return complex(float.fromhex(parts[0]), float.fromhex(parts[1]))

        cases = [
            (
                [[1 + 1j, 2 - 1j], [-1 + 1j, 3]],
                [[0.75 + 0j, -0.5 + 0.25j], [0.25 - 0.25j, 0.25 + 0.25j]],
            ),
            (
                [[1 + 1j, 2 - 1j], [-1 - 1j, 3]],
                [
                    [
                        from_hex("0x1.6276276276276p-2", "-0x1.d89d89d89d89fp-3"),
                        from_hex("-0x1.3b13b13b13b13p-3", "0x1.13b13b13b13b0p-2"),
                    ],
                    [
                        from_hex("0x1.89d89d89d89d8p-3", "0x1.3b13b13b13b14p-5"),
                        from_hex("0x1.89d89d89d89d8p-3", "0x1.3b13b13b13b14p-5"),
                    ],
                ],
            ),
        ]
        for a, want in cases:
            flagged, support, x_rows, *_ = solve_all(float_rows(a))
            assert (flagged, support) == ([], [0, 1])
            assert [[bits(z) for z in row] for row in x_rows] == [
                [bits(z) for z in row] for row in want
            ]

    def test_support_keeps_a_pivot_where_one_column_is_zero(self):
        # Unknowns 3 and 1 of the block are the pivot columns of the system
        # [[1, 1], [0, 1]] over its rows 2 and 3.  The unit in row 2 solves
        # to x = (1, 0), the one in row 3 to (-1, 1): both unknowns are in
        # the support, and the first column reads an exact zero at
        # unknown 1, where B sums a zero term.
        block_rows = [[5, 6, 7, 8], [9, 0, 2, 4], [3, 1, 6, 1], [2, 1, 3, 0]]
        for backend in (EXACT, FLOAT):
            block = Matrix.from_rows(block_rows, backend)
            flagged, support, x_rows, b_cols, x_den, b_den = solve(block, [2, 3], [3, 1])
            assert (flagged, support) == ([], [3, 1])
            assert [[v / x_den for v in row] for row in x_rows] == [[1, -1], [0, 1]]
            assert [[v / b_den for v in col] for col in b_cols] == [[8, 4, 1, 0], [-2, -4, 0, 1]]
            if backend == FLOAT:
                assert bits(x_rows[1][0]) == bits(0j)

    def test_free_variables_between_pivots_are_zero(self):
        # Column 1 is twice column 0 and column 3 is zero, so x1 and x3 are
        # free between and after the pivot columns 0 and 2: they are zero
        # and left out of the support.  x is the inverse of [[1, 3], [2, 7]].
        a_rows = [[1, 2, 3, 0], [2, 4, 7, 0]]
        for backend in (EXACT, FLOAT):
            flagged, support, x_rows, _, x_den, _ = solve_all(Matrix.from_rows(a_rows, backend))
            assert (flagged, support) == ([], [0, 2])
            assert [[v / x_den for v in row] for row in x_rows] == [[7, -3], [-2, 1]]

    def test_inexact_integer_division_raises(self):
        assert _exact_quotients([-12], 4) == [-3]
        with pytest.raises(ArithmeticError):
            _exact_quotients([7], 2)

    def test_float_matches_exact_on_well_conditioned_systems(self):
        rng = random.Random(23)
        compared = 0
        while compared < 40:
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n)]
                for _ in range(n)
            ]
            cond = np.linalg.cond(np.array(rows, dtype=float))
            if not np.isfinite(cond) or cond >= 1e6:
                continue
            exact = full_x(solve_all(frac_matrix(rows)), n)
            flagged, support, approx, *_ = solve_all(Matrix.from_rows(rows, FLOAT))
            assert (flagged, support) == ([], list(range(n)))
            for want, got in zip(exact, approx):
                for w, z in zip(want, got):
                    assert abs(complex(w) - z) <= 1e-6
            compared += 1

    def test_float_residual_bound(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 6)
            rows = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]
            if np.linalg.cond(np.array(rows)) >= 1e6:
                continue
            flagged, support, x_rows, *_ = solve_all(Matrix.from_rows(rows, FLOAT))
            assert (flagged, support) == ([], list(range(n)))
            product = loop_matmul_float([[complex(e) for e in row] for row in rows], x_rows)
            residual = max(abs(product[i][j] - (i == j)) for i in range(n) for j in range(n))
            assert residual <= 1e-9
            checked += 1


class TestIntegerRows:
    """An exact matrix brings its entries to integer rows over one
    denominator when it is built, or keeps those it was built from; a
    submatrix from ``take`` reuses its share of the rows over its parent's
    denominator."""

    def test_take_of_take_matches_fresh_matrix(self):
        rng = random.Random(59)
        inherited_dens = solved = 0
        for _ in range(150):
            n, m = rng.randint(2, 7), rng.randint(2, 7)
            parent = frac_matrix([[random_rational(rng) for _ in range(m)] for _ in range(n)])
            mid = parent.take(
                [rng.randrange(n) for _ in range(rng.randint(1, n))],
                [rng.randrange(m) for _ in range(rng.randint(1, m))],
            )
            sub = mid.take(
                [rng.randrange(mid.n_rows) for _ in range(rng.randint(1, mid.n_rows))],
                [rng.randrange(mid.n_cols) for _ in range(rng.randint(1, mid.n_cols))],
            )
            fresh = frac_matrix(sub.to_rows())
            den = sub._rows[1]
            assert den == mid._rows[1] == parent._rows[1]
            inherited_dens += den != fresh._rows[1]
            width = rng.randint(1, 3)
            right = frac_matrix(
                [[random_rational(rng) for _ in range(width)] for _ in range(sub.n_cols)]
            )
            assert matmul(sub, right) == matmul(fresh, right)
            assert rank(sub) == rank(fresh)
            # A unit enters each system at its own denominator, so the two
            # solves agree as Fractions.
            kept = [list(row) for row in sub._rows[0]]
            expected = as_fractions(solve_all(fresh))
            assert as_fractions(solve_all(sub)) == expected
            solved += not expected[0]
            # Elimination works on copies: the kept rows are unchanged.
            assert as_fractions(solve_all(sub)) == expected
            assert sub._rows == (kept, den)
        # Enough cases ran on denominators a fresh matrix would not pick.
        assert inherited_dens >= 50 and solved >= 30, (inherited_dens, solved)

    def test_equality_and_hash_ignore_integer_rows(self):
        parent = frac_matrix([[Fraction(1, 6), Fraction(2, 3)], [Fraction(3, 4), 5]])
        sub = parent.take([0, 1], [1])
        fresh = frac_matrix([[Fraction(2, 3)], [5]])
        untouched = frac_matrix([[Fraction(2, 3)], [5]])
        # sub keeps its parent's denominator 12, fresh picks 3.
        assert sub._rows == ([[8], [60]], 12)
        assert fresh._rows == ([[2], [15]], 3)
        assert sub == fresh == untouched
        assert hash(sub) == hash(fresh) == hash(untouched)

    def test_integer_rows_are_used_as_given(self, monkeypatch):
        # Rows over a non-minimal denominator of either sign, as the engine's
        # common denominator and a negative Bareiss determinant give, and
        # all-zero rows.
        rng = random.Random(61)
        negative = zero_rows = isolated = 0
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[random_rational(rng) for _ in range(m)] for _ in range(n)]
            if rng.random() < 0.3:
                rows[rng.randrange(n)] = [Fraction(0)] * m
            den = lcm(*(e.denominator for row in rows for e in row)) * rng.choice([-6, -1, 1, 4])
            given = [[int(e * den) for e in row] for row in rows]
            negative += den < 0
            zero_rows += not all(map(any, rows))
            with monkeypatch.context() as patched:
                patched.setattr(linalg, "_integers", None)  # must not be called
                built = Matrix(given, den, EXACT)
                assert built._rows[0] is given and built._rows[1] == den
                assert (built.n_rows, built.n_cols) == (n, m)
            reference = frac_matrix(rows)
            # The kernels read the given rows over the given denominator.
            width = rng.randint(1, 3)
            right = frac_matrix([[random_rational(rng) for _ in range(width)] for _ in range(m)])
            assert matmul(built, right) == matmul(reference, right)
            if m >= n and all(rows[l][l] for l in range(n)):
                isolated += 1
                cachers = [[l for l in range(n) if l != j] for j in range(m)]
                w = as_vector([random_rational(rng) for _ in range(m)], EXACT)
                y = as_vector([random_rational(rng) for _ in range(n)], EXACT)
                assert isolate(built, w, y, cachers) == isolate(reference, w, y, cachers)
            entries = built.to_rows()
            assert entries == rows and all(type(e) is Fraction for row in entries for e in row)
            row_idx, col_idx = rng.sample(range(n), rng.randint(1, n)), [rng.randrange(m)]
            sub = built.take(row_idx, col_idx)
            assert sub == reference.take(row_idx, col_idx)
            assert sub._rows[1] == den
            assert built == reference and hash(built) == hash(reference)
            left = frac_matrix([[random_rational(rng) for _ in range(n)] for _ in range(width)])
            assert matmul(left, built) == matmul(left, reference)
            assert built._rows == (given, den)
        assert min(negative, zero_rows, isolated) >= 30, (negative, zero_rows, isolated)

    def test_non_integer_rows_make_bareiss_raise(self):
        # The integer kernels check each division instead of rounding, so
        # rows that reach them unscaled (Fractions over denominator 1) fail
        # loudly.
        m = frac_matrix([[Fraction(1, 2), 1, 1], [1, Fraction(1, 3), 1], [1, 1, Fraction(1, 5)]])
        m._rows = (m.to_rows(), 1)
        with pytest.raises(ArithmeticError, match="is not exact"):
            solve_all(m)


class TestFloatRows:
    """A float matrix holds its complex rows over 1, as an exact one holds
    integer rows: built from rows or by a kernel, its entries keep their
    bits.  Zeros of both signs show a kernel that multiplies a row by an
    int 1, which can turn -0.0 into 0.0."""

    @staticmethod
    def entry(rng):
        if rng.random() < 0.5:
            return complex(rng.choice([0.0, -0.0, 1.5]), rng.choice([0.0, -0.0, -1.0]))
        return random_complex(rng)

    def test_every_construction_keeps_zero_signs(self):
        rng = random.Random(107)
        solved = 0
        for _ in range(120):
            n, m, k = (rng.randint(1, 5) for _ in range(3))
            a = [[self.entry(rng) for _ in range(m)] for _ in range(n)]
            assert_float_rows(float_rows(a), a)
            rows = [rng.randrange(n) for _ in range(rng.randint(1, n))]
            cols = [rng.randrange(m) for _ in range(rng.randint(1, m))]
            part = float_rows(a).take(rows, cols)
            assert_float_rows(part, [[a[i][j] for j in cols] for i in rows])
            assert_float_rows(part.take([0], [0]), [[a[rows[0]][cols[0]]]])
            b = [[self.entry(rng) for _ in range(k)] for _ in range(m)]
            assert_float_rows(matmul(float_rows(a), float_rows(b)), loop_matmul_float(a, b))
            assert_float_rows(
                conj_transpose(float_rows(a)), [[e.conjugate() for e in column] for column in zip(*a)]
            )
            # A square generic system has no free variables, so its solution
            # is the loop form's, bit for bit, signed zeros of b included.
            square = [[random_complex(rng) for _ in range(n)] for _ in range(n)]
            rhs = [[self.entry(rng) for _ in range(k)] for _ in range(n)]
            want = loop_solve_float(square, rhs)
            if want is not None:
                solved += 1
                rows = [[*a_row, *b_row] for a_row, b_row in zip(square, rhs)]
                _, pivot_cols, x, _ = _solve_rows(rows, n, FLOAT)
                assert pivot_cols == list(range(n))
                assert_float_rows(Matrix(x, 1, FLOAT), want)
        assert solved >= 100, solved


class TestRank:
    def test_identity(self):
        for n in (1, 3, 5):
            assert rank(identity(n)) == n

    def test_dependent_rows(self):
        assert rank(frac_matrix([[1, 2], [2, 4]])) == 1

    def test_gram_of_two_antenna_channel(self):
        # The Gram of an L x 4 channel has rank at most L = 2; the leading
        # 2x2 minor 5*10 - 7*7 = 1 is nonzero, so the rank is exactly 2.
        assert rank(frac_matrix(GRAM_4X4)) == 2

    def test_float_rank_thresholding(self):
        m = Matrix.from_rows([[1.0, 2.0], [2.0, 4.0 + 1e-13]], FLOAT)
        assert rank(m) == 1
        assert rank(Matrix.from_rows([[1.0, 0.0], [0.0, 1e-3]], FLOAT)) == 2

    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)
            ]
            assert rank(frac_matrix(rows)) == sympy.Matrix(rows).rank()


class TestOpCounting:
    def test_matmul_counts(self):
        a = frac_matrix([[1, 2], [3, 4]])
        with count_ops() as tally:
            matmul(a, a)
        assert tally.mul == 8
        assert tally.add == 4

    def test_counting_is_scoped(self):
        a = frac_matrix([[1, 2], [3, 4]])
        matmul(a, a)  # outside any scope: must not raise or leak
        with count_ops() as outer:
            with count_ops() as inner:
                matmul(a, a)
            assert inner.mul == 8
            before = outer.mul
            matmul(a, a)
            assert outer.mul == before + 8

    def test_exact_solve_counts(self):
        # Augmented width 4.  Column 0 follows the initial pivot 1, so its
        # two row updates skip the division: 2 rows * 3 entries * 2 mul.
        # Column 1 divides by the pivot 2: 1 row * 2 entries * 3 mul.  Back
        # substitution on 3 pivots costs 2 + 3 + 4 mul and 0 + 1 + 2 add.
        rows = [[2, 1, 1, 4], [1, 3, 2, 5], [1, 0, 0, 6]]
        with count_ops() as tally:
            _, pivot_cols, x, det = _solve_rows(rows, 3, EXACT)
        assert pivot_cols == [0, 1, 2]
        assert [Fraction(v, det) for (v,) in x] == [6, 15, -23]
        assert tally.mul == 12 + 6 + 9
        assert tally.add == 6 + 2 + 3

    def test_exact_free_variable_counts(self):
        # Augmented width 5.  Column 0 follows the initial pivot 1: 1 row *
        # 4 entries * 2 mul.  Column 1 has no pivot, so x1 is free; column 2
        # pivots on the last row, and x3 is free too.  Back-substitution
        # runs over pivot columns 2 and 0 only: det times the right-hand
        # side and one division each, plus one product (x2's) for column 0.
        rows = [[1, 2, 0, 1, 3], [2, 4, 1, 3, 7]]
        with count_ops() as tally:
            _, pivot_cols, x, det = _solve_rows(rows, 4, EXACT)
        assert pivot_cols == [0, 2]
        assert [Fraction(v, det) for (v,) in x] == [3, 1]
        assert tally.mul == 8 + 2 * 2 + 1
        assert tally.add == 4 + 1

    def test_float_slot_system_counts(self):
        # A deliver-float column system: 3 x 9 with 3 unit right-hand
        # sides, augmented width 12, generic entries.  Elimination counts
        # width - col + 1 mul and width - col add per updated row: 2 rows at
        # column 0, 1 row at column 1.  Back-substitution runs over the 3
        # pivot columns only: per right-hand side 3 divisions and 0 + 1 + 2
        # products and subtractions, where a sum over all 9 columns had
        # 8 + 7 + 6.
        rng = random.Random(5)
        rows = [[random_complex(rng) for _ in range(9)] for _ in range(3)]
        for i, row in enumerate(rows):
            row += [complex(i == j) for j in range(3)]
        with count_ops() as tally:
            _solve_rows(rows, 9, FLOAT)
        assert tally.mul == 2 * 13 + 12 + 3 * (3 + 3)
        assert tally.add == 2 * 12 + 11 + 3 * 3
