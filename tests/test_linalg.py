"""Exact and float matrix arithmetic, the solver, and rank."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from mapda.linalg import (
    EXACT,
    FLOAT,
    BackendMismatch,
    DimensionMismatch,
    Infeasible,
    Matrix,
    _exact_div,
    conj_transpose,
    count_ops,
    matmul,
    rank,
    solve,
)

from oracles import naive_solve_exact

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
        a = [
            [sum((random_rational(rng) * row[j] for row in base), Fraction(0)) for j in range(m)]
            for _ in range(n)
        ]
    else:
        a = [[random_rational(rng) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.3:
        a[rng.randrange(n)] = [Fraction(0)] * m
    width = rng.randint(1, 3)
    b = [[random_rational(rng) for _ in range(width)] for _ in range(n)]
    return a, b


class TestMatmul:
    def test_identity(self):
        m = frac_matrix([[1, 2], [3, 4]])
        assert matmul(Matrix.identity(2), m) == m
        assert m @ Matrix.identity(2) == m

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
            assert all(type(e) is Fraction for e in product.data)


class TestConjTranspose:
    def test_real_matrix_plain_transpose(self):
        m = frac_matrix([[1, 2, 3], [4, 5, 6]])
        assert conj_transpose(m) == frac_matrix([[1, 4], [2, 5], [3, 6]])

    def test_imaginary_unit(self):
        m = Matrix.from_rows([[1j]], FLOAT)
        assert conj_transpose(m).at(0, 0) == -1j

    def test_involution(self):
        m = Matrix.from_rows([[1 + 2j, 3], [0.5j, -1]], FLOAT)
        assert conj_transpose(conj_transpose(m)) == m


class TestSolve:
    def test_identity_system(self):
        b = frac_matrix([[5], [7]])
        assert solve(Matrix.identity(2), b) == b

    def test_worked_column_system(self):
        # {7 v2 + 11 v4 = 1, 13 v2 + 21 v4 = 0}: determinant 4, so
        # v2 = 21/4 and v4 = -13/4 by Cramer's rule.
        a = frac_matrix([[7, 11], [13, 21]])
        b = frac_matrix([[1], [0]])
        x = solve(a, b)
        assert x.col(0) == (Fraction(21, 4), Fraction(-13, 4))

    def test_free_variables_zeroed(self):
        x = solve(frac_matrix([[1, 1]]), frac_matrix([[2]]))
        assert x.col(0) == (2, 0)

    def test_inconsistent_raises(self):
        a = frac_matrix([[1, 2], [2, 4]])
        b = frac_matrix([[1], [1]])
        with pytest.raises(Infeasible):
            solve(a, b)

    def test_inconsistent_column_named(self):
        # b's first column lies in a's column space, its second does not.
        for backend in (EXACT, FLOAT):
            a = Matrix.from_rows([[1, 2], [2, 4]], backend)
            b = Matrix.from_rows([[1, 1], [2, 1]], backend)
            with pytest.raises(Infeasible) as exc:
                solve(a, b)
            assert exc.value.column == 2

    def test_exact_solutions_satisfy_system(self):
        rng = random.Random(11)
        solved = 0
        while solved < 60:
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            a = frac_matrix(
                [[Fraction(rng.randint(-10, 10)) for _ in range(m)] for _ in range(n)]
            )
            b = frac_matrix([[Fraction(rng.randint(-10, 10))] for _ in range(n)])
            try:
                x = solve(a, b)
            except Infeasible:
                # Verified independently: inconsistency means augmenting
                # raises the rank.
                sa = sympy.Matrix(a.to_rows())
                sb = sympy.Matrix(b.to_rows())
                assert sa.rank() < sa.row_join(sb).rank()
                continue
            assert matmul(a, x) == b
            solved += 1

    def test_exact_matches_fraction_elimination_oracle(self):
        rng = random.Random(47)
        kinds = {"solved": 0, "infeasible": 0, "square": 0, "tall": 0, "wide": 0, "deficient": 0}
        for _ in range(400):
            a, b = random_system(rng)
            n, m = len(a), len(a[0])
            kinds["square" if n == m else "tall" if n > m else "wide"] += 1
            expected = naive_solve_exact(a, b)
            a_rank = sympy.Matrix(a).rank()
            kinds["deficient"] += a_rank < min(n, m)
            assert rank(frac_matrix(a)) == a_rank
            if expected is None:
                kinds["infeasible"] += 1
                with pytest.raises(Infeasible):
                    solve(frac_matrix(a), frac_matrix(b))
                continue
            kinds["solved"] += 1
            x = solve(frac_matrix(a), frac_matrix(b))
            assert x.to_rows() == expected
            assert all(type(e) is Fraction for e in x.data)
        # Every kind of system the loop is meant to cover occurred.
        assert min(kinds.values()) >= 20, kinds

    def test_inexact_integer_division_raises(self):
        assert _exact_div(-12, 4) == -3
        with pytest.raises(ArithmeticError):
            _exact_div(7, 2)

    def test_float_matches_exact_on_well_conditioned_systems(self):
        rng = random.Random(23)
        compared = 0
        while compared < 40:
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n)]
                for _ in range(n)
            ]
            rhs = [[Fraction(rng.randint(-10, 10))] for _ in range(n)]
            cond = np.linalg.cond(np.array(rows, dtype=float))
            if not np.isfinite(cond) or cond >= 1e6:
                continue
            exact = solve(frac_matrix(rows), frac_matrix(rhs))
            approx = solve(
                Matrix.from_rows(rows, FLOAT), Matrix.from_rows(rhs, FLOAT)
            )
            for i in range(n):
                assert abs(complex(exact.at(i, 0)) - approx.at(i, 0)) <= 1e-6
            compared += 1

    def test_float_residual_bound(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 6)
            rows = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]
            if np.linalg.cond(np.array(rows)) >= 1e6:
                continue
            a = Matrix.from_rows(rows, FLOAT)
            b = Matrix.from_rows([[rng.gauss(0, 1)] for _ in range(n)], FLOAT)
            x = solve(a, b)
            residual = max(
                abs(matmul(a, x).at(i, 0) - b.at(i, 0)) for i in range(n)
            )
            norm_b = max(abs(b.at(i, 0)) for i in range(n))
            assert residual <= 1e-9 * max(norm_b, 1.0)
            checked += 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(frac_matrix([[1]]), frac_matrix([[1], [2]]))


class TestRank:
    def test_identity(self):
        for n in (1, 3, 5):
            assert rank(Matrix.identity(n)) == n

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
        a = frac_matrix([[2, 1, 1], [1, 3, 2], [1, 0, 0]])
        b = frac_matrix([[4], [5], [6]])
        with count_ops() as tally:
            x = solve(a, b)
        assert x.col(0) == (6, 15, -23)
        assert tally.mul == 12 + 6 + 9
        assert tally.add == 6 + 2 + 3
