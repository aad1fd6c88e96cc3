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
    isolate,
    matmul,
    rank,
    solve,
)

from oracles import loop_matmul_float, loop_solve_float, naive_solve_exact

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
            assert [bits(z) for z in got.data] == [bits(z) for z in want]

    def test_solve_bit_identical_to_full_back_substitution(self):
        # Back-substitution over pivot columns drops the products of free
        # variables, which are exact zeros.  Subtracting such a zero product
        # can only flip the sign of an exact zero, so components that are
        # zero in the oracle are compared with ==; every other component
        # must have the same bits.
        rng = random.Random(103)
        kinds = ["slot", "square", "wide", "free", "deficient"]
        seen = dict.fromkeys(kinds + ["infeasible"], 0)
        for case in range(250):
            kind = kinds[case % len(kinds)]
            a, b = float_system(rng, kind)
            want = loop_solve_float(a, b)
            if want is None:
                seen["infeasible"] += 1
                with pytest.raises(Infeasible):
                    solve(float_rows(a), float_rows(b))
                continue
            seen[kind] += 1
            got = solve(float_rows(a), float_rows(b))
            for z, w in zip(got.data, (e for row in want for e in row)):
                for part, want_part in ((z.real, w.real), (z.imag, w.imag)):
                    if want_part == 0:
                        assert part == want_part
                    else:
                        assert part.hex() == want_part.hex()
        assert min(seen.values()) >= 15, seen


def unit_system(rng, kind, entry):
    """(A rows, units) of one kind of column system whose right-hand sides
    are units: the j-th reads 1 in row units[j] of A and 0 elsewhere."""
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
    """``solve``'s unit form against its Matrix form and ``matmul`` on the
    same system and the oracles, and ``isolate`` against its loop form."""

    KINDS = ["slot", "square", "wide", "tall", "free", "deficient"]

    def column_system(self, rng, kind, entry, matrix):
        a, units = unit_system(rng, kind, entry)
        block, equations, unknowns = embed(rng, a, entry)
        units = [equations[u] for u in units]
        unit_rows = [[int(l == u) for u in units] for l in equations]
        return matrix(block), equations, unknowns, units, a, unit_rows

    def reference(self, block, equations, unknowns, units, unit_rows):
        """solve on the taken system, then matmul over the solution's
        support; returns (support, x_rows, B's columns, op counts)."""
        backend = block.backend
        with count_ops() as tally:
            x = solve(block.take(equations, unknowns), Matrix.from_rows(unit_rows, backend))
            kept = [(i, x.row(r)) for r, i in enumerate(unknowns) if any(x.row(r))]
            support = [i for i, _ in kept]
            x_support = Matrix(len(kept), len(units), [e for _, row in kept for e in row], backend)
            product = matmul(block.take(range(block.n_rows), support), x_support)
        b_cols = [list(product.data[j :: len(units)]) for j in range(len(units))]
        return support, [list(row) for _, row in kept], b_cols, (tally.mul, tally.add)

    def test_float_matches_solve_matmul_and_oracles(self):
        rng = random.Random(107)
        seen = dict.fromkeys(self.KINDS + ["infeasible"], 0)
        for case in range(300):
            kind = self.KINDS[case % len(self.KINDS)]
            block, equations, unknowns, units, a, unit_rows = self.column_system(
                rng, kind, random_complex, float_rows
            )
            want = loop_solve_float(a, unit_rows)
            if want is None:
                seen["infeasible"] += 1
                with pytest.raises(Infeasible) as reference:
                    solve(block.take(equations, unknowns), float_rows(unit_rows))
                with pytest.raises(Infeasible) as exc:
                    solve(block, units, equations, unknowns)
                assert exc.value.column == reference.value.column
                continue
            seen[kind] += 1
            with count_ops() as tally:
                support, x_rows, b_cols = solve(block, units, equations, unknowns)
            ref_support, ref_rows, ref_cols, ref_counts = self.reference(
                block, equations, unknowns, units, unit_rows
            )
            assert (support, (tally.mul, tally.add)) == (ref_support, ref_counts)
            assert [[bits(z) for z in row] for row in x_rows] == [
                [bits(z) for z in row] for row in ref_rows
            ]
            assert [[bits(z) for z in col] for col in b_cols] == [
                [bits(z) for z in col] for col in ref_cols
            ]
            # The oracles: full back-substitution, whose exact zeros may
            # differ in sign, and the running-sum product over the support.
            assert support == [i for i, row in zip(unknowns, want) if any(row)]
            for got, expected in zip(x_rows, (row for row in want if any(row))):
                for z, w in zip(got, expected):
                    for part, want_part in ((z.real, w.real), (z.imag, w.imag)):
                        if want_part == 0:
                            assert part == want_part
                        else:
                            assert part.hex() == want_part.hex()
            columns = [[block.at(l, i) for i in support] for l in range(block.n_rows)]
            product = loop_matmul_float(columns, x_rows)
            assert [[bits(z) for z in col] for col in b_cols] == [
                [bits(row[j]) for row in product] for j in range(len(units))
            ]
        # A tall system rarely has a solution for a unit right-hand side;
        # it counts among the infeasible ones.
        seen.pop("tall")
        assert min(seen.values()) >= 15, seen

    def test_exact_matches_solve_matmul_and_fraction_elimination(self):
        rng = random.Random(109)
        seen = dict.fromkeys(self.KINDS + ["infeasible"], 0)

        def inherited(rows):
            # A block taken from a wider parent keeps the parent rows' scales.
            parent = frac_matrix([row + [random_rational(rng)] for row in rows])
            return parent.take(range(len(rows)), range(len(rows[0])))

        for case in range(300):
            kind = self.KINDS[case % len(self.KINDS)]
            block, equations, unknowns, units, a, unit_rows = self.column_system(
                rng, kind, random_rational, inherited
            )
            expected = naive_solve_exact(a, unit_rows)
            if expected is None:
                seen["infeasible"] += 1
                with pytest.raises(Infeasible) as reference:
                    solve(block.take(equations, unknowns), frac_matrix(unit_rows))
                with pytest.raises(Infeasible) as exc:
                    solve(block, units, equations, unknowns)
                assert exc.value.column == reference.value.column
                continue
            seen[kind] += 1
            with count_ops() as tally:
                support, x_rows, b_cols = solve(block, units, equations, unknowns)
            ref_support, ref_rows, ref_cols, ref_counts = self.reference(
                block, equations, unknowns, units, unit_rows
            )
            assert (support, x_rows, b_cols) == (ref_support, ref_rows, ref_cols)
            # B's equation rows are read from the right-hand side, not summed.
            fixed = len(equations) * len(units)
            ref_mul, ref_add = ref_counts
            assert (tally.mul, tally.add) == (
                ref_mul - fixed * len(support),
                ref_add - fixed * (len(support) - 1),
            )
            assert support == [i for i, row in zip(unknowns, expected) if any(row)]
            assert x_rows == [row for row in expected if any(row)]
            assert b_cols == [
                [
                    sum((block.at(l, i) * row[j] for i, row in zip(support, x_rows)), Fraction(0))
                    for l in range(block.n_rows)
                ]
                for j in range(len(units))
            ]
            assert all(type(e) is Fraction for part in x_rows + b_cols for e in part)
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
                # The extra column gives the rows scales of their own.
                b = Matrix.from_rows(rows, backend).take(range(n), range(n))
                w = [entry(rng) for _ in range(n)]
                y = [entry(rng) for _ in range(n)]
                want = []
                for l in range(n):
                    acc = y[l]
                    for j in known[l]:
                        acc = acc - rows[l][j] * w[j]
                    want.append(acc / rows[l][l])
                with count_ops() as tally:
                    got = isolate(b, w, y, known)
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
        assert solve(identity(2), b) == b

    def test_worked_column_system(self):
        # {7 v2 + 11 v4 = 1, 13 v2 + 21 v4 = 0}: determinant 4, so
        # v2 = 21/4 and v4 = -13/4 by Cramer's rule.
        a = frac_matrix([[7, 11], [13, 21]])
        b = frac_matrix([[1], [0]])
        x = solve(a, b)
        assert x.data == (Fraction(21, 4), Fraction(-13, 4))

    def test_free_variables_zeroed(self):
        x = solve(frac_matrix([[1, 1]]), frac_matrix([[2]]))
        assert x.data == (2, 0)

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


class TestIntegerRows:
    """An exact matrix derives its integer rows once; a submatrix from
    ``take`` reuses its share, each row keeping its parent row's scale."""

    def test_take_of_take_matches_fresh_matrix(self):
        rng = random.Random(59)
        inherited_scales = solved = 0
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
            fresh = Matrix(sub.n_rows, sub.n_cols, sub.data, EXACT)
            scales = [scale for _, scale in sub._integer_rows()]
            inherited_scales += scales != [scale for _, scale in fresh._integer_rows()]
            width = rng.randint(1, 3)
            right = frac_matrix(
                [[random_rational(rng) for _ in range(width)] for _ in range(sub.n_cols)]
            )
            rhs = frac_matrix(
                [[random_rational(rng) for _ in range(width)] for _ in range(sub.n_rows)]
            )
            assert matmul(sub, right) == matmul(fresh, right)
            assert rank(sub) == rank(fresh)
            try:
                expected = solve(fresh, rhs)
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve(sub, rhs)
                continue
            solved += 1
            assert solve(sub, rhs) == expected
            # Elimination works on copies: the kept rows are unchanged.
            assert solve(sub, rhs) == expected
            assert [scale for _, scale in sub._integer_rows()] == scales
        # Enough cases ran on scales a fresh matrix would not pick.
        assert inherited_scales >= 50 and solved >= 30, (inherited_scales, solved)

    def test_equality_and_hash_ignore_integer_rows(self):
        parent = frac_matrix([[Fraction(1, 6), Fraction(2, 3)], [Fraction(3, 4), 5]])
        sub = parent.take([0, 1], [1])
        fresh = frac_matrix([[Fraction(2, 3)], [5]])
        untouched = frac_matrix([[Fraction(2, 3)], [5]])
        # sub keeps its parent rows' scales 6 and 4, fresh picks 3 and 1.
        assert sub._integer_rows() == [([4], 6), ([20], 4)]
        assert fresh._integer_rows() == [([2], 3), ([5], 1)]
        assert sub == fresh == untouched
        assert hash(sub) == hash(fresh) == hash(untouched)

    def test_non_integer_rows_make_bareiss_raise(self):
        # The integer kernels check each division instead of rounding, so
        # rows that reach them unscaled (Fractions with scale 1) fail loudly.
        m = frac_matrix([[Fraction(1, 2), 1, 1], [1, Fraction(1, 3), 1], [1, 1, Fraction(1, 5)]])
        m._ints = [(list(m.row(i)), 1) for i in range(m.n_rows)]
        with pytest.raises(ArithmeticError, match="is not exact"):
            solve(m, frac_matrix([[1], [1], [1]]))


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
        a = frac_matrix([[2, 1, 1], [1, 3, 2], [1, 0, 0]])
        b = frac_matrix([[4], [5], [6]])
        with count_ops() as tally:
            x = solve(a, b)
        assert x.data == (6, 15, -23)
        assert tally.mul == 12 + 6 + 9
        assert tally.add == 6 + 2 + 3

    def test_exact_free_variable_counts(self):
        # Augmented width 5.  Column 0 follows the initial pivot 1: 1 row *
        # 4 entries * 2 mul.  Column 1 has no pivot, so x1 is free; column 2
        # pivots on the last row, and x3 is free too.  Back-substitution
        # runs over pivot columns 2 and 0 only: det times the right-hand
        # side and one division each, plus one product (x2's) for column 0.
        a = frac_matrix([[1, 2, 0, 1], [2, 4, 1, 3]])
        b = frac_matrix([[3], [7]])
        with count_ops() as tally:
            x = solve(a, b)
        assert x.data == (3, 0, 1, 0)
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
        a = float_rows([[random_complex(rng) for _ in range(9)] for _ in range(3)])
        b = float_rows([[complex(i == j) for j in range(3)] for i in range(3)])
        with count_ops() as tally:
            solve(a, b)
        assert tally.mul == 2 * 13 + 12 + 3 * (3 + 3)
        assert tally.add == 2 * 12 + 11 + 3 * 3
