"""Dense matrices over two interchangeable scalar fields.

The exact backend stores arbitrary-precision rationals (fractions.Fraction)
and produces bit-exact results; the float backend stores complex doubles.
A single computation never mixes backends.  Per-slot precoder systems need
multiply, conjugate transpose, and a Gaussian-elimination solver that
zeroes free variables and reports inconsistency instead of guessing; the
engine solves its column systems in place and decodes with ``isolate``.

Exact kernels compute on Python ints and build one Fraction per output
entry.  An exact matrix derives its integer rows once, on first use: each
row times the lcm of its denominators, kept with that scale, and ``take``
hands a submatrix its share of them, so the rows of a Gram matrix are
scaled once however many blocks are read from it.  ``matmul`` scales each
column of the right operand the same way and divides each integer dot
product once.  The solvers and ``rank`` eliminate integer rows
fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): every division
is exact, none is made while the previous pivot is 1, and a Fraction
appears only in the solution.  The exact unit form reads a x's equation
rows from the right-hand side, which its solve satisfies.  The float
backend runs plain Gaussian elimination with partial pivoting; its
products fold each entry left to right, in running-sum order.  On both
backends back-substitution sums over pivot columns only, since free
variables are zero.

Scalar multiply/add counts can be observed through ``count_ops``; counting
state is thread-local, keeping the operations re-entrant.  They count the
arithmetic each kernel performs on the operands it is given: a product
counts n*m*k multiplications, so a caller that drops exact-zero terms
before multiplying pays, and counts, only for the rest.  On the exact
backend they count the integer kernels' operations, an exact division
counting as a multiplication; scaling to integers and building the output
Fractions are not counted.  The delivery engine compares these counts
against its cost model lambda.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, mul, sub, truediv

EXACT = "exact"
FLOAT = "float"

# Relative pivot threshold for the float backend (the exact backend tests
# pivots against literal zero).  A float pivot of magnitude at most
# PIVOT_RTOL times the largest |entry| of the system [A | b] counts as zero,
# so a rank-deficient system (a degenerate channel, or an overdetermined
# column system with no solution) is reported, not solved through a pivot
# that is only rounding residue.  That residue is a small multiple of 2**-53
# times the scale for a slot's systems (L equations, t unknowns), near
# 1e-15; a genuine pivot of a generic channel is a sizeable fraction of the
# scale (the smallest on the deliver-float benchmark, seeds 1-3, is 4.3e-3
# of it).  1e-9 sits six orders of magnitude clear of both.
PIVOT_RTOL = 1e-9


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class BackendMismatch(TypeError):
    """Operands use different scalar backends, or a scalar does not fit one."""


class Infeasible(Exception):
    """A linear system has no solution (rank(A) < rank(A|b)).

    ``solve`` sets ``column`` to the first inconsistent right-hand side.
    The delivery engine reuses this to signal transmissions whose precoder
    cannot exist; there ``slot`` and ``column`` name the slot and precoder
    column when known.
    """

    def __init__(self, message, slot=None, column=None):
        super().__init__(message)
        self.slot = slot
        self.column = column


@dataclass
class OpTally:
    mul: int = 0
    add: int = 0


_ACTIVE = threading.local()


@contextmanager
def count_ops():
    """Collect scalar multiply/add counts of operations run in this thread."""
    tally = OpTally()
    previous = getattr(_ACTIVE, "tally", None)
    _ACTIVE.tally = tally
    try:
        yield tally
    finally:
        _ACTIVE.tally = previous


def _tally(mul=0, add=0):
    tally = getattr(_ACTIVE, "tally", None)
    if tally is not None:
        tally.mul += mul
        tally.add += add


def _coerce(value, backend):
    if backend == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise BackendMismatch(f"exact backend cannot hold {value!r}")
    if backend == FLOAT:
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise BackendMismatch(f"float backend cannot hold {value!r}")
    raise BackendMismatch(f"unknown backend {backend!r}")


def _zero(backend):
    return Fraction(0) if backend == EXACT else complex(0)


class Matrix:
    """Immutable row-major dense matrix bound to one scalar backend."""

    __slots__ = ("n_rows", "n_cols", "data", "backend", "_ints")

    def __init__(self, n_rows, n_cols, data, backend):
        if n_rows < 1 or n_cols < 1:
            raise DimensionMismatch("matrix dimensions must be positive")
        data = tuple(data)
        if len(data) != n_rows * n_cols:
            raise DimensionMismatch(
                f"{n_rows}x{n_cols} matrix needs {n_rows * n_cols} entries, got {len(data)}"
            )
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.data = data
        self.backend = backend
        self._ints = None

    @classmethod
    def from_rows(cls, rows, backend=None):
        """Build from an iterable of rows, inferring the backend if omitted.

        Inference picks exact when every entry is an int or Fraction, float
        otherwise.
        """
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("rows have unequal lengths")
        flat = [e for r in rows for e in r]
        if backend is None:
            backend = (
                EXACT
                if all(isinstance(e, (int, Fraction)) and not isinstance(e, bool) for e in flat)
                else FLOAT
            )
        return cls(len(rows), width, (_coerce(e, backend) for e in flat), backend)

    def at(self, i, j):
        return self.data[i * self.n_cols + j]

    def row(self, i):
        return self.data[i * self.n_cols : (i + 1) * self.n_cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.n_rows)]

    def take(self, row_idx, col_idx):
        """Submatrix from the given row and column index sequences.

        On the exact backend the submatrix inherits its share of this
        matrix's integer rows, each keeping its parent row's scale.
        """
        data, width = self.data, self.n_cols
        sub = Matrix(
            len(row_idx),
            len(col_idx),
            [data[i * width + j] for i in row_idx for j in col_idx],
            self.backend,
        )
        if self.backend == EXACT:
            rows = self._integer_rows()
            sub._ints = [
                ([ints[j] for j in col_idx], scale)
                for ints, scale in (rows[i] for i in row_idx)
            ]
        return sub

    def _integer_rows(self):
        """Exact backend: per row (ints, scale) with ints = row * scale, an
        integer list; derived on first use and kept."""
        if self._ints is None:
            self._ints = [_integers(self.row(i)) for i in range(self.n_rows)]
        return self._ints

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.backend == other.backend
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.data, self.backend))

    def __repr__(self):
        return f"Matrix({self.n_rows}x{self.n_cols}, {self.backend})"


def _check_same_backend(a, b):
    if a.backend != b.backend:
        raise BackendMismatch(f"mixed backends: {a.backend} and {b.backend}")


def _integers(entries):
    """(ints, scale): Fraction entries times the lcm of their denominators."""
    scale = lcm(*(e.denominator for e in entries))
    if scale == 1:
        return [e.numerator for e in entries], 1
    return [e.numerator * (scale // e.denominator) for e in entries], scale


def _exact_div(num, den):
    """num / den for ints that must divide exactly; raises instead of rounding."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"integer division {num} / {den} is not exact")
    return quotient


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; exact for rationals, IEEE double for floats."""
    _check_same_backend(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    cols = [b.data[j :: b.n_cols] for j in range(b.n_cols)]
    if a.backend == EXACT:
        int_cols = [_integers(col) for col in cols]
        out = [
            Fraction(sum(map(mul, row, col)), row_scale * col_scale)
            for row, row_scale in a._integer_rows()
            for col, col_scale in int_cols
        ]
    else:
        # One left fold per entry, in the order of a running sum: sum() would
        # compensate its float and complex additions on newer Pythons.
        data, width = a.data, a.n_cols
        out = [
            reduce(add, map(mul, data[i : i + width], col))
            for i in range(0, len(data), width)
            for col in cols
        ]
    _tally(mul=a.n_rows * b.n_cols * a.n_cols, add=a.n_rows * b.n_cols * (a.n_cols - 1))
    return Matrix(a.n_rows, b.n_cols, out, a.backend)


def conj_transpose(a: Matrix) -> Matrix:
    """Hermitian transpose; plain transpose on the exact (real) backend."""
    columns = (a.data[j :: a.n_cols] for j in range(a.n_cols))
    if a.backend == EXACT:
        data = [e for column in columns for e in column]
    else:
        data = [e.conjugate() for column in columns for e in column]
    return Matrix(a.n_cols, a.n_rows, data, a.backend)


def _eliminate(rows, n_sys_cols, tol):
    """In-place forward elimination on complex rows with partial pivoting;
    returns pivot (row, col) pairs.

    Only the first ``n_sys_cols`` columns are eligible as pivots; trailing
    columns ride along as right-hand sides.  Pivots of magnitude at most
    ``tol`` count as zero.
    """
    pivots = []
    pivot_row = 0
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    update_mul = update_add = 0
    for col in range(n_sys_cols):
        if pivot_row >= n_rows:
            break
        magnitudes = [abs(row[col]) for row in rows[pivot_row:]]
        peak = max(magnitudes)
        if peak <= tol:
            continue
        best = pivot_row + magnitudes.index(peak)
        if best != pivot_row:
            rows[best], rows[pivot_row] = rows[pivot_row], rows[best]
        top = rows[pivot_row]
        pivot = top[col]
        tail = top[col + 1 :]
        for r in range(pivot_row + 1, n_rows):
            row = rows[r]
            factor = row[col] / pivot
            if factor == 0:
                continue
            update_mul += width - col + 1
            update_add += width - col
            row[col] = complex(0)
            row[col + 1 :] = [x - factor * y for x, y in zip(row[col + 1 :], tail)]
        pivots.append((pivot_row, col))
        pivot_row += 1
    _tally(mul=update_mul, add=update_add)
    return pivots


def _eliminate_exact(rows, n_sys_cols):
    """In-place fraction-free forward elimination on integer rows (Bareiss);
    returns the pivot (row, col) pairs and the last pivot.

    Each pivot is the first nonzero entry at or below the pivot row, the
    choice Gaussian elimination over the rationals makes, and every row
    below is a nonzero multiple of that elimination's row: the pivot set and
    the zero pattern are the same.  After k steps each entry below the
    pivots is a (k+1)-minor of the input (Sylvester's identity), so the
    division by the previous pivot is exact and the last pivot is, up to
    sign, the determinant of the pivot rows and columns.  While the previous
    pivot is 1 (always on the first step) the division is skipped, and an
    updated entry costs two multiplications instead of three.
    """
    pivots = []
    pivot_row = 0
    previous = 1
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    update_mul = update_add = 0
    for col in range(n_sys_cols):
        if pivot_row >= n_rows:
            break
        best = next((r for r in range(pivot_row, n_rows) if rows[r][col]), None)
        if best is None:
            continue
        if best != pivot_row:
            rows[best], rows[pivot_row] = rows[pivot_row], rows[best]
        top = rows[pivot_row]
        pivot = top[col]
        updates = (n_rows - pivot_row - 1) * (width - col - 1)
        update_mul += (2 if previous == 1 else 3) * updates
        update_add += updates
        for r in range(pivot_row + 1, n_rows):
            row = rows[r]
            factor = row[col]
            row[col] = 0
            if previous == 1:
                for c in range(col + 1, width):
                    row[c] = pivot * row[c] - factor * top[c]
                continue
            for c in range(col + 1, width):
                row[c] = _exact_div(pivot * row[c] - factor * top[c], previous)
        pivots.append((pivot_row, col))
        previous = pivot
        pivot_row += 1
    _tally(mul=update_mul, add=update_add)
    return pivots, previous


def _scale(entries):
    return max(map(abs, entries), default=0.0)


def rank(a: Matrix) -> int:
    """Row rank; exact for rationals, thresholded pivots for floats."""
    if a.backend == EXACT:
        rows = [list(ints) for ints, _ in a._integer_rows()]
        return len(_eliminate_exact(rows, a.n_cols)[0])
    return len(_eliminate(a.to_rows(), a.n_cols, PIVOT_RTOL * _scale(a.data)))


def _back_substitute(rows, pivots, n, divide, zero):
    """Back-substitution over eliminated rows whose first ``n`` columns are
    the system's; returns the solution's rows, one list per unknown, free
    variables ``zero``.

    Free variables are zero, so only later pivot columns enter a sum, in
    increasing order.  Each pivot entry is divide(rhs - sum, pivot), a
    division counting as a multiplication.
    """
    n_rhs = len(rows[0]) - n if rows else 0
    terms = len(pivots) * (len(pivots) - 1) // 2
    _tally(mul=n_rhs * (len(pivots) + terms), add=n_rhs * terms)
    x = [[zero] * n_rhs] * n  # pivot rows are replaced, never mutated
    later = []
    for r, c in reversed(pivots):
        row = rows[r]
        acc = row[n:]
        for c2 in later:
            coef = row[c2]
            acc = [e - coef * v for e, v in zip(acc, x[c2])]
        pivot = row[c]
        x[c] = [divide(e, pivot) for e in acc]
        later.insert(0, c)
    return x


def _solve_rows(rows, n, backend):
    """Solve augmented rows in place, the first ``n`` columns the system's;
    returns (the solution's rows, one list per unknown, their denominator:
    1 on floats, the last Bareiss pivot on integer rows)."""
    if backend == EXACT:
        (pivots, det), nonzero = _eliminate_exact(rows, n), bool
    else:
        tol = PIVOT_RTOL * _scale([e for row in rows for e in row])
        pivots, det, nonzero = _eliminate(rows, n, tol), 1, lambda e: not abs(e) <= tol
    n_rhs = len(rows[0]) - n
    for j in range(n, n + n_rhs):
        if any(nonzero(row[j]) for row in rows[len(pivots):]):
            raise Infeasible(
                f"system is inconsistent in right-hand side {j - n + 1}: rank(A) < rank(A|b)",
                column=j - n + 1,
            )
    if backend == FLOAT:
        return _back_substitute(rows, pivots, n, truediv, complex(0)), det
    # By Cramer's rule det * x is integral on the pivot columns; solve for it
    # on integers and divide once per entry.
    for r, _ in pivots:
        rows[r][n:] = [det * v for v in rows[r][n:]]
    _tally(mul=n_rhs * len(pivots))
    return _back_substitute(rows, pivots, n, _exact_div, 0), det


def solve(a: Matrix, b, rows=None, cols=None):
    """Solve a*x = b, returning the solution with free variables set to zero.

    Raises Infeasible when the system is inconsistent
    (rank(a) < rank(a|b)); its ``column`` is the 1-based index of the first
    inconsistent column of b.  Pivots are chosen from a alone, so each
    column of b gets the solution it would get alone.  On the rational
    backend the elimination is fraction-free on integer-scaled rows
    (Bareiss), pivoting on the first nonzero entry of each column, so
    results are exact; on floats it is Gaussian elimination with partial
    pivoting.

    Given ``rows`` and ``cols``, the system is a's rows ``rows`` over its
    columns ``cols``, read in place, and b lists unit right-hand sides, the
    j-th reading 1 in a's row b[j]; returns (the unknowns where x is nonzero,
    x's rows there, the columns of a x), each as ``matmul`` would form it,
    save that the exact equation rows of a x are read from the right-hand
    side the solve satisfied; float ones keep their rounding residue.
    """
    if rows is not None:
        return _solve_units(a, rows, cols, b)
    _check_same_backend(a, b)
    if a.n_rows != b.n_rows:
        raise DimensionMismatch(f"a has {a.n_rows} rows but b has {b.n_rows}")
    if a.backend == FLOAT:
        x, _ = _solve_rows([list(a.row(i) + b.row(i)) for i in range(a.n_rows)], a.n_cols, FLOAT)
        return Matrix(a.n_cols, b.n_cols, [v for values in x for v in values], FLOAT)
    rows = []
    for (a_ints, a_scale), (b_ints, b_scale) in zip(a._integer_rows(), b._integer_rows()):
        scale = lcm(a_scale, b_scale)
        a_ints = [v * (scale // a_scale) for v in a_ints]
        rows.append(a_ints + [v * (scale // b_scale) for v in b_ints])
    x, det = _solve_rows(rows, a.n_cols, EXACT)
    return Matrix(a.n_cols, b.n_cols, [Fraction(v, det) for values in x for v in values], EXACT)


def _solve_units(a, equations, unknowns, units):
    """``solve``'s unit form; a unit enters an integer row at its scale."""
    size, width, n_rhs = a.n_rows, a.n_cols, len(units)
    exact = a.backend == EXACT
    ints, zero = (a._integer_rows(), 0) if exact else (None, complex(0))
    rows = []
    for l in equations:
        row, unit = ints[l] if exact else (a.row(l), complex(1))
        rows.append([row[i] for i in unknowns] + [unit if l == u else zero for u in units])
    x, det = _solve_rows(rows, len(unknowns), a.backend)
    # Each unit reads 1 in some equation, so no column of x is zero.
    support = [i for i, values in zip(unknowns, x) if any(values)]
    x_rows = [values for values in x if any(values)]
    summed = sorted(set(range(size)).difference(equations)) if exact else range(size)
    _tally(mul=len(summed) * n_rhs * len(support), add=len(summed) * n_rhs * (len(support) - 1))
    if exact:
        one, nought = Fraction(1), Fraction(0)
        a_x = [[one if l == u else nought for l in range(size)] for u in units]
        parts = [(l, [ints[l][0][i] for i in support], ints[l][1] * det) for l in summed]
        for entries, column in zip(a_x, zip(*x_rows)):
            for l, part, den in parts:
                entries[l] = Fraction(sum(map(mul, part, column)), den)
        return support, [[Fraction(v, det) for v in values] for values in x_rows], a_x
    # a x column by column, each entry a running sum as in ``matmul``.
    columns = [a.data[i::width] for i in support]
    a_x = []
    for j in range(n_rhs):
        acc = [g * x_rows[0][j] for g in columns[0]]
        for column, values in zip(columns[1:], x_rows[1:]):
            v = values[j]
            acc = [e + g * v for e, g in zip(acc, column)]
        a_x.append(acc)
    return support, x_rows, a_x


def isolate(b, w, y, known):
    """(y[l] - the sum of b(l, j) * w[j] over j in known[l]) / b(l, l) per
    row l of ``b``: floats subtract left to right from y[l]; exact values are
    one integer dot product of b's integer row with w's, and one Fraction.
    A term counts one multiplication and addition, the division one more."""
    n_known = sum(map(len, known))
    _tally(mul=n_known + b.n_rows, add=n_known)
    if b.backend == FLOAT:
        return [
            reduce(sub, [row[j] * w[j] for j in cached], y_l) / row[l]
            for l, (row, y_l, cached) in enumerate(zip(map(b.row, range(b.n_rows)), y, known))
        ]
    w_ints, w_scale = _integers(w)
    out = []
    for l, ((row, scale), y_l, cached) in enumerate(zip(b._integer_rows(), y, known)):
        dot = sum(row[j] * w_ints[j] for j in cached)
        # (y_l - dot / (scale * w_scale)) / (row[l] / scale) on integers.
        num = y_l.numerator * scale * w_scale - y_l.denominator * dot
        out.append(Fraction(num, y_l.denominator * w_scale * row[l]))
    return out
