"""Dense matrices over two interchangeable scalar fields.

The exact backend stores arbitrary-precision rationals (fractions.Fraction)
and produces bit-exact results; the float backend stores complex doubles.
A single computation never mixes backends.  Per-slot precoder systems need
multiply, conjugate transpose, and a Gaussian-elimination solver that
zeroes free variables and reports inconsistency instead of guessing; the
engine solves its column systems in place, each against one unit
right-hand side per equation row, and decodes with ``isolate``.

Every matrix, on either backend, is a list of rows over one denominator,
which the kernels read and return; the flat ``data`` is only a cache, kept
from construction or built on first read.  Float rows hold the complex
entries over 1 and are never rescaled: an int 1 times a complex entry can
turn -0.0 into 0.0.  Exact rows are Python ints, over the lcm of the
entries' denominators when the matrix is built from Fractions, so
``Fraction``s are built only at the edges: fixture and library input, the
decoded values, and reads of ``data`` and ``==``.  ``take`` and
``conj_transpose`` keep the denominator, so a Gram matrix is brought to
integers once however many blocks are read from it, and ``matmul``
multiplies the two denominators, folding each entry left to right in
running-sum order.  The backends differ in arithmetic alone.  Exact
solvers eliminate integer rows fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968): every division is exact and none is made while the previous
pivot is 1.  Pivots come from the system alone, so every right-hand side
is back-substituted over the pivot rows, exactly whether or not it is
consistent, and the inconsistent ones are reported.  An exact ``solve``
returns integers over the determinant, reading a x's equation rows from
the right-hand side, which its solve satisfies.  The float backend runs
plain Gaussian elimination with partial pivoting, on the first row of
largest magnitude.  On both backends a solve is one pass: it eliminates,
then back-substitutes over the pivot columns only, since free variables
are zero, and returns x at the pivot columns alone; its support is the
pivot columns where x is nonzero.  A float solve tallies its elimination
and back-substitution at once.

Scalar multiply/add counts can be observed through ``count_ops``, whose
blocks nest, the innermost open one counting.  They count the
arithmetic each kernel performs on the operands it is given: a product
counts n*m*k multiplications, so a caller that drops exact-zero terms
before multiplying pays, and counts, only for the rest.  On the exact
backend they count the integer kernels' operations, an exact division
counting as a multiplication; bringing entries over one denominator and
building Fractions are not counted.  The delivery engine compares these
counts against its cost model lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, mul, sub

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

    ``solve`` raises nothing: it returns the inconsistent right-hand sides.
    The delivery engine raises this for transmissions whose precoder cannot
    exist; ``slot`` and ``column`` name the slot and precoder column when
    known.
    """

    def __init__(self, message, slot=None, column=None):
        super().__init__(message)
        self.slot = slot
        self.column = column


@dataclass
class OpTally:
    mul: int = 0
    add: int = 0


_active = None  # the innermost open count_ops tally


class count_ops:
    """Collect scalar multiply/add counts of the operations run inside the
    block, until an inner block opens."""

    def __enter__(self):
        global _active
        self.previous, _active = _active, OpTally()
        return _active

    def __exit__(self, *exc_info):
        global _active
        _active = self.previous


def _tally(mul=0, add=0):
    if _active is not None:
        _active.mul += mul
        _active.add += add


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


class Matrix:
    """Immutable dense matrix bound to one scalar backend.

    Every matrix holds ``_rows``: its rows over one denominator, which the
    kernels read.  Exact rows are integers; float rows are the complex
    entries themselves, over 1.  The flat row-major ``data`` is kept when
    the matrix is built from it and built on first read otherwise.
    """

    __slots__ = ("n_rows", "n_cols", "_data", "backend", "_rows")

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
        self._data = data
        self.backend = backend
        if backend == EXACT:
            self._rows = _integers(data, n_cols)
        else:
            self._rows = [data[i : i + n_cols] for i in range(0, len(data), n_cols)], 1

    @classmethod
    def from_ints(cls, rows, den, backend=EXACT):
        """Matrix of the ``rows`` over the nonzero ``den``: integer rows on
        the exact backend, complex entries over 1 on floats."""
        m = object.__new__(cls)
        m.n_rows, m.n_cols, m._data, m.backend = len(rows), len(rows[0]), None, backend
        m._rows = rows, den
        return m

    @property
    def data(self):
        if self._data is None:
            rows, den = self._rows
            entries = (v for row in rows for v in row)
            if self.backend == EXACT:
                entries = (Fraction(v, den) for v in entries)
            self._data = tuple(entries)
        return self._data

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
        if self.backend == FLOAT:
            return tuple(self._rows[0][i])
        return self.data[i * self.n_cols : (i + 1) * self.n_cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.n_rows)]

    def take(self, row_idx, col_idx):
        """Submatrix from the given row and column index sequences, built
        from its share of this matrix's rows, over this matrix's
        denominator."""
        rows, den = self._rows
        return Matrix.from_ints([[rows[i][j] for j in col_idx] for i in row_idx], den, self.backend)

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


def _integers(entries, width):
    """(rows, den): row-major Fraction entries, rows ``width`` long, times
    den, the lcm of their denominators."""
    den = lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (den // e.denominator) for e in entries]
    return [ints[i : i + width] for i in range(0, len(ints), width)], den


def _exact_div(num, den):
    """num / den for ints that must divide exactly; raises instead of rounding."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"integer division {num} / {den} is not exact")
    return quotient


def matmul(a: Matrix, b: Matrix, rows=None, cols=None) -> Matrix:
    """Matrix product; exact for rationals, IEEE double for floats.

    Each entry is one left fold in the order of a running sum, over the
    product of the two denominators: sum() would compensate its float and
    complex additions on newer Pythons, and integer sums are exact in any
    order.  Given ``rows`` or ``cols``, the left operand is a's rows
    ``rows`` over its columns ``cols``, as ``take`` would give it, read in
    place.
    """
    _check_same_backend(a, b)
    (a_rows, a_den), (b_rows, b_den) = a._rows, b._rows
    if rows is not None:
        a_rows = [a_rows[i] for i in rows]
    if cols is not None:
        a_rows = [[row[j] for j in cols] for row in a_rows]
    n, inner = len(a_rows), a.n_cols if cols is None else len(cols)
    if inner != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {n}x{inner} by {b.n_rows}x{b.n_cols}")
    _tally(mul=n * b.n_cols * inner, add=n * b.n_cols * (inner - 1))
    columns = [[reduce(add, map(mul, row, col)) for row in a_rows] for col in zip(*b_rows)]
    return Matrix.from_ints(list(zip(*columns)), a_den * b_den, a.backend)


def conj_transpose(a: Matrix) -> Matrix:
    """Hermitian transpose, over a's denominator; plain transpose on the
    exact (real) backend."""
    rows, den = a._rows
    return Matrix.from_ints(
        [[e.conjugate() for e in column] for column in zip(*rows)], den, a.backend
    )


def _eliminate(rows, n_sys_cols, tol):
    """In-place forward elimination on complex rows with partial pivoting;
    returns the pivot (row, col) pairs and the multiplications and
    additions of the row updates, which the caller tallies.

    Only the first ``n_sys_cols`` columns are eligible as pivots; trailing
    columns ride along as right-hand sides.  The pivot is the first row of
    largest magnitude at or below the pivot row; pivots of magnitude at
    most ``tol`` count as zero.
    """
    pivots = []
    pivot_row = 0
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    update_mul = update_add = 0
    for col in range(n_sys_cols):
        if pivot_row >= n_rows:
            break
        best, peak = pivot_row, abs(rows[pivot_row][col])
        for r in range(pivot_row + 1, n_rows):
            magnitude = abs(rows[r][col])
            if magnitude > peak:
                best, peak = r, magnitude
        if peak <= tol:
            continue
        if best != pivot_row:
            rows[best], rows[pivot_row] = rows[pivot_row], rows[best]
        top = rows[pivot_row]
        pivot = top[col]
        tail = top[col + 1 :]
        for row in rows[pivot_row + 1 :]:
            factor = row[col] / pivot
            if factor == 0:
                continue
            update_mul += width - col + 1
            update_add += width - col
            row[col] = 0j
            row[col + 1 :] = [x - factor * y for x, y in zip(row[col + 1 :], tail)]
        pivots.append((pivot_row, col))
        pivot_row += 1
    return pivots, update_mul, update_add


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


def _solve_rows(rows, n, backend):
    """Solve augmented rows in place, the first ``n`` columns the system's,
    in one pass: eliminate, then back-substitute over the pivot columns.

    Returns (the 0-based indices of the inconsistent right-hand sides, whose
    values solve the pivot rows alone, the pivot columns, ascending, x's
    rows at them, one list per pivot column, x's denominator: 1 on floats,
    the last Bareiss pivot on the exact backend).  Free variables are zero,
    so they are not returned and only later pivot columns enter a sum, in
    increasing order; each pivot entry is (rhs - sum) / pivot, a division
    counting as a multiplication.  The float elimination's updates and the
    back-substitution are tallied at once; the exact elimination tallies
    its own.
    """
    n_rhs, exact = len(rows[0]) - n, backend == EXACT
    if exact:
        pivots, det = _eliminate_exact(rows, n)
        # det times each pivot row's right-hand sides, below.
        update_mul, update_add, nonzero = n_rhs * len(pivots), 0, bool
    else:
        tol = PIVOT_RTOL * max([max(map(abs, row)) for row in rows])
        (pivots, update_mul, update_add), det = _eliminate(rows, n, tol), 1
        nonzero = lambda e: not abs(e) <= tol
    rank = len(pivots)
    below = rows[rank:]
    flagged = [j for j in range(n_rhs) if any(nonzero(row[n + j]) for row in below)] if below else []
    terms = rank * (rank - 1) // 2
    _tally(mul=update_mul + n_rhs * (rank + terms), add=update_add + n_rhs * terms)
    x = []
    for k in range(rank - 1, -1, -1):
        r, c = pivots[k]
        row = rows[r]
        # By Cramer's rule det * x is integral on the pivot columns: the
        # exact backend solves for it on integers, dividing once per entry.
        acc = [det * v for v in row[n:]] if exact else row[n:]
        for (_, later), values in zip(pivots[k + 1 :], x):
            coef = row[later]
            acc = [e - coef * v for e, v in zip(acc, values)]
        pivot = row[c]
        x.insert(0, [_exact_div(e, pivot) for e in acc] if exact else [e / pivot for e in acc])
    return flagged, [c for _, c in pivots], x, det


def solve(a: Matrix, rows, cols):
    """Solve a's rows ``rows`` over its columns ``cols``, read in place,
    against the identity over those equation rows: one unit right-hand side
    per row, the j-th reading 1 in a's row rows[j].

    Pivots are chosen from the system alone, so each right-hand side gets
    the solution it would get alone, and nothing is raised for an
    inconsistent one.  On the rational backend the elimination is
    fraction-free (Bareiss), pivoting on the first nonzero entry of each
    column, so results are exact, and a unit enters at a's denominator; on
    floats it is Gaussian elimination with partial pivoting.  It eliminates
    and back-substitutes in one pass, which gives x at the pivot columns
    only, free variables being zero.

    Returns (the 0-based indices j of the inconsistent right-hand sides, the
    unknowns where x is nonzero, which are pivot columns, x's rows there,
    the columns of a x, x's denominator, a x's denominator), where x and
    a x solve nothing in a column j that is listed.  On floats x and a x are
    as ``matmul`` would form them, equation rows keeping their rounding
    residue, and both denominators are 1.  On the exact backend every part
    is an integer: x's rows are over d, the Bareiss determinant, and a x is
    over a's denominator times d.  Its equation rows are read from the
    right-hand side the solve satisfied; only the other rows are summed.
    """
    size, n_rhs = a.n_rows, len(rows)
    a_rows, den = a._rows
    exact = a.backend == EXACT
    unit, zero = (den, 0) if exact else (complex(1), complex(0))
    system = []
    for k, l in enumerate(rows):
        row = a_rows[l]
        system.append([row[i] for i in cols] + [unit if k == j else zero for j in range(n_rhs)])
    flagged, pivot_cols, x, det = _solve_rows(system, len(cols), a.backend)
    # The support is the pivot columns where x is not zero.  In exact
    # arithmetic that is every pivot column: x's pivot rows solve a
    # triangular system whose right-hand sides, the eliminated identity's
    # pivot rows, have full rank.  A float row rounded to zeros is left out.
    support, x_rows = [], []
    for c, values in zip(pivot_cols, x):
        if any(values):
            support.append(cols[c])
            x_rows.append(values)
    summed = sorted(set(range(size)).difference(rows)) if exact else range(size)
    terms = len(summed) * n_rhs
    _tally(mul=terms * len(support), add=terms * max(len(support) - 1, 0))
    if exact:
        a_x = [[unit * det if l == u else 0 for l in range(size)] for u in rows]
        parts = [(l, [a_rows[l][i] for i in support]) for l in summed]
        for entries, column in zip(a_x, zip(*x_rows)):
            for l, part in parts:
                entries[l] = sum(map(mul, part, column))
        return flagged, support, x_rows, a_x, det, unit * det
    # a x column by column, each entry a running sum as in ``matmul``.
    columns = [[row[i] for row in a_rows] for i in support]
    a_x = []
    for j in range(n_rhs):
        acc = None
        for col, values in zip(columns, x_rows):
            v = values[j]
            acc = [g * v for g in col] if acc is None else [e + g * v for e, g in zip(acc, col)]
        a_x.append(acc)
    return flagged, support, x_rows, a_x, 1, 1


def isolate(b, w, y, known):
    """(y[l] - the sum of b(l, j) * w[j] over j in known[l]) / b(l, l) per
    row l of ``b``, for column vectors w and y: floats subtract left to right
    from y[l]; exact values are one integer dot product of b's integer row
    with w's, and one Fraction.  A term counts one multiplication and
    addition, the division one more."""
    n_known = sum(map(len, known))
    _tally(mul=n_known + b.n_rows, add=n_known)
    (b_rows, p), (w_rows, q), (y_rows, r) = b._rows, w._rows, y._rows
    w = [v for (v,) in w_rows]
    if b.backend == FLOAT:
        return [
            reduce(sub, [row[j] * w[j] for j in cached], y_l) / row[l]
            for l, (row, (y_l,), cached) in enumerate(zip(b_rows, y_rows, known))
        ]
    out = []
    for l, (row, (y_l,), cached) in enumerate(zip(b_rows, y_rows, known)):
        dot = sum(row[j] * w[j] for j in cached)
        # (y_l / r - dot / (p q)) / (row[l] / p) on integers.
        out.append(Fraction(y_l * p * q - r * dot, r * q * row[l]))
    return out
