"""Dense matrices over two interchangeable scalar fields.

The exact backend stores arbitrary-precision rationals (fractions.Fraction)
and produces bit-exact results; the float backend stores complex doubles.
A single computation never mixes backends.  Per-slot precoder systems need
multiply, conjugate transpose, and a Gaussian-elimination solver that
zeroes free variables and reports inconsistency instead of guessing; the
engine solves its column systems in place, each against one unit
right-hand side per equation row, carries a slot's packets through
``matvec`` as plain vectors, and decodes with ``isolate``.

Every matrix, on either backend, is a list of rows over one denominator,
which the kernels read and return; ``to_rows`` is the one reader of its
entries.  Float rows hold the complex entries over 1 and are never
rescaled: an int 1 times a complex entry can turn -0.0 into 0.0.  Exact
rows are Python ints, over the lcm of the entries' denominators when the
matrix is built from Fractions, so ``Fraction``s are built only at the
edges: fixture and library input, the decoded values, and reads of
``to_rows`` and ``==``.  ``entries`` reads a vector of a matrix's cells
over its denominator, as a slot reads its packets.  ``take`` and
``conj_transpose`` keep the denominator, so a Gram matrix is brought to
integers once however many blocks are read from it, and ``matvec``
multiplies the two denominators, folding each entry left to right in
running-sum order; ``matmul`` is ``matvec`` on each column.  A vector is
(values, den), its entries over one denominator, with no ``Matrix``
around it.  The backends differ in arithmetic alone.  Exact
solvers eliminate integer rows fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968): every division is exact and none is made while the previous
pivot is 1.  Pivots come from the system alone, so every right-hand side
is back-substituted over the pivot rows, exactly whether or not it is
consistent, and the inconsistent ones are reported.  An exact ``solve``
returns integers over the determinant, reading a x's equation rows from
the right-hand side, which its solve satisfies.  The float backend runs
plain Gaussian elimination with partial pivoting, on the first row of
largest magnitude.  On both backends a solve is one pass through one
kernel: it eliminates, then back-substitutes over the pivot columns only,
since free variables are zero, returns x at the pivot columns alone, and
tallies both at once; its support is the pivot columns.

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

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm
from operator import add, itemgetter, mul

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


class OpTally:
    """The multiplications and additions a ``count_ops`` block counted."""

    __slots__ = ("mul", "add")

    def __init__(self, mul=0, add=0):
        self.mul, self.add = mul, add


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
    """Immutable dense matrix bound to one scalar backend: its rows over one
    nonzero denominator, which the kernels read.  Exact rows are integers;
    float rows are the complex entries themselves, over 1."""

    __slots__ = ("n_rows", "n_cols", "backend", "_rows")

    def __init__(self, rows, den, backend):
        self.n_rows, self.n_cols, self.backend = len(rows), len(rows[0]), backend
        self._rows = rows, den

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
        if backend == EXACT:
            return cls(*_integers([_coerce(e, EXACT) for e in flat], width), EXACT)
        return cls([[_coerce(e, backend) for e in r] for r in rows], 1, backend)

    def to_rows(self):
        """The entries row by row: Fractions on the exact backend, complex on floats."""
        rows, den = self._rows
        if self.backend == EXACT:
            return [[Fraction(v, den) for v in row] for row in rows]
        return [list(row) for row in rows]

    def take(self, row_idx, col_idx):
        """Submatrix from the given row and column index sequences, built
        from its share of this matrix's rows, over this matrix's
        denominator."""
        rows, den = self._rows
        picked = map(_picker(col_idx), _picker(row_idx)(rows))
        return Matrix(list(map(list, picked)), den, self.backend)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.backend == other.backend
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.to_rows() == other.to_rows()
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, tuple(map(tuple, self.to_rows())), self.backend))

    def __repr__(self):
        return f"Matrix({self.n_rows}x{self.n_cols}, {self.backend})"


def _check_same_backend(a, b):
    if a.backend != b.backend:
        raise BackendMismatch(f"mixed backends: {a.backend} and {b.backend}")


def _picker(idx):
    """A callable reading a sequence's entries at ``idx`` as a tuple, as
    ``itemgetter`` does for two or more indices."""
    return itemgetter(*idx) if len(idx) > 1 else lambda row: tuple(row[i] for i in idx)


def _integers(entries, width):
    """(rows, den): row-major Fraction entries, rows ``width`` long, times
    den, the lcm of their denominators."""
    den = lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (den // e.denominator) for e in entries]
    return [ints[i : i + width] for i in range(0, len(ints), width)], den


def _exact_quotients(nums, den):
    """[num / den for num in nums], for ints that must divide exactly;
    raises instead of rounding."""
    quotients = []
    for num in nums:
        quotient, remainder = divmod(num, den)
        if remainder:
            raise ArithmeticError(f"integer division {num} / {den} is not exact")
        quotients.append(quotient)
    return quotients


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; exact for rationals, IEEE double for floats: a times
    each column of b, as ``matvec`` forms it."""
    _check_same_backend(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    b_rows, b_den = b._rows
    columns = [matvec(a, (column, b_den))[0] for column in zip(*b_rows)]
    return Matrix(list(zip(*columns)), a._rows[1] * b_den, a.backend)


def entries(a: Matrix, cells):
    """a's entries at the (row, column) ``cells``, 0-based, as the vector
    kernels take a vector: (values, den), over a's denominator."""
    rows, den = a._rows
    return [rows[i][j] for i, j in cells], den


def matvec(a: Matrix, v, rows=None, cols=None):
    """a times the column vector ``v``, as a vector over the product of the
    denominators.  Each entry is one left fold in the order of a running
    sum: sum() would compensate its float and complex additions on newer
    Pythons, and integer sums are exact in any order.  Given ``rows`` or
    ``cols``, the left operand is a's rows ``rows`` over its columns
    ``cols``, read in place."""
    (a_rows, a_den), (values, den) = a._rows, v
    if rows is not None:
        a_rows = [a_rows[i] for i in rows]
    if cols is not None:
        a_rows = list(map(_picker(cols), a_rows))
    n, inner = len(a_rows), a.n_cols if cols is None else len(cols)
    if inner != len(values):
        raise DimensionMismatch(f"cannot multiply {n}x{inner} by a vector of {len(values)}")
    _tally(mul=n * inner, add=n * (inner - 1))
    return [reduce(add, map(mul, row, values)) for row in a_rows], a_den * den


def conj_transpose(a: Matrix) -> Matrix:
    """Hermitian transpose, over a's denominator; plain transpose on the
    exact (real) backend."""
    rows, den = a._rows
    return Matrix([[e.conjugate() for e in column] for column in zip(*rows)], den, a.backend)


def _solve_rows(rows, n, backend, tol=None):
    """Solve augmented rows in place, the first ``n`` columns the system's,
    in one pass: eliminate, then back-substitute over the pivot columns.

    Only the first ``n`` columns are eligible as pivots; the rest ride along
    as right-hand sides.  Exact rows are integers, eliminated fraction-free
    (Bareiss): each pivot is the first nonzero entry at or below the pivot
    row, the choice Gaussian elimination over the rationals makes, and every
    row below is a nonzero multiple of that elimination's row, so the pivot
    set and the zero pattern are the same.  After k steps each entry below
    the pivots is a (k+1)-minor of the input (Sylvester's identity), so the
    division by the previous pivot is exact and the last pivot is, up to
    sign, the determinant of the pivot rows and columns.  While the previous
    pivot is 1 (always on the first step) the division is skipped, and an
    updated entry costs two multiplications instead of three.  Float rows
    are eliminated with partial pivoting: the pivot is the first row of
    largest magnitude at or below the pivot row, and one of magnitude at
    most ``tol`` counts as zero: PIVOT_RTOL times the largest |entry| of
    the rows unless the caller, knowing that largest entry, passes it.

    Returns (the 0-based indices of the inconsistent right-hand sides, whose
    values solve the pivot rows alone, the pivot columns, ascending, x's
    rows at them, one list per pivot column, x's denominator: 1 on floats,
    the last Bareiss pivot on the exact backend).  Free variables are zero,
    so they are not returned and only later pivot columns enter a sum, in
    increasing order; each pivot entry is (rhs - sum) / pivot, a division
    counting as a multiplication.  The elimination and back-substitution
    are tallied at once.
    """
    exact, n_rows, width = backend == EXACT, len(rows), len(rows[0])
    if tol is None:
        tol = 0 if exact else PIVOT_RTOL * max([max(map(abs, row)) for row in rows])
    pivot_cols, previous, update_mul, update_add = [], 1, 0, 0
    for col in range(n):
        top = len(pivot_cols)
        if top == n_rows:
            break
        if exact:
            best = next((r for r in range(top, n_rows) if rows[r][col]), None)
            if best is None:
                continue
        else:
            best, peak = top, abs(rows[top][col])
            for r in range(top + 1, n_rows):
                magnitude = abs(rows[r][col])
                if magnitude > peak:
                    best, peak = r, magnitude
            if peak <= tol:
                continue
        if best != top:
            rows[best], rows[top] = rows[top], rows[best]
        top_row = rows[top]
        pivot, tail = top_row[col], top_row[col + 1 :]
        if exact:
            updates = (n_rows - top - 1) * (width - col - 1)
            update_mul += (2 if previous == 1 else 3) * updates
            update_add += updates
        for row in rows[top + 1 :]:
            if exact:
                factor, row[col] = row[col], 0
                if previous == 1:
                    for c in range(col + 1, width):
                        row[c] = pivot * row[c] - factor * top_row[c]
                    continue
                for c in range(col + 1, width):
                    num = pivot * row[c] - factor * top_row[c]
                    row[c], remainder = divmod(num, previous)
                    if remainder:
                        raise ArithmeticError(f"integer division {num} / {previous} is not exact")
                continue
            factor = row[col] / pivot
            if factor == 0:
                continue
            update_mul += width - col + 1
            update_add += width - col
            row[col] = 0j
            row[col + 1 :] = [e - factor * t for e, t in zip(row[col + 1 :], tail)]
        pivot_cols.append(col)
        previous = pivot
    rank, n_rhs, det = len(pivot_cols), width - n, previous if exact else 1
    flagged = []
    if rank < n_rows:
        nonzero = bool if exact else (lambda e: not abs(e) <= tol)
        flagged = [j for j in range(n_rhs) if any(nonzero(row[n + j]) for row in rows[rank:])]
    # The exact backend scales each pivot row's right-hand sides by det.
    terms = rank * (rank - 1) // 2
    update_mul += n_rhs * (rank + terms + (rank if exact else 0))
    _tally(mul=update_mul, add=update_add + n_rhs * terms)
    x = []
    for k in range(rank - 1, -1, -1):
        row = rows[k]
        # By Cramer's rule det * x is integral on the pivot columns: the
        # exact backend solves for it on integers, dividing once per entry.
        acc = [det * v for v in row[n:]] if exact else row[n:]
        for later, values in zip(pivot_cols[k + 1 :], x):
            coef = row[later]
            acc = [e - coef * v for e, v in zip(acc, values)]
        pivot = row[pivot_cols[k]]
        x.insert(0, _exact_quotients(acc, pivot) if exact else [e / pivot for e in acc])
    return flagged, pivot_cols, x, det


def solve(a: Matrix, rows, cols):
    """Solve a's rows ``rows`` over its columns ``cols``, read in place,
    against the identity over those equation rows: one unit right-hand side
    per row, the j-th reading 1 in a's row rows[j].

    Pivots are chosen from the system alone, so each right-hand side gets
    the solution it would get alone, and nothing is raised for an
    inconsistent one.  On the rational backend the elimination is
    fraction-free (Bareiss), pivoting on the first nonzero entry of each
    column, so results are exact, and a unit enters at a's denominator; on
    floats it is Gaussian elimination with partial pivoting.  One pass per
    system: the augmented rows are picked from a's rows in place, and
    ``_solve_rows`` eliminates and back-substitutes them, which gives x at
    the pivot columns only, free variables being zero; a x is then summed
    over those columns, one running sum per entry.

    Returns (the 0-based indices j of the inconsistent right-hand sides, the
    pivot columns as unknowns of a, which are x's support, x's rows there,
    the columns of a x, x's denominator, a x's denominator), where x and
    a x solve nothing in a column j that is listed.  On floats x and a x are
    as ``matvec`` would form them, equation rows keeping their rounding
    residue, and both denominators are 1.  On the exact backend every part
    is an integer: x's rows are over d, the Bareiss determinant, and a x is
    over a's denominator times d.  Its equation rows are read from the
    right-hand side the solve satisfied; only the other rows are summed.
    """
    size, n, n_rhs = a.n_rows, len(cols), len(rows)
    a_rows, den = a._rows
    exact = a.backend == EXACT
    unit, zero = (den, 0) if exact else (1 + 0j, 0j)
    rhs = [zero] * n_rhs
    picked = list(map(_picker(cols), _picker(rows)(a_rows)))
    system = [[*row, *rhs] for row in picked]
    for k, equation in enumerate(system):
        equation[n + k] = unit
    # The right-hand sides are 0s and one 1.0 per row after its A part, so
    # the largest |entry| is A's or 1.0, and NaN where A's first entry is.
    tol = None if exact else PIVOT_RTOL * max(max(map(abs, chain(*picked)), default=0.0), 1.0)
    flagged, pivot_cols, x_rows, det = _solve_rows(system, n, a.backend, tol)
    # The support is the pivot columns: in exact arithmetic x is nonzero on
    # each, since its pivot rows solve a triangular system whose right-hand
    # sides, the eliminated identity's pivot rows, have full rank.
    support = [cols[c] for c in pivot_cols]
    summed = [l for l in range(size) if l not in rows] if exact else a_rows
    terms = len(summed) * n_rhs
    _tally(mul=terms * len(support), add=terms * max(len(support) - 1, 0))
    if exact:
        a_x = [[unit * det if l == u else 0 for l in range(size)] for u in rows]
        parts = [(l, [a_rows[l][i] for i in support]) for l in summed]
        for entries, column in zip(a_x, zip(*x_rows)):
            for l, part in parts:
                entries[l] = sum(map(mul, part, column))
        return flagged, support, x_rows, a_x, det, unit * det
    # a x column by column, each entry a running sum as in ``matvec``.
    columns = [[row[i] for row in a_rows] for i in support]
    a_x = []
    for j in range(n_rhs):
        acc = None
        for col, values in zip(columns, x_rows):
            v = values[j]
            acc = [g * v for g in col] if acc is None else [e + g * v for e, g in zip(acc, col)]
        a_x.append(acc)
    return flagged, support, x_rows, a_x, 1, 1


def isolate(b, w, y, cachers):
    """(y[l] - the sum of b(l, j) * w[j] over the columns j whose
    ``cachers[j]`` hold l) / b(l, l) per row l of ``b``, for vectors w and
    y.  Each row's terms are taken in increasing j: floats subtract them
    left to right from y[l]; exact values sum them on integers, b's rows
    times w's, and build one Fraction.  A term counts one multiplication and
    addition, the division one more."""
    n_known = sum(map(len, cachers))
    _tally(mul=n_known + b.n_rows, add=n_known)
    (b_rows, p), (w, q), (y, r) = b._rows, w, y
    exact = b.backend == EXACT
    acc = [0] * b.n_rows if exact else list(y)
    for j, (w_j, rows) in enumerate(zip(w, cachers)):
        for l in rows:
            acc[l] -= b_rows[l][j] * w_j
    if not exact:
        return [a / row[l] for l, (row, a) in enumerate(zip(b_rows, acc))]
    # (y_l / r + acc_l / (p q)) / (row[l] / p) on integers.
    return [
        Fraction(y_l * p * q + r * a, r * q * row[l])
        for l, (row, y_l, a) in enumerate(zip(b_rows, y, acc))
    ]
