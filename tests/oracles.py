"""Independent oracles for the test suite, and a rank helper.

Everything here but ``rank`` is written from the definitions, separately
from the package code paths it checks: a naive condition checker, a
brute-force per-slot rescan of the grid for the derived validation fields
and slot cells, an array-file reader that reads each token on its own,
Gaussian elimination over Fractions, loop-form float
kernels (a running-sum product and a solver with back-substitution over
every column), an exact channel whose submatrices are provably
nonsingular, a per-column precoder synthesis that also names every
column without a solution, a loop-form float slot (dense encode,
forward and decode, and a left-to-right subtraction), and a brute-force
enumerator of small deliverable grids.  ``rank`` runs the package's own
elimination kernels; its tests compare it with sympy.  On floats the
per-column synthesis forms B with the package's ``matmul``, so that the
engine can be compared with it bit for bit.
``assert_float_rows`` checks a float matrix's entries bit for bit;
``flat_entries`` and ``as_vector`` read and build matrices and vectors
through the package's public readers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, permutations
from operator import mul

import numpy as np

from mapda.arrays import ParseError, _parse_entry
from mapda.engine import DegenerateChannel, PrecodingMatrix, _served_columns
from mapda.linalg import (
    EXACT,
    FLOAT,
    PIVOT_RTOL,
    Infeasible,
    Matrix,
    _solve_rows,
    entries,
    matmul,
)


def naive_conditions(grid, antennas):
    """Recheck C1-C4 by direct transcription of the definitions.

    Returns (c1, c2, c3, c4).  Grid entries are None for stars, ints for
    slot ids; structural validity is assumed.
    """
    columns = list(zip(*grid))
    counts = [column.count(None) for column in columns]
    c1 = all(c == counts[0] for c in counts)

    ids = sorted({e for row in grid for e in row if e is not None})
    top = ids[-1] if ids else 0
    c2 = ids == list(range(1, top + 1))

    c3 = True
    for column in columns:
        seen = [e for e in column if e is not None]
        if len(seen) != len(set(seen)):
            c3 = False

    c4 = True
    for s in ids:
        sub_rows = [row for row in grid if s in row]
        sub_cols = [k for k, column in enumerate(columns) if s in column]
        for row in sub_rows:
            fanin = len([k for k in sub_cols if row[k] is not None])
            if fanin > antennas:
                c4 = False
    return c1, c2, c3, c4


def naive_report(grid, antennas):
    """Recompute validate's derived fields by rescanning the grid per slot.

    Returns (min_antennas, slots, regular, failures), with the failure
    texts in the order validate reports them: C1, C2, then the first
    repeat of each column (C3), then the first slot failing C4.
    """
    n_rows = len(grid)
    n_cols = len(grid[0])
    columns = list(zip(*grid))
    failures = []
    star_counts = [column.count(None) for column in columns]
    c1 = len(set(star_counts)) == 1
    if not c1:
        failures.append(f"C1 violated: star counts per column are {star_counts}")

    occurrences = {}
    for row in grid:
        for e in row:
            if e is not None:
                occurrences[e] = occurrences.get(e, 0) + 1
    slots = max(occurrences) if occurrences else 0
    missing = [s for s in range(1, slots + 1) if s not in occurrences]
    if missing:
        failures.append(f"C2 violated: missing slot id(s) {missing}")

    for k, column in enumerate(columns, 1):
        seen = set()
        for e in column:
            if e is None:
                continue
            if e in seen:
                failures.append(f"C3 violated in column {k}: slot {e} repeated")
                break
            seen.add(e)

    min_antennas = 0
    c4 = True
    for s in sorted(occurrences):
        slot_rows = [row for row in grid if s in row]
        slot_cols = [k for k, column in enumerate(columns) if s in column]
        worst = max([len([k for k in slot_cols if row[k] is not None]) for row in slot_rows])
        min_antennas = max(min_antennas, worst)
        if worst > antennas and c4:
            c4 = False
            failures.append(f"C4 violated at s={s}")

    # Each slot occurs t + L times, t = K Z / F: count * F == K Z + L F.
    regular = c1 and all(
        count * n_rows == n_cols * star_counts[0] + antennas * n_rows
        for count in occurrences.values()
    )
    return min_antennas, slots, regular, tuple(failures)


def naive_slot_cells(grid, s):
    """Cells (f, k), 1-based, holding slot id s, by a column-major scan."""
    return tuple(
        (f + 1, k + 1)
        for k in range(len(grid[0]))
        for f in range(len(grid))
        if grid[f][k] == s
    )


def token_parse_raw(text):
    """``parse_raw`` of an array text whose header is well formed, with
    every body token read by ``arrays._parse_entry``: lines in file order,
    each line's token count checked before its first token is read.
    Returns (header line, header fields, grid) or raises ParseError."""
    lines = [
        (line_no, line.strip())
        for line_no, line in enumerate(text.removeprefix("\ufeff").splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")
    ]
    (header_no, header), body = lines[0], lines[1:]
    fields = dict(zip("LKFZS", header.split()))
    values = {name: None if name in "ZS" and v == "-" else int(v) for name, v in fields.items()}
    if len(body) != values["F"]:
        raise ParseError(f"line {header_no}: header declares {values['F']} rows, found {len(body)}")
    grid = []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != values["K"]:
            raise ParseError(f"line {line_no}: expected {values['K']} entries, found {len(tokens)}")
        grid.append(tuple(_parse_entry(token, f"line {line_no}") for token in tokens))
    return header_no, values, tuple(grid)


def naive_solve_exact(a_rows, b_rows):
    """Solve A X = B over Fractions by textbook Gaussian elimination.

    Pivots on the first nonzero entry of each column, sets free variables
    to zero and back-substitutes.  Returns X as a list of rows, or None when
    the system is inconsistent (a zero row of A meets a nonzero right-hand
    side).
    """
    n_cols = len(a_rows[0])
    rows = [[Fraction(e) for e in a + b] for a, b in zip(a_rows, b_rows)]
    pivots = []
    top = 0
    for col in range(n_cols):
        best = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if best is None:
            continue
        rows[top], rows[best] = rows[best], rows[top]
        for r in range(top + 1, len(rows)):
            factor = rows[r][col] / rows[top][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[top])]
        pivots.append((top, col))
        top += 1
    if any(any(row[n_cols:]) for row in rows[top:]):
        return None
    x = [[Fraction(0)] * len(b_rows[0]) for _ in range(n_cols)]
    for r, c in reversed(pivots):
        for j in range(len(b_rows[0])):
            acc = rows[r][n_cols + j] - sum(rows[r][c2] * x[c2][j] for c2 in range(c + 1, n_cols))
            x[c][j] = acc / rows[r][c]
    return x


def loop_matmul_float(a_rows, b_rows):
    """Complex product of row lists, each entry a running sum in index
    order: acc = a[i][0] * b[0][j], then acc += a[i][x] * b[x][j]."""
    out = []
    for row in a_rows:
        out_row = []
        for j in range(len(b_rows[0])):
            acc = row[0] * b_rows[0][j]
            for x in range(1, len(row)):
                acc += row[x] * b_rows[x][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def loop_solve_float(a_rows, b_rows):
    """Solve A X = B over complex floats: Gaussian elimination with partial
    pivoting (first row of largest magnitude, pivots at most PIVOT_RTOL times
    the largest |entry| of A count as zero), free variables zero, and
    back-substitution summing over every later column, free ones included.
    Returns X as a list of rows, or None when the system is inconsistent: a
    row past the pivot rows keeps a B entry above PIVOT_RTOL times the
    largest |entry| of B.
    """
    n = len(a_rows[0])
    rows = [[complex(e) for e in a + b] for a, b in zip(a_rows, b_rows)]
    tol = PIVOT_RTOL * max(abs(e) for row in a_rows for e in row)
    rhs_tol = PIVOT_RTOL * max(abs(e) for row in b_rows for e in row)
    width = len(rows[0])
    pivots = []
    top = 0
    for col in range(n):
        if top >= len(rows):
            break
        best = top
        for r in range(top + 1, len(rows)):
            if abs(rows[r][col]) > abs(rows[best][col]):
                best = r
        if abs(rows[best][col]) <= tol:
            continue
        rows[top], rows[best] = rows[best], rows[top]
        for r in range(top + 1, len(rows)):
            factor = rows[r][col] / rows[top][col]
            if factor == 0:
                continue
            rows[r][col] = complex(0)
            for c in range(col + 1, width):
                rows[r][c] -= factor * rows[top][c]
        pivots.append((top, col))
        top += 1
    if any(not abs(e) <= rhs_tol for row in rows[top:] for e in row[n:]):
        return None
    x = [[complex(0)] * (width - n) for _ in range(n)]
    for r, c in reversed(pivots):
        for j in range(width - n):
            acc = rows[r][n + j]
            for c2 in range(c + 1, n):
                acc -= rows[r][c2] * x[c2][j]
            x[c][j] = acc / rows[r][c]
    return x


def float_bits(entries):
    return [(z.real.hex(), z.imag.hex()) for z in entries]


def flat_entries(matrix):
    """The matrix's entries in row-major order, read through ``to_rows``."""
    return [e for row in matrix.to_rows() for e in row]


def as_vector(values, backend):
    """``values`` as the vector kernels take one, (values, den): the cells
    of the one-row matrix of ``values``, read by ``entries``."""
    return entries(Matrix.from_rows([values], backend), [(0, j) for j in range(len(values))])


def assert_float_rows(matrix, rows):
    """A float ``matrix`` holds ``rows`` bit for bit, zeros' signs included,
    through ``to_rows``, and equals and hashes as the matrix built from
    them."""
    assert matrix.backend == FLOAT
    assert [float_bits(row) for row in matrix.to_rows()] == [float_bits(row) for row in rows]
    built = Matrix.from_rows(rows, FLOAT)
    assert matrix == built and hash(matrix) == hash(built)


def rank(a: Matrix) -> int:
    """Row rank through the package's elimination kernel: fraction-free on
    the exact backend, pivots at most PIVOT_RTOL times the largest |entry|
    counting as zero on floats."""
    return len(_solve_rows([list(row) for row in a._rows[0]], a.n_cols, a.backend)[1])


def vandermonde_channel(antennas, users, first_node=2) -> Matrix:
    """Exact L x K channel h[l, k] = node_k ** l with distinct positive nodes.

    Such a matrix is totally positive, so every square submatrix is
    nonsingular: a provably generic channel for exact-arithmetic runs.
    """
    nodes = [Fraction(first_node + k) for k in range(users)]
    return Matrix.from_rows([[node**l for node in nodes] for l in range(antennas)])


def _solve_column(group, block, n):
    """Column n's solution over its cacher positions, solved alone, or the
    error that names it when it has none.

    The system is the positions outside the cacher set, n among them, in
    ascending order, over the cacher positions; row n reads 1.  It is
    solved by ``naive_solve_exact`` on the exact backend and by
    ``loop_solve_float`` on floats.  A column no served user caches is
    infeasible; a system without a solution is a degenerate channel when it
    has no more equations than a generic channel of L antennas can meet,
    and infeasible otherwise.
    """
    backend, size = block.backend, block.n_rows
    where = {"slot": group.slot, "column": n + 1}
    unknowns = group.cacher_sets[n]
    if not unknowns:
        message = f"slot {group.slot}: no served user caches packet position {n + 1}"
        return Infeasible(message, **where)
    eq_rows = tuple(l for l in range(size) if l not in unknowns)
    zero = Fraction(0) if backend == EXACT else complex(0)
    rhs = [[zero + (l == n)] for l in eq_rows]
    block_rows = block.to_rows()
    a = [[block_rows[l][i] for i in unknowns] for l in eq_rows]
    x = naive_solve_exact(a, rhs) if backend == EXACT else loop_solve_float(a, rhs)
    if x is not None:
        return [value for (value,) in x]
    if len(eq_rows) <= min(group.antennas, len(unknowns)):
        message = "system is rank-deficient although a generic channel would solve it"
        return DegenerateChannel(f"slot {group.slot}: column {n + 1} {message}", **where)
    return Infeasible(
        f"slot {group.slot}: column {n + 1} has {len(unknowns)} unknowns but "
        f"{len(eq_rows)} equations and no solution",
        **where,
    )


def failing_columns(group, channel):
    """The 0-based columns of the slot's precoder that have no solution when
    each is solved alone, in increasing order."""
    users = _served_columns(channel, group)
    block = channel.gram.take(users, users)
    return [n for n in range(len(users)) if isinstance(_solve_column(group, block, n), Exception)]


def synthesize_precoder_per_column(group, channel) -> PrecodingMatrix:
    """The slot's precoder solved one column at a time.

    Column n is solved alone (``_solve_column``), and the first failing
    column raises its error, as ``synthesize_precoder`` must report it.
    Column n of B is the Gram block over the solution's nonzero rows times
    those entries: summed over Fractions on the exact backend, by the
    package's ``matmul`` on floats, so that the engine's V and B can be
    compared with them bit for bit.
    """
    users = _served_columns(channel, group)
    block = channel.gram.take(users, users)
    size, block_rows = len(users), block.to_rows()
    backend = block.backend
    zero = Fraction(0) if backend == EXACT else complex(0)
    all_rows = range(size)
    v_rows = [[zero] * size for _ in all_rows]
    b_cols = []
    for n in all_rows:
        x = _solve_column(group, block, n)
        if isinstance(x, Exception):
            raise x
        support, values = [], []
        for i, value in zip(group.cacher_sets[n], x):
            if value:
                support.append(i)
                values.append(value)
                v_rows[i][n] = value
        if backend == EXACT:
            b_cols.append(
                [sum(map(mul, (block_rows[l][i] for i in support), values), zero) for l in all_rows]
            )
        else:
            x_support = Matrix.from_rows([[value] for value in values], backend)
            b_cols.append(flat_entries(matmul(block.take(all_rows, support), x_support)))
    v = Matrix.from_rows(v_rows, backend)
    b = Matrix.from_rows(zip(*b_cols), backend)
    return PrecodingMatrix(matrix=v, combined=b)



def _synthesis_ops(group, block):
    """Multiplications and additions of one float slot's synthesis, counted
    in loops over each distinct column system [A | I] (its equation rows,
    ascending, over its cacher positions, a unit per equation row).

    An updated row costs its division and one product and difference per
    entry from the pivot column on (a row whose factor is exactly zero is
    left alone); back-substitution runs over the pivot columns alone, a
    product and difference per later pivot and one division; B sums the
    pivot columns' products in every row of the block, for each right-hand
    side.
    """
    size, muls, adds, block_rows = block.n_rows, 0, 0, block.to_rows()
    for unknowns in dict.fromkeys(group.cacher_sets):
        equations = [l for l in range(size) if l not in unknowns]
        n, n_rhs = len(unknowns), len(equations)
        rows = [
            [block_rows[l][i] for i in unknowns] + [complex(l == u) for u in equations]
            for l in equations
        ]
        tol = PIVOT_RTOL * max(abs(e) for row in rows for e in row[:n])
        pivots = []
        for col in range(n):
            top = len(pivots)
            if top == n_rhs:
                break
            best = top
            for r in range(top + 1, n_rhs):
                if abs(rows[r][col]) > abs(rows[best][col]):
                    best = r
            if abs(rows[best][col]) <= tol:
                continue
            rows[top], rows[best] = rows[best], rows[top]
            for row in rows[top + 1 :]:
                factor = row[col] / rows[top][col]
                if factor == 0:
                    continue
                muls += 1
                for c in range(col, n + n_rhs):
                    row[c] -= factor * rows[top][c]
                    muls, adds = muls + 1, adds + 1
            pivots.append(col)
        x = {}
        for k in reversed(range(len(pivots))):
            for j in range(n_rhs):
                acc = rows[k][n + j]
                for later in pivots[k + 1 :]:
                    acc -= rows[k][later] * x[later, j]
                    muls, adds = muls + 1, adds + 1
                x[pivots[k], j] = acc / rows[k][pivots[k]]
                muls += 1
        for _ in range(size * n_rhs):
            muls += len(pivots)
            adds += len(pivots) - 1
    return {"mul": muls, "add": adds}


def loop_slot_float(group, channel, demands, library):
    """One float slot by loops: (the recovered values, the op counts of each
    phase), as ``run_slot`` reports them once the Gram matrix is formed.

    V and B are the per-column reference's.  The packets p are encoded,
    forwarded and received densely by ``loop_matmul_float``: x = V p, then
    H_S x at the antennas, then H_S* times that at the users.  User l
    subtracts B(l, j) p_j for each packet j it caches, in increasing j, left
    to right from what it received, and divides by B(l, l).
    """
    users = _served_columns(channel, group)
    size, antennas = len(users), channel.matrix.n_rows
    reference = synthesize_precoder_per_column(group, channel)
    v, b = reference.matrix.to_rows(), reference.combined.to_rows()
    h = [[row[k] for k in users] for row in channel.matrix.to_rows()]
    h_star = [[e.conjugate() for e in column] for column in zip(*h)]
    library_rows = library.to_rows()
    packets = [
        library_rows[demands[k - 1] - 1][f - 1]
        for k, f in zip(group.served_users, group.served_rows)
    ]
    x = loop_matmul_float(v, [[p] for p in packets])
    received = loop_matmul_float(h_star, loop_matmul_float(h, x))
    values, known = [], 0
    for l, ((acc,), row) in enumerate(zip(received, b)):
        for j, cachers in enumerate(group.cacher_sets):
            if l in cachers:
                acc -= row[j] * packets[j]
                known += 1
        values.append(acc / row[l])
    ops = {
        "precoder_synthesis": _synthesis_ops(group, channel.gram.take(users, users)),
        "uplink_encode": {"mul": size * size, "add": size * (size - 1)},
        "bs_forward": {"mul": antennas * size, "add": antennas * (size - 1)},
        "user_decode": {
            "mul": size * antennas + known + size,
            "add": size * (antennas - 1) + known,
        },
    }
    return values, ops


# ---------------------------------------------------------------------------
# Brute-force enumeration of small deliverable grids.
#
# Grids are enumerated as multisets of columns (column order never affects
# conditions C1-C4 nor decodability for all demand vectors), then reduced
# by a sound isomorphism key (row sort, column sort, slot relabelling -- all
# delivery-preserving transformations).  Entries use 0 for stars.


def _columns(height, stars, max_s):
    cols = []
    for star_pos in combinations(range(height), stars):
        star_set = set(star_pos)
        frees = [i for i in range(height) if i not in star_set]
        for vals in permutations(range(1, max_s + 1), height - stars):
            col = [0] * height
            for pos, v in zip(frees, vals):
                col[pos] = v
            cols.append(col)
    return np.array(cols, dtype=np.int8)


def _index_batches(n_cols, width, batch=200_000):
    it = combinations_with_replacement(range(n_cols), width)
    while True:
        chunk = list(islice(it, batch))
        if not chunk:
            return
        yield np.array(chunk, dtype=np.int32)


def _filter(grids, n_cols, n_rows, stars, max_s):
    """Keep grids passing C2 with min-antennas >= 1 and K*Z >= F*min_antennas.

    C1 and C3 hold by construction of the column set.  Returns the boolean
    mask and the per-grid minimal antenna count.
    """
    s_max = grids.max(axis=(1, 2))
    ok = np.ones(len(grids), dtype=bool)
    for v in range(1, max_s + 1):
        ok &= (grids == v).any(axis=(1, 2)) | (s_max < v)
    ints = grids > 0
    min_ant = np.zeros(len(grids), dtype=np.int16)
    for s in range(1, max_s + 1):
        cell = grids == s
        rows_with_s = cell.any(axis=2)
        cols_with_s = cell.any(axis=1)
        fanin = (ints & cols_with_s[:, None, :]).sum(axis=2, dtype=np.int16)
        fanin = np.where(rows_with_s, fanin, 0)
        min_ant = np.maximum(min_ant, fanin.max(axis=1))
    ok &= min_ant >= 1
    ok &= n_cols * stars >= n_rows * min_ant
    return ok, min_ant


def _relabel(rows):
    mapping = {}
    out = []
    for row in rows:
        new_row = []
        for e in row:
            if e == 0:
                new_row.append(0)
            else:
                if e not in mapping:
                    mapping[e] = len(mapping) + 1
                new_row.append(mapping[e])
        out.append(new_row)
    return out


def canonical_key(grid_rows):
    """A delivery-invariant key: equal keys imply isomorphic grids.

    Alternates row sorting, slot relabelling, and column sorting to a
    fixpoint (or a small cap); every step is an isomorphism, so deduping by
    this key only ever merges genuinely isomorphic grids.
    """
    g = [list(r) for r in grid_rows]
    for _ in range(8):
        before = g
        g = _relabel(sorted(g))
        g = _relabel([list(r) for r in zip(*sorted(zip(*g)))])
        if g == before:
            break
    return tuple(tuple(r) for r in g)


def orbit_keys(grid_rows):
    """Keys of every row/column/slot-relabel transform of a grid.

    ``canonical_key`` is deduplication-sound but path dependent, so testing
    whether a class was enumerated requires intersecting over its whole
    orbit.  Grids here are small enough to brute-force it.
    """
    n_rows, n_cols = len(grid_rows), len(grid_rows[0])
    ids = sorted({e for row in grid_rows for e in row if e})
    keys = set()
    for row_perm in permutations(range(n_rows)):
        arranged = [grid_rows[i] for i in row_perm]
        for col_perm in permutations(range(n_cols)):
            g = [[row[j] for j in col_perm] for row in arranged]
            for relabeling in permutations(ids):
                mapping = dict(zip(ids, relabeling))
                keys.add(
                    canonical_key(
                        [[0 if e == 0 else mapping[e] for e in row] for row in g]
                    )
                )
    return keys


def enumerate_deliverable_grids(max_rows=4, max_cols=4, max_s=4):
    """All small grids passing C1-C4 at some antenna count L <= t.

    Yields (grid, min_antennas) with grid rows as tuples over {0, 1..S},
    one representative per isomorphism key.  All-star grids (S = 0, nothing
    to deliver) are excluded.
    """
    seen = set()
    out = []
    for n_rows in range(1, max_rows + 1):
        for n_cols in range(1, max_cols + 1):
            z_lo = max(1, -(-n_rows // n_cols))  # K*Z >= F needs Z >= ceil(F/K)
            for stars in range(z_lo, n_rows):
                cols = _columns(n_rows, stars, max_s)
                for idx in _index_batches(len(cols), n_cols):
                    grids = cols[idx].transpose(0, 2, 1)  # (batch, F, K)
                    ok, min_ant = _filter(grids, n_cols, n_rows, stars, max_s)
                    for g, ma in zip(grids[ok], min_ant[ok]):
                        key = canonical_key(g.tolist())
                        if key not in seen:
                            seen.add(key)
                            out.append((key, int(ma)))
    return out
