"""Placement delivery arrays for multi-antenna coded caching.

The central object is an F x K grid whose K columns stand for users and
whose F rows stand for packet indices.  A star at (f, k) means user k
caches packet f of every file; an integer s means user k receives packet
f during transmission slot s.  A grid declared with L antennas is accepted
when

  C1  every column holds the same number of stars,
  C2  every slot id from 1 up to the largest id present occurs somewhere,
  C3  no slot id repeats within a column,
  C4  for each slot s, inside the subgrid of rows and columns touching s,
      no row holds more than L integer entries.

This module provides validation, three generators (the classic t-subset
star pattern, horizontal replication, and a circulant construction),
and a plain-text file format whose table reader also serves the engine's
channel and library fixtures.  Every integer token read from outside the
program, in these files or on the command line, is read by int(), and
every refusal comes from one reader, ``_read_int``: it names the token's
place, quotes at most 40 characters of it and, for a decimal integer too
long for int(), names Python's digit limit.  An array file's body is
converted a line at a time, each distinct token read by int() once, and
only a line with a fault is re-read token by token, by that reader.

All objects are immutable after construction; every function is pure.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb
from pathlib import Path

# A grid entry is either STAR (cached) or a positive slot id.
STAR = None


class DomainError(ValueError):
    """Parameters outside the range a generator or calculator is defined on."""


class RaggedGrid(ValueError):
    """Grid input is empty or not rectangular."""


class NonPositiveSlotId(ValueError):
    """Grid entry is neither STAR nor a positive integer."""


class ParseError(ValueError):
    """Malformed array file or token."""


class ValidationFailure(Exception):
    """Grid does not satisfy C1-C4 at the declared antenna count."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class _Frozen:
    """A record whose fields, its class's annotations, are read-only once
    built; records of one class are equal when their fields are.  Other
    attributes it keeps are neither compared, hashed nor shown."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(map(vars(self).__getitem__, type(self).__annotations__))

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = map("{}={!r}".format, type(self).__annotations__, self._key())
        return f"{type(self).__qualname__}({', '.join(shown)})"


class ValidationReport(_Frozen):
    """Per-condition outcome of a validation run plus derived parameters.

    ``stars_per_col``, ``t`` and ``sum_dof`` are None when C1 fails (they
    are undefined for columns with unequal star counts).  ``min_antennas``
    is the smallest antenna count at which C4 would hold.  ``regular`` means
    every slot id occurs exactly t+L times, the shape the delivery proof
    relies on; it depends on the declared antenna count.  ``_grid`` keeps
    the normalized grid.
    """

    ok: bool
    rows: int
    cols: int
    antennas: int
    c1: bool
    c2: bool
    c3: bool
    c4: bool
    stars_per_col: int | None
    slots: int
    t: Fraction | None
    sum_dof: Fraction | None
    min_antennas: int
    regular: bool  # every slot id occurs exactly t+L times
    failures: tuple[str, ...]

    def __init__(self, **fields):
        vars(self).update(fields)

    @cached_property
    def slot_index(self) -> dict:
        """Each slot id present, ascending, to its cells (f, k), 1-based, in
        column-major order; built from the grid on first read, once."""
        cells: dict[int, list] = {}
        for k, column in enumerate(zip(*self._grid), 1):
            for f, e in enumerate(column, 1):
                if e is STAR:
                    continue
                found = cells.get(e)
                if found is None:
                    cells[e] = [(f, k)]
                else:
                    found.append((f, k))
        return {s: tuple(cells[s]) for s in sorted(cells)}


def _normalize_grid(grid):
    """Return the grid as a tuple of row tuples, checking structure only."""
    rows = tuple(tuple(row) for row in grid)
    if not rows or not rows[0]:
        raise RaggedGrid("grid must have at least one row and one column")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedGrid(f"row {i + 1} has {len(row)} entries, expected {width}")
        for e in row:
            if e is STAR:
                continue
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise NonPositiveSlotId(f"entry {e!r} in row {i + 1}: expected '*' or integer >= 1")
    return rows


def validate(grid, claimed_antennas):
    """Check conditions C1-C4 of an F x K grid at a declared antenna count.

    Returns a ValidationReport with one flag per condition and the derived
    parameters (Z, S, t, sum-DoF, min_antennas, regularity).  The report
    passes overall iff C1-C4 all hold with L = claimed_antennas.

    One column-major scan of the grid yields the star counts and two bit
    masks over columns: each row's integer cells and each slot's columns.
    C1-C4 and regularity read these alone.  C4 costs the integer cells
    plus one popcount per row and distinct slot id in it: a row of slot s
    holds ``(row_mask & slot_mask).bit_count()`` integer entries of s's
    subgrid.  The report's slot index is built on first read, once.

    Raises RaggedGrid or NonPositiveSlotId for structurally malformed input
    and DomainError for a non-positive antenna count; condition failures are
    reported, not raised.
    """
    rows = _normalize_grid(grid)
    if claimed_antennas < 1:
        raise DomainError(f"antenna count must be >= 1, got {_number(claimed_antennas)}")
    n_rows = len(rows)
    n_cols = len(rows[0])
    failures = []

    # The column-major pass.  Bit k of a mask stands for column k, so a
    # slot repeats in column k exactly when its mask already has bit k.
    star_counts = []
    repeats = []
    row_masks = [0] * n_rows
    slot_masks = {}
    for k, column in enumerate(zip(*rows), 1):
        star_counts.append(column.count(STAR))
        bit = 1 << k
        repeat = None
        for f, e in enumerate(column):
            if e is STAR:
                continue
            row_masks[f] |= bit
            mask = slot_masks.get(e, 0)
            if mask & bit and repeat is None:
                repeat = e
            slot_masks[e] = mask | bit
        if repeat is not None:
            repeats.append(f"C3 violated in column {k}: slot {repeat} repeated")

    c1 = len(set(star_counts)) == 1
    stars_per_col = star_counts[0] if c1 else None
    if not c1:
        failures.append(f"C1 violated: star counts per column are {star_counts}")

    # C2 by counting; naming stops at 10 ids, so a huge slot id stays cheap.
    slots = max(slot_masks, default=0)
    c2 = len(slot_masks) == slots
    if not c2:
        missing = list(islice((s for s in range(1, slots + 1) if s not in slot_masks), 10))
        count = slots - len(slot_masks)
        more = f" and {count - 10} more" if count > 10 else ""
        failures.append(f"C2 violated: missing slot id(s) {missing}{more}")

    c3 = not repeats
    failures.extend(repeats)

    # A slot's cell count is its mask's popcount, unless C3 fails: then a
    # column may hold the slot twice.
    t = sum_dof = None
    regular = False
    if c1:
        t = Fraction(n_cols * stars_per_col, n_rows)
        sum_dof = Fraction(n_cols * (n_rows - stars_per_col), slots) if slots else Fraction(0)
        size = t + claimed_antennas
        if c3:
            regular = all(mask.bit_count() == size for mask in slot_masks.values())
        else:
            counts = Counter(chain.from_iterable(rows))
            regular = all(counts[s] == size for s in slot_masks)

    # C4, one popcount per row and distinct slot id in it; STAR's mask is
    # empty.  Only a failing grid looks for its first failing slot, the
    # smallest id with a row of more than L entries in its subgrid.
    slot_masks[STAR] = 0
    min_antennas = max(
        [(mask & slot_masks[s]).bit_count() for mask, row in zip(row_masks, rows) for s in set(row)]
    )
    c4 = min_antennas <= claimed_antennas
    if not c4:
        first = min(
            s
            for mask, row in zip(row_masks, rows)
            for s in set(row)
            if (mask & slot_masks[s]).bit_count() > claimed_antennas
        )
        failures.append(f"C4 violated at s={first}")

    ok = c1 and c2 and c3 and c4
    return ValidationReport(
        ok=ok,
        rows=n_rows,
        cols=n_cols,
        antennas=claimed_antennas,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        stars_per_col=stars_per_col,
        slots=slots,
        t=t,
        sum_dof=sum_dof,
        min_antennas=min_antennas,
        regular=regular,
        failures=tuple(failures),
        _grid=rows,
    )


class Mapda(_Frozen):
    """A validated F x K star/slot grid with a declared antenna count.

    Construction validates C1-C4 once and raises ValidationFailure
    otherwise, so every Mapda instance in the program satisfies the
    conditions.  The validation report is kept as ``report``; its slot
    index, which ``slot_cells`` reads, is built on first read, once.
    """

    grid: tuple
    antennas: int

    def __init__(self, grid, antennas):
        report = validate(grid, antennas)
        if not report.ok:
            raise ValidationFailure("; ".join(report.failures), report)
        vars(self).update(grid=report._grid, antennas=antennas, report=report)

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])

    @property
    def stars_per_col(self) -> int:
        return self.report.stars_per_col

    @property
    def slots(self) -> int:
        return self.report.slots

    def parameters(self):
        """The (L, K, F, Z, S) tuple of this array."""
        return (self.antennas, self.cols, self.rows, self.stars_per_col, self.slots)

    @property
    def profile(self) -> ValidationReport:
        """The derived parameters (t, sum-DoF, ...): the validation report."""
        return self.report

    def slot_cells(self, s):
        """Cells (f, k), 1-based, holding slot id s, in column-major order."""
        return self.report.slot_index.get(s, ())


_MAX_CELLS = 10**6  # the largest table a generator or random library builds


def _number(n):
    """An int or Fraction for a message, as str() writes it, but with each
    integer part of 40 digits or more cut to its sign, its first 20 digits
    and its length, as str() refuses an int longer than Python's digit
    limit, sys.get_int_max_str_digits()."""
    if n.denominator != 1:
        return f"{_number(n.numerator)}/{_number(n.denominator)}"
    n = n.numerator
    if n < 0:
        return f"-{_number(-n)}"
    if n < 10**40:
        return str(n)
    digits = (n.bit_length() - 1) * 3 // 10  # at most log10(n)
    while 10**digits <= n:
        digits += 1
    return f"{n // 10 ** (digits - 20)}... ({digits} digits)"


def _check_cells(what, rows, cols):
    """Refuse ``what``, a rows x cols table, before it is allocated."""
    cells = rows * cols
    if cells > _MAX_CELLS:
        raise DomainError(
            f"{what} needs at least {_number(rows)} x {_number(cols)} = {_number(cells)} "
            f"cells, limit {_MAX_CELLS}"
        )


def _check_t(users, cached):
    if not 1 <= cached < users:
        raise DomainError(f"need 1 <= t < K, got t={_number(cached)}, K={_number(users)}")


def generate_mn_pda(users, cached):
    """Build the classic t-subset star pattern as a single-antenna array.

    Rows are indexed by the t-subsets of [1..users] in lexicographic order;
    entry (T, k) is a star iff k is in T, otherwise the 1-based lexicographic
    rank of the (t+1)-subset T + {k}.  The result is a
    (1, K, C(K,t), C(K-1,t-1), C(K,t+1)) array.
    """
    _check_t(users, cached)
    rows = users if users**2 > _MAX_CELLS else comb(users, cached)  # F >= K; comb is slow there
    _check_cells(f"mn({_number(users)}, {_number(cached)})", rows, users)
    everyone = range(1, users + 1)
    row_of = {sub: i for i, sub in enumerate(combinations(everyone, cached))}
    grid = [[STAR] * users for _ in row_of]
    # The s-th (t+1)-subset U fills cell (U - {k}, k) for each k in U; the
    # t-subsets of U come in lexicographic order, so each omits the k of
    # reversed(U) beside it.
    for s, sub in enumerate(combinations(everyone, cached + 1), 1):
        for k, rest in zip(reversed(sub), combinations(sub, cached)):
            grid[row_of[rest]][k - 1] = s
    return Mapda(tuple(map(tuple, grid)), antennas=1)


def replicate(base, copies):
    """Concatenate ``copies`` horizontal copies of an array.

    The declared antenna count scales by ``copies``.  The concatenation is
    re-validated mechanically; if it fails C1-C4 at the scaled antenna
    count, ValidationFailure propagates and nothing is returned.
    """
    if copies < 1:
        raise DomainError(f"copies must be >= 1, got {_number(copies)}")
    _check_cells(f"{_number(copies)} copies of the array", base.rows, base.cols * copies)
    grid = tuple(row * copies for row in base.grid)
    return Mapda(grid, antennas=base.antennas * copies)


def generate_cyclic(users, cached):
    """Build the circulant array with K rows and K-t slots on K-t antennas.

    Column k holds stars in rows k, k+1, ..., k+t-1 (mod K, 1-based); the
    remaining cells cycle through the slot ids.  The constructor validates
    C1-C4; the result is a regular (K-t, K, K, t, K-t) array with sum-DoF K.
    """
    _check_t(users, cached)
    _check_cells(f"cyclic({_number(users)}, {_number(cached)})", users, users)
    k_users, t = users, cached
    grid = []
    for f in range(1, k_users + 1):
        row = []
        for k in range(1, k_users + 1):
            if (f - k) % k_users < t:
                row.append(STAR)
            else:
                row.append((f - k - t) % k_users + 1)
        grid.append(tuple(row))
    return Mapda(tuple(grid), antennas=k_users - t)


# ---------------------------------------------------------------------------
# File format: header "L K F Z S" (Z and S may be "-" meaning derive),
# then F lines of K tokens, each "*" or a positive decimal integer.
# Lines starting with "#" are comments.

def format_mapda(m) -> str:
    lines = [f"{m.antennas} {m.cols} {m.rows} {m.stars_per_col} {m.slots}"]
    for row in m.grid:
        lines.append(" ".join(["*" if e is STAR else str(e) for e in row]))
    return "\n".join(lines) + "\n"


def _quote(token):
    """A bad token for a message: its repr, cut after 40 characters."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}..."


def _plain(token):
    """Whether a number token is ASCII without "_": int(), float(), complex()
    and Fraction() also read "1_0" as 10 and non-ASCII digits such as "\u0663",
    which every reader of a number from outside refuses."""
    return token.isascii() and "_" not in token


def _read_int(token, where, what):
    """The one reader of an integer token from outside the program: int(token),
    or a ParseError that names ``where``, the token's place, as in "line 3".
    A token that is not ``_plain`` is refused.  A decimal integer longer
    than Python's digit limit, sys.get_int_max_str_digits(), is refused by
    that name; any other token as ``what`` and the token, quoted."""
    if _plain(token):
        try:
            return int(token)
        except ValueError:
            pass
    stripped, limit = token.strip(), sys.get_int_max_str_digits()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    if 0 < limit < len(digits) and digits.isascii() and digits.isdigit():
        raise ParseError(
            f"{where}: integer {_quote(stripped)} has {len(digits)} digits, past "
            f"Python's limit of {limit} (sys.get_int_max_str_digits())"
        )
    raise ParseError(f"{where}: {what} {_quote(token)}" if what else f"{where}: {_quote(token)}")


def _parse_entry(token, where):
    if token == "*":
        return STAR
    value = _read_int(token, where, "bad entry")
    if value < 1:
        raise ParseError(f"{where}: slot ids start at 1, got {_number(value)}")
    return value


class _Entries(dict):
    """The entries of one array table by token, each distinct token read by
    int() once: STAR for "*", else a ``_plain`` slot id of at least 1."""

    def __init__(self):
        super().__init__({"*": STAR})

    def __missing__(self, token):
        value = int(token) if _plain(token) else 0
        if value < 1:
            raise ValueError(token)
        self[token] = value
        return value

    def line(self, tokens, where):
        """One body line, converted by one pass of lookups; a line with a
        token int() refuses or an id below 1 is re-read by ``_parse_entry``,
        which names its first fault."""
        try:
            return tuple([self[tok] for tok in tokens])
        except ValueError:
            return tuple([_parse_entry(tok, where) for tok in tokens])


def content_lines(text):
    """(line number, line) of each line of ``text`` that is neither blank
    nor a "#" comment, stripped, numbered from 1.  One leading byte-order
    mark (U+FEFF) is dropped."""
    return [
        (i, line)
        for i, line in enumerate(map(str.strip, text.removeprefix("\ufeff").splitlines()), 1)
        if line and line[0] != "#"
    ]


def read_table(text, form, shape, parse_line, derivable=()):
    """Read the layout of array files and both fixtures; errors name a line.

    After ``content_lines`` drops one leading byte-order mark, "#" comments
    and blank lines, the header holds one integer per name in
    ``form`` ("-", read as None, for names in ``derivable``), each read by
    ``_read_int``; the names in ``shape`` count the body's rows and
    columns, each at least 1.  Returns the header line number, the header
    fields by name and the rows.  The body is read a line at a time, in
    order: a line's token count is checked, then ``parse_line(tokens,
    where)``, where is "line N", converts the line to its row.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty input")
    header_no, header = lines[0]
    where = f"line {header_no}"
    names, fields = form.split(), header.split()
    if len(fields) != len(names):
        raise ParseError(f"{where}: header must be {form!r}, got {_quote(header)}")
    values = {
        name: None if value == "-" and name in derivable
        else _read_int(value, where, "non-integer header field")
        for name, value in zip(names, fields)
    }
    n_rows, n_cols = values[shape[0]], values[shape[1]]
    if n_rows < 1 or n_cols < 1:
        raise ParseError(
            f"{where}: {shape[0]} and {shape[1]} must be >= 1, "
            f"got {shape[0]}={_number(n_rows)}, {shape[1]}={_number(n_cols)}"
        )
    body = lines[1:]
    if len(body) != n_rows:
        raise ParseError(f"{where}: header declares {_number(n_rows)} rows, found {len(body)}")
    rows = []
    for line_no, line in body:
        tokens, where = line.split(), f"line {line_no}"
        if len(tokens) != n_cols:
            raise ParseError(f"{where}: expected {_number(n_cols)} entries, found {len(tokens)}")
        rows.append(parse_line(tokens, where))
    return header_no, values, tuple(rows)


def parse_raw(text: str):
    """Parse the text form of an array without checking C1-C4: the header
    line number, the header fields by name (Z and S None where "-") and
    the grid.  Each distinct token is read by int() once, so a ``_plain``
    token int() takes is an entry ("+3" included, "1_0" and non-ASCII
    digits not); a line with a fault is re-read token by token, naming the
    first."""
    return read_table(text, "L K F Z S", ("F", "K"), _Entries().line, derivable=("Z", "S"))


def header_mismatches(header, report: ValidationReport) -> list:
    """Where the header's declared Z and S disagree with the validated grid.

    Z is compared only where C1 defines it.  L is never compared: a grid
    may be validated at another antenna count on purpose.
    """
    found = []
    z, s = header["Z"], header["S"]
    if z is not None and report.c1 and z != report.stars_per_col:
        found.append(f"header declares Z={_number(z)} but grid has Z={report.stars_per_col}")
    if s is not None and s != report.slots:
        found.append(f"header declares S={_number(s)} but grid has S={report.slots}")
    return found


def parse_mapda(text: str):
    """Parse the text form of an array, validating before returning."""
    header_line, header, grid = parse_raw(text)
    try:
        m = Mapda(grid, antennas=header["L"])
    except DomainError as exc:
        raise ParseError(f"line {header_line}: {exc}") from exc
    mismatches = header_mismatches(header, m.report)
    if mismatches:
        raise ValidationFailure("; ".join(mismatches))
    return m


def read_mapda(path):
    return parse_mapda(Path(path).read_text(encoding="utf-8"))


def write_mapda(m, path):
    Path(path).write_text(format_mapda(m), encoding="utf-8")
