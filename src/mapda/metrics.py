"""Closed-form scheme calculators: subpacketization, delivery time,
sum-DoF, and arithmetic-cost models.

Three array families (tagged scheme 1, 2, 3) are compared against the
baseline retrieval scheme (tagged "asmst") at a system point (K users,
L antennas, memory ratio M/N).  All arithmetic is exact: rationals via
fractions.Fraction, binomials via math.comb.  Nothing here simulates a
delivery; these are the analytical counterparts the engine is checked
against.  ``TABLE_SCHEMES`` maps each tabulated scheme's tag to its
calculator, in column order; the comparison table's columns and rows and
the sweep's plot CSV are all derived from it.

Scheme parameter formulas:

  asmst     F = C(K,t) C(K-t-1,L-1),  S = C(K,t+L) C(t+L-1,t)
  scheme 1  F = beta C(K/m,t/m),      S = sgn(t/m+1, m/L) l (K-t)/(t+m) C(K/m,t/m)
            with l = m/gcd(m,L-m), beta = (sgn(t/m+1, m/L) + (L-m)/m) l,
            sgn(x, y) = 1 if y = 1 else x, Z = F t/K,
            requiring t+L < K, m <= L, m | K, m | t
  scheme 2  F = (t+L)/a C(K/a,(t+L)/a), S = (K-t)/a C(K/a,(t+L)/a),
            a = gcd(K,t,L), requiring t+L <= K
  scheme 3  F = K, Z = t, S = K-t, requiring L = K-t

Since m | K and m | t, beta, S and Z of scheme 1 are each one exact integer
quotient: beta = (sgn m + L-m)/gcd(m,L-m), S = sgn l C(K/m,t/m+1) and
Z = beta C(K/m-1,t/m-1).  tests/test_metrics.py proves them exact.

Every scheme, the baseline included, satisfies S/F = K(1-M/N)/(t+L) =
(K-t)/(t+L) and K(F-Z)/S = t+L exactly, by construction; nothing here
re-checks them.  tests/test_metrics.py::TestIdentities proves them.
The cost model is lambda = (g^3 + g^2 + t g) S with g = t+L for the new
schemes, and the exact bracketed sum for the baseline (not its O() form).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arrays import DomainError, _Frozen, _number


class ConstraintViolation(DomainError):
    """A scheme's parameter limitation fails at the given point."""


def check_counts(users, antennas, m=None):
    """Raise DomainError unless K, L and m (when given) are all >= 1."""
    if users < 1 or antennas < 1:
        raise DomainError(f"K and L must be >= 1, got K={_number(users)}, L={_number(antennas)}")
    if m is not None and m < 1:
        raise DomainError(f"grouping size m must be >= 1, got {_number(m)}")


class SystemPoint(_Frozen):
    """One (K, L, M/N) operating point, optionally with a grouping size m.

    The caching redundancy t = K * M/N must be an integer; it is computed
    once, at construction.  ``m`` only matters for scheme 1; leave it None
    to let calculators pick the admissible value with the smallest
    subpacketization.
    """

    users: int
    antennas: int
    memory_ratio: Fraction
    m: int | None

    def __init__(self, users, antennas, memory_ratio, m=None):
        ratio = Fraction(memory_ratio)
        check_counts(users, antennas, m)
        num, den = ratio.numerator, ratio.denominator  # den >= 1, lowest terms
        if not 0 < num < den:
            raise DomainError(f"memory ratio must lie in (0,1), got {_number(ratio)}")
        t, rest = divmod(users * num, den)
        if rest:
            raise DomainError(f"t = K*M/N = {_number(users * ratio)} is not an integer")
        vars(self).update(users=users, antennas=antennas, memory_ratio=ratio, m=m, t=t)

    @property
    def alpha(self) -> int:
        return math.gcd(self.users, self.t, self.antennas)


class SchemeMetrics(NamedTuple):
    """The (F, Z, S) triple of one scheme plus its derived figures; ``ndt``
    and ``sum_dof`` are derived when read (the comparison table reads
    neither), the latter from K.  ``m`` is the grouping size scheme 1 ran
    at, None for the other schemes."""

    scheme: str
    subpacketization: int
    stars_per_col: int
    slots: int
    complexity: int
    users: int
    m: int | None = None

    @property
    def parameters(self):
        return (self.subpacketization, self.stars_per_col, self.slots)

    @property
    def ndt(self) -> Fraction:
        return Fraction(self.slots, self.subpacketization)

    @property
    def sum_dof(self) -> Fraction:
        return Fraction(self.users * (self.subpacketization - self.stars_per_col), self.slots)


def asmst_metrics(p: SystemPoint) -> SchemeMetrics:
    """Baseline scheme figures, using the exact bracketed cost sum."""
    t, big_l, big_k = p.t, p.antennas, p.users
    if t + big_l > big_k:
        raise DomainError(
            f"need t+L <= K, got t={_number(t)}, L={_number(big_l)}, K={_number(big_k)}"
        )
    f = math.comb(big_k, t) * math.comb(big_k - t - 1, big_l - 1)
    z = math.comb(big_k - 1, t - 1) * math.comb(big_k - t - 1, big_l - 1)
    s = math.comb(big_k, t + big_l) * math.comb(t + big_l - 1, t)
    lam = (
        math.comb(t + big_l - 1, t) * (t + 1) * (big_l - 1)
        + math.comb(t + big_l, t + 1) * big_l
        + 2 * big_l * math.comb(t + big_l, t + 1)
        + (t + big_l) * math.comb(t + big_l - 1, t) ** 3
    ) * math.comb(big_k, t + big_l)
    return _finish("asmst", p, f, z, s, lam)


def admissible_m_values(p: SystemPoint):
    """Grouping sizes allowed by scheme 1 at this point."""
    t, big_l, big_k = p.t, p.antennas, p.users
    return tuple(
        m
        for m in range(1, big_l + 1)
        if big_k % m == 0 and t % m == 0
    )


def best_m(p: SystemPoint):
    """The admissible m with the smallest scheme-1 subpacketization, or None."""
    try:
        return _scheme1(p, None).m
    except ConstraintViolation:
        return None


def _scheme1(p: SystemPoint, m) -> SchemeMetrics:
    """Scheme 1 at p, at grouping size m when given.

    With m None, scheme 1 is evaluated once per admissible m and the m with
    the smallest subpacketization wins, the smallest such m on ties.
    """
    t, big_l, big_k = p.t, p.antennas, p.users
    if t + big_l >= big_k:
        raise ConstraintViolation(
            f"scheme 1 needs t+L < K, got t={_number(t)}, L={_number(big_l)}, K={_number(big_k)}"
        )
    if m is not None:
        return _scheme1_at(p, m)
    # m = 1 is always admissible; min keeps the first, smallest, m on ties.
    candidates = [_scheme1_at(p, candidate) for candidate in admissible_m_values(p)]
    return min(candidates, key=lambda c: c.subpacketization)


def _scheme1_at(p: SystemPoint, m) -> SchemeMetrics:
    """Scheme 1 at grouping size m, once ``_scheme1`` has checked t+L < K."""
    t, big_l, big_k = p.t, p.antennas, p.users
    if m > big_l:
        raise ConstraintViolation(f"scheme 1 needs m <= L, got m={_number(m)}, L={_number(big_l)}")
    if big_k % m or t % m:
        raise ConstraintViolation(f"scheme 1 needs m | K and m | t, got m={_number(m)}")
    sgn = 1 if m == big_l else t // m + 1  # sgn(t/m+1, m/L)
    l_rep = m // math.gcd(m, big_l - m)
    beta = (sgn * m + big_l - m) * l_rep // m
    base = math.comb(big_k // m, t // m)
    f = beta * base
    s = sgn * l_rep * (big_k - t) * base // (t + m)
    z = f * t // big_k
    return _finish("scheme1", p, f, z, s, m=m)


def _scheme2(p: SystemPoint) -> SchemeMetrics:
    t, big_l, big_k = p.t, p.antennas, p.users
    if t + big_l > big_k:
        raise ConstraintViolation(
            f"scheme 2 needs t+L <= K, got t={_number(t)}, L={_number(big_l)}, K={_number(big_k)}"
        )
    a = p.alpha
    base = math.comb(big_k // a, (t + big_l) // a)
    f = (t + big_l) // a * base
    s = (big_k - t) // a * base
    z = t // a * math.comb(big_k // a - 1, (t + big_l) // a - 1)
    return _finish("scheme2", p, f, z, s)


def _scheme3(p: SystemPoint) -> SchemeMetrics:
    t, big_l, big_k = p.t, p.antennas, p.users
    if big_l != big_k - t:
        raise ConstraintViolation(
            f"scheme 3 needs L = K-t, got L={_number(big_l)}, K-t={_number(big_k - t)}"
        )
    return _finish("scheme3", p, big_k, t, big_k - t)


def _finish(tag, p, f, z, s, complexity=None, m=None) -> SchemeMetrics:
    """The metrics record of (F, Z, S); ``complexity`` defaults to the new
    schemes' cost model (g^3 + g^2 + t g) S with g = t+L."""
    if complexity is None:
        g = p.t + p.antennas
        complexity = (g**3 + g**2 + p.t * g) * s
    return SchemeMetrics(
        scheme=tag,
        subpacketization=f,
        stars_per_col=z,
        slots=s,
        complexity=complexity,
        users=p.users,
        m=m,
    )


def scheme_metrics(p: SystemPoint, which: int) -> SchemeMetrics:
    """Figures for scheme 1, 2, or 3 at a point; ConstraintViolation names
    the violated limitation when the point is outside the scheme's range."""
    if which == 1:
        return _scheme1(p, p.m)
    if which == 2:
        return _scheme2(p)
    if which == 3:
        return _scheme3(p)
    raise DomainError(f"scheme must be 1, 2, or 3, got {which}")


def silence_antennas(p: SystemPoint) -> SystemPoint:
    """Trade surplus antennas for cache redundancy: run an L-antenna point
    as a t-antenna point when t < L.  Downstream figures then give sum-DoF
    2t and delivery time (K-t)/(2t)."""
    if p.t >= p.antennas:
        raise DomainError(f"nothing to silence: t={_number(p.t)} >= L={_number(p.antennas)}")
    return SystemPoint(p.users, p.t, p.memory_ratio, p.m)


# ---------------------------------------------------------------------------
# Tabular comparison.
#
# Published reference cells for known operating points; computed values that
# disagree with a reference cell are flagged rather than silently replaced
# (several published rows are inconsistent with the stated formulas).
# Scientific cells are compared on their 2-significant-digit rendering.

_REFERENCE_CELLS = {
    (20, Fraction(1, 5), 4): {"F_asmst": 2204475, "F_s1": 5, "F_s2": 20, "F_s3": 20},
    (20, Fraction(2, 5), 5): {"F_asmst": 20785050, "F_s1": 10, "F_s2": 30, "F_s3": 20},
    (50, Fraction(1, 5), 5): {"F_asmst": "8.4E+14", "F_s1": 45, "F_s2": 360, "F_s3": 50},
    (50, Fraction(3, 10), 5): {"F_asmst": "1.0E+17", "F_s1": 120, "F_s2": 840, "F_s3": 50},
    (100, Fraction(1, 20), 5): {"F_asmst": "2.3E+14", "F_s1": 20, "F_s2": 380, "F_s3": 100},
    (100, Fraction(1, 5), 10): {"F_asmst": "1.1E+32", "F_s1": 45, "F_s2": 360, "F_s3": 100},
    (150, Fraction(3, 50), 10): {"F_asmst": "4.8E+28", "F_s1": 15, "F_s2": 210, "F_s3": 150},
    (150, Fraction(1, 10), 15): {"F_asmst": "5.5E+38", "F_s1": 10, "F_s2": 90, "F_s3": 150},
    (150, Fraction(1, 5), 15): {"F_asmst": "1.9E+49", "F_s1": 45, "F_s2": 360, "F_s3": 150},
}


def _scheme3_listed(p: SystemPoint):
    """Scheme 3 as published tables list it: where L != K-t they still give
    F = K, so that bare F comes back, for the row to flag.  L = K-t is
    tested first, so no ConstraintViolation is built there."""
    if p.antennas == p.users - p.t:
        return _scheme3(p)
    return p.users


# Each tabulated scheme's tag and calculator, in column order.  A calculator
# returns the SchemeMetrics, or a bare F that published tables list outside
# the scheme's limits; it raises DomainError (ConstraintViolation included)
# where the limits fail, and the row says n/a.
TABLE_SCHEMES = {
    "asmst": asmst_metrics,
    "s1": lambda p: _scheme1(p, p.m),
    "s2": _scheme2,
    "s3": _scheme3_listed,
}
# The F, F_sci, lambda and lambda_sci columns of each scheme, by tag.
_CELLS = {
    tag: (f"F_{tag}", f"F_{tag}_sci", f"lambda_{tag}", f"lambda_{tag}_sci")
    for tag in TABLE_SCHEMES
}
TABLE_COLUMNS = (
    "K", "ratio", "L", "m",
    *(column for cells in _CELLS.values() for column in cells[:2]),
    "ndt",
    *(column for cells in _CELLS.values() for column in cells[2:]),
    "flags",
)
_PLOT_HEADER = ",".join(["ratio", *(f"log10_{cells[0]}" for cells in _CELLS.values())])


def sci(value) -> str:
    """Two-significant-digit scientific rendering, e.g. 8.4E+14."""
    return f"{int(value):.1E}"


def _reference_mismatch(cells, column, computed):
    """The flag for ``computed`` against published cell ``column`` of a
    point's ``cells``, or None when it agrees or nothing is published."""
    ref = cells.get(column)
    if ref is None:
        return None
    shown = sci(computed) if isinstance(ref, str) else computed
    if shown != ref:
        return f"{column}:formula={computed}!=published={ref}"
    return None


def table_row(p: SystemPoint) -> dict:
    """One comparison row; scheme cells outside their limits say n/a.

    ``sci`` formats through a float, so a figure of 2**1024 or more raises
    DomainError.  Each binomial is at most C(K, t), C(K-t-1, L-1), C(K, t+L)
    or C(t+L, t+1), each at most a figure: none is formed where C(n, k) >=
    (n/k)**k puts one past 2**1025, which needs K > 1025 (C(n, k) < 2**n).
    """
    t, big_l, big_k = p.t, p.antennas, p.users
    tops = ((big_k, t), (big_k - t - 1, big_l - 1), (big_k, t + big_l), (t + big_l, t + 1))
    lows = [(n, min(k, n - k)) for n, k in tops] if 1025 < big_k >= t + big_l else []
    try:
        if not any(k > 0 and k * (math.log2(n) - math.log2(k)) > 1025 for n, k in lows):
            return _table_row(p)
    except OverflowError:
        pass
    point = f"K={_number(big_k)}, ratio {_number(p.memory_ratio)}, L={_number(big_l)}"
    message = f"point {point} has a figure of 2**1024 or more"
    raise DomainError(f"{message}, past the float range of the table's scientific cells")


def _table_row(p: SystemPoint) -> dict:
    users, t, antennas = p.users, p.t, p.antennas
    row = dict.fromkeys(TABLE_COLUMNS, "")
    row["K"], row["ratio"], row["L"] = str(users), str(p.memory_ratio), str(antennas)
    row["m"] = "-" if p.m is None else str(p.m)
    row["ndt"] = str(Fraction(users - t, t + antennas))
    published = _REFERENCE_CELLS.get((users, p.memory_ratio, antennas))
    flags = []
    for tag, calculate in TABLE_SCHEMES.items():
        f_col, f_sci, lambda_col, lambda_sci = _CELLS[tag]
        try:
            metric = calculate(p)
        except DomainError as exc:
            row[f_col] = row[lambda_col] = f"n/a({exc})"
            continue
        if isinstance(metric, int):
            f = metric
            row[lambda_col] = "n/a(constraint-unmet)"
            flags.append(f"{f_col}:constraint-unmet(L={antennas}!=K-t={users - t})")
        else:
            f, complexity = metric.subpacketization, metric.complexity
            row[lambda_col], row[lambda_sci] = str(complexity), sci(complexity)
            if metric.m is not None:
                row["m"] = str(metric.m)
        row[f_col], row[f_sci] = str(f), sci(f)
        mismatch = published and _reference_mismatch(published, f_col, f)
        if mismatch:
            flags.append(mismatch)

    if t < antennas:
        flags.append(f"engine-gate:t={t}<L={antennas}(silence {antennas - t} antennas)")
    row["flags"] = ";".join(flags)
    return row


def format_table(rows) -> str:
    """CSV text of ``table_row`` rows, in the order given."""
    lines = [",".join(TABLE_COLUMNS)]
    lines.extend(",".join(row[c] for c in TABLE_COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def format_plot(rows) -> str:
    """Plot CSV of ``table_row`` rows: the ratio, then log10 F of each
    scheme to six decimals, blank where the scheme's limits fail (its lambda
    says n/a), even where the table still lists K as scheme 3's F."""
    lines = [_PLOT_HEADER]
    for row in rows:
        cells = [row["ratio"]]
        for f_col, _, lambda_col, _ in _CELLS.values():
            unmet = row[lambda_col].startswith("n/a")
            cells.append("" if unmet else f"{math.log10(int(row[f_col])):.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def table_report(points) -> str:
    """CSV comparison over points, one row per point, deterministic order."""
    return format_table(table_row(p) for p in points)
