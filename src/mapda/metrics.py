"""Closed-form scheme calculators: subpacketization, delivery time,
sum-DoF, and arithmetic-cost models.

Three array families (tagged scheme 1, 2, 3) are compared against the
baseline retrieval scheme (tagged "asmst") at a system point (K users,
L antennas, memory ratio M/N).  All arithmetic is exact: rationals via
fractions.Fraction, binomials via math.comb.  Nothing here simulates a
delivery; these are the analytical counterparts the engine is checked
against.

Scheme parameter formulas:

  asmst     F = C(K,t) C(K-t-1,L-1),  S = C(K,t+L) C(t+L-1,t)
  scheme 1  F = beta C(K/m,t/m),      S = sgn(t/m+1, m/L) l (K-t)/(t+m) C(K/m,t/m)
            with l = m/gcd(m,L-m), beta = (sgn(t/m+1, m/L) + (L-m)/m) l,
            requiring t+L < K, m <= L, m | K, m | t
  scheme 2  F = (t+L)/a C(K/a,(t+L)/a), S = (K-t)/a C(K/a,(t+L)/a),
            a = gcd(K,t,L), requiring t+L <= K
  scheme 3  F = K, Z = t, S = K-t, requiring L = K-t

Every scheme, the baseline included, satisfies S/F = K(1-M/N)/(t+L) =
(K-t)/(t+L) and K(F-Z)/S = t+L exactly, by construction; nothing here
re-checks them.  tests/test_metrics.py::TestIdentities proves them.
The cost model is lambda = (g^3 + g^2 + t g) S with g = t+L for the new
schemes, and the exact bracketed sum for the baseline (not its O() form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arrays import DomainError


class ConstraintViolation(ValueError):
    """A scheme's parameter limitation fails at the given point."""


def sgn_pair(x, y):
    """1 when y equals 1, otherwise x (table-footnote selector)."""
    return 1 if y == 1 else x


def check_counts(users, antennas, m=None):
    """Raise DomainError unless K, L and m (when given) are all >= 1."""
    if users < 1 or antennas < 1:
        raise DomainError(f"K and L must be >= 1, got K={users}, L={antennas}")
    if m is not None and m < 1:
        raise DomainError(f"grouping size m must be >= 1, got {m}")


@dataclass(frozen=True)
class SystemPoint:
    """One (K, L, M/N) operating point, optionally with a grouping size m.

    The caching redundancy t = K * M/N must be an integer; it is computed
    once, at construction.  ``m`` only matters for scheme 1; leave it None
    to let calculators pick the admissible value with the smallest
    subpacketization.
    """

    users: int
    antennas: int
    memory_ratio: Fraction
    m: int | None = None
    t: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "memory_ratio", Fraction(self.memory_ratio))
        check_counts(self.users, self.antennas, self.m)
        if not 0 < self.memory_ratio < 1:
            raise DomainError(f"memory ratio must lie in (0,1), got {self.memory_ratio}")
        t = self.users * self.memory_ratio
        if t.denominator != 1:
            raise DomainError(f"t = K*M/N = {t} is not an integer")
        object.__setattr__(self, "t", int(t))

    @property
    def alpha(self) -> int:
        return math.gcd(self.users, self.t, self.antennas)


@dataclass(frozen=True)
class SchemeMetrics:
    """The (F, Z, S) triple of one scheme plus its derived figures."""

    scheme: str
    subpacketization: int
    stars_per_col: int
    slots: int
    ndt: Fraction
    sum_dof: Fraction
    complexity: int

    @property
    def parameters(self):
        return (self.subpacketization, self.stars_per_col, self.slots)


def _as_int(value, what):
    value = Fraction(value)
    if value.denominator != 1:
        raise ConstraintViolation(f"{what} = {value} is not an integer")
    return int(value)


def asmst_metrics(p: SystemPoint) -> SchemeMetrics:
    """Baseline scheme figures, using the exact bracketed cost sum."""
    t, big_l, big_k = p.t, p.antennas, p.users
    if t + big_l > big_k:
        raise DomainError(f"need t+L <= K, got t={t}, L={big_l}, K={big_k}")
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
        return _scheme1(p, None)[0]
    except ConstraintViolation:
        return None


def _scheme1(p: SystemPoint, m) -> tuple:
    """Scheme 1 at p as (m, metrics), at grouping size m when given.

    With m None, scheme 1 is evaluated once per admissible m and the m with
    the smallest subpacketization wins, the smallest such m on ties.
    """
    t, big_l, big_k = p.t, p.antennas, p.users
    if t + big_l >= big_k:
        raise ConstraintViolation(f"scheme 1 needs t+L < K, got t={t}, L={big_l}, K={big_k}")
    if m is not None:
        return m, _scheme1_at(p, m)
    best = None
    for candidate in admissible_m_values(p):
        try:
            metrics = _scheme1_at(p, candidate)
        except ConstraintViolation:
            continue
        if best is None or metrics.subpacketization < best[1].subpacketization:
            best = (candidate, metrics)
    if best is None:
        raise ConstraintViolation("scheme 1 has no admissible m at this point")
    return best


def _scheme1_at(p: SystemPoint, m) -> SchemeMetrics:
    """Scheme 1 at grouping size m, once ``_scheme1`` has checked t+L < K."""
    t, big_l, big_k = p.t, p.antennas, p.users
    if m > big_l:
        raise ConstraintViolation(f"scheme 1 needs m <= L, got m={m}, L={big_l}")
    if big_k % m or t % m:
        raise ConstraintViolation(f"scheme 1 needs m | K and m | t, got m={m}")
    sgn = sgn_pair(Fraction(t, m) + 1, Fraction(m, big_l))
    l_rep = m // math.gcd(m, big_l - m)
    beta = _as_int((sgn + Fraction(big_l - m, m)) * l_rep, "beta")
    base = math.comb(big_k // m, t // m)
    f = beta * base
    s = _as_int(sgn * l_rep * Fraction(big_k - t, t + m) * base, "S")
    z = _as_int(Fraction(f * t, big_k), "Z")
    return _finish("scheme1", p, f, z, s)


def _scheme2(p: SystemPoint) -> SchemeMetrics:
    t, big_l, big_k = p.t, p.antennas, p.users
    if t + big_l > big_k:
        raise ConstraintViolation(f"scheme 2 needs t+L <= K, got t={t}, L={big_l}, K={big_k}")
    a = p.alpha
    base = math.comb(big_k // a, (t + big_l) // a)
    f = (t + big_l) // a * base
    s = (big_k - t) // a * base
    z = t // a * math.comb(big_k // a - 1, (t + big_l) // a - 1)
    return _finish("scheme2", p, f, z, s)


def _scheme3(p: SystemPoint) -> SchemeMetrics:
    t, big_l, big_k = p.t, p.antennas, p.users
    if big_l != big_k - t:
        raise ConstraintViolation(f"scheme 3 needs L = K-t, got L={big_l}, K-t={big_k - t}")
    return _finish("scheme3", p, big_k, t, big_k - t)


def _finish(tag, p, f, z, s, complexity=None) -> SchemeMetrics:
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
        ndt=Fraction(s, f),
        sum_dof=Fraction(p.users * (f - z), s),
        complexity=complexity,
    )


def scheme_metrics(p: SystemPoint, which: int) -> SchemeMetrics:
    """Figures for scheme 1, 2, or 3 at a point; ConstraintViolation names
    the violated limitation when the point is outside the scheme's range."""
    if which == 1:
        return _scheme1(p, p.m)[1]
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
        raise DomainError(f"nothing to silence: t={p.t} >= L={p.antennas}")
    return SystemPoint(p.users, p.t, p.memory_ratio, p.m)


@dataclass(frozen=True)
class RatioReport:
    """Evaluation of one asymptotic gain model at a concrete point.

    Subpacketization ratios (kinds F1, F2) report a base-2 exponent:
    the new scheme's F is about 2**exponent times the baseline's.
    Cost ratios (kinds lambda1..lambda3) report the polynomial model
    constant * K**k_degree and its exact value at the point.
    """

    kind: str
    exponent: Fraction | None = None
    constant: int | None = None
    k_degree: Fraction | None = None
    value: int | None = None


def ratio_asymptotics(p: SystemPoint, which: str) -> RatioReport:
    """Evaluate the stated asymptotic ratio models (not measurements)."""
    t, big_l, big_k = p.t, p.antennas, p.users
    g = t + big_l
    if which == "F1":
        if p.m is None:
            raise DomainError("F1 ratio needs m")
        if big_k % p.m:
            raise DomainError("F1 ratio needs m | K")
        return RatioReport(kind="F1", exponent=Fraction((1 - p.m) * big_k, p.m))
    if which == "F2":
        a = p.alpha
        return RatioReport(kind="F2", exponent=Fraction(big_k * (1 - a), a))
    # Each cost ratio is (g-1)^(3t-2) * factor * K^degree.
    if which == "lambda1":
        a = p.alpha
        factor, degree = a ** (g // a), Fraction(g * (a - 1), a)
    elif which == "lambda2":
        if p.m is None:
            raise DomainError("lambda2 ratio needs m")
        if t % p.m:
            raise DomainError("lambda2 ratio needs m | t")
        factor, degree = p.m ** (t // p.m), Fraction(big_l) + Fraction(t * (p.m - 1), p.m)
    elif which == "lambda3":
        factor, degree = 1, Fraction(big_l + t - 1)
    else:
        raise DomainError(f"unknown ratio kind {which!r}")
    constant = (g - 1) ** (3 * t - 2) * factor
    return RatioReport(
        kind=which, constant=constant, k_degree=degree, value=constant * big_k ** int(degree)
    )


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

TABLE_COLUMNS = (
    "K",
    "ratio",
    "L",
    "m",
    "F_asmst",
    "F_asmst_sci",
    "F_s1",
    "F_s1_sci",
    "F_s2",
    "F_s2_sci",
    "F_s3",
    "F_s3_sci",
    "ndt",
    "lambda_asmst",
    "lambda_asmst_sci",
    "lambda_s1",
    "lambda_s1_sci",
    "lambda_s2",
    "lambda_s2_sci",
    "lambda_s3",
    "lambda_s3_sci",
    "flags",
)


def sci(value) -> str:
    """Two-significant-digit scientific rendering, e.g. 8.4E+14."""
    return f"{int(value):.1E}"


def _reference_mismatch(key, column, computed):
    ref = _REFERENCE_CELLS.get(key, {}).get(column)
    if ref is None:
        return None
    shown = sci(computed) if isinstance(ref, str) else computed
    if shown != ref:
        return f"{column}:formula={computed}!=published={ref}"
    return None


def table_row(p: SystemPoint) -> dict:
    """One comparison row; scheme cells outside their limits say n/a."""
    row = {c: "" for c in TABLE_COLUMNS}
    flags = []
    row["K"] = str(p.users)
    row["ratio"] = str(p.memory_ratio)
    row["L"] = str(p.antennas)
    row["ndt"] = str(Fraction(p.users - p.t, p.t + p.antennas))
    key = (p.users, p.memory_ratio, p.antennas)

    def fill(column, metric_or_reason, complexity_col):
        if isinstance(metric_or_reason, SchemeMetrics):
            f = metric_or_reason.subpacketization
            row[column] = str(f)
            row[column + "_sci"] = sci(f)
            row[complexity_col] = str(metric_or_reason.complexity)
            row[complexity_col + "_sci"] = sci(metric_or_reason.complexity)
            mismatch = _reference_mismatch(key, column, f)
            if mismatch:
                flags.append(mismatch)
        else:
            row[column] = f"n/a({metric_or_reason})"
            row[complexity_col] = f"n/a({metric_or_reason})"

    try:
        fill("F_asmst", asmst_metrics(p), "lambda_asmst")
    except DomainError as exc:
        fill("F_asmst", str(exc), "lambda_asmst")

    try:
        m, s1 = _scheme1(p, p.m)
    except ConstraintViolation as exc:
        m, s1 = p.m, str(exc)
    row["m"] = str(m) if m is not None else "-"
    fill("F_s1", s1, "lambda_s1")

    try:
        fill("F_s2", scheme_metrics(p, 2), "lambda_s2")
    except ConstraintViolation as exc:
        fill("F_s2", str(exc), "lambda_s2")

    try:
        fill("F_s3", scheme_metrics(p, 3), "lambda_s3")
    except ConstraintViolation:
        # Published tables list K here regardless; reproduce it but flagged.
        row["F_s3"] = str(p.users)
        row["F_s3_sci"] = sci(p.users)
        row["lambda_s3"] = "n/a(constraint-unmet)"
        flags.append(f"F_s3:constraint-unmet(L={p.antennas}!=K-t={p.users - p.t})")
        mismatch = _reference_mismatch(key, "F_s3", p.users)
        if mismatch:
            flags.append(mismatch)

    if p.t < p.antennas:
        flags.append(f"engine-gate:t={p.t}<L={p.antennas}(silence {p.antennas - p.t} antennas)")
    row["flags"] = ";".join(flags)
    return row


def format_table(rows) -> str:
    """CSV text of ``table_row`` rows, in the order given."""
    lines = [",".join(TABLE_COLUMNS)]
    lines.extend(",".join(row[c] for c in TABLE_COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def table_report(points) -> str:
    """CSV comparison over points, one row per point, deterministic order."""
    return format_table(table_row(p) for p in points)
