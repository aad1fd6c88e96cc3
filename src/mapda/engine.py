"""End-to-end delivery over a validated array: placement, per-slot uplink
precoding, identity downlink forwarding, and cache-aided decoding.

Each slot s serves the users whose columns contain s.  Served users upload
linear combinations of the slot's packets, restricted by the cache pattern:
user k_i may weight packet j only if it caches that packet's row.  The base
station forwards its received antenna signals unchanged; user k_l then sees
every packet j through a coefficient B(l, j) of the combined two-hop matrix
B = H* H V.  The precoder V is chosen column by column so that B has
a unit diagonal and zeros exactly where a user neither caches nor requests
a packet; everything else a user hears is in its cache and is subtracted.

The solver requires the array's caching redundancy t = K*Z/F to be at least
the antenna count L (equivalently K*Z >= L*F).  Below that density the
per-column systems of the supported regime are overdetermined and the
transmission is reported infeasible rather than attempted.

A channel forms H* and its Gram matrix H* H once.  A slot reads its users'
rows of H* to decode, and its block of the Gram matrix, from whose rows
(integer rows on the exact backend) ``linalg.solve`` solves each
column system and forms its columns of B.  Column n's system depends only
on the served users and n's cacher set, so slots serving the same users
form a family: a delivery run solves each of its systems once, with one
right-hand side per position using it in any slot, and each slot
assembles V and B from those columns (on the circulant arrays of scheme 3,
K systems instead of K(K-t)).  A slot alone in its family is solved
alone; every V and B is the one ``synthesize_precoder`` gives.

Scalar work runs on either backend of ``linalg``; exact-rational runs make
decode checks bit-exact.  Slots share no state but their family's solves,
formed by whichever slot needs them first, so per-slot work can run in
any order (a delivery run here simply iterates them).
"""

from __future__ import annotations

import math
import random
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .arrays import STAR, DomainError, Mapda, ParseError, read_table
from .linalg import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    Infeasible,
    Matrix,
    _check_same_backend,
    _zero,
    conj_transpose,
    count_ops,
    isolate,
    matmul,
    solve,
)

# Relative tolerance for float-backend decode checks; the exact backend
# demands equality.  A recovered value must lie within DECODE_RTOL times
# max(1, |expected|) of the library value, or DecodeMismatch is raised.  The
# check guards against solver and model bugs: a wrong support, a missed
# forced zero or a wrong subtraction leaves an error of the order of the
# packet values themselves.  An honest float decode errs by rounding
# amplified by the conditioning of the slot's systems: residual_max is at
# most 2.8e-13 on the deliver-float benchmark (seeds 1-3).  1e-6 leaves six
# orders of magnitude for worse-conditioned random channels before a correct
# run would fail, and is still far below any structural error.
DECODE_RTOL = 1e-6


class DegenerateChannel(Exception):
    """A channel submatrix that must be generic is singular.

    ``slot`` and ``column`` name the transmission and the precoder column
    whose system failed, when known.
    """

    def __init__(self, message, slot=None, column=None):
        super().__init__(message)
        self.slot = slot
        self.column = column


class DecodeMismatch(Exception):
    """A recovered value disagrees with the library: a solver or model bug."""

    def __init__(self, message, slot=None):
        super().__init__(message)
        self.slot = slot


class PacketId(NamedTuple):
    file: int
    part: int


@dataclass(frozen=True)
class SlotGroup:
    """The users and packet rows sharing one slot id.

    ``served_users`` and ``served_rows`` are parallel, 1-based, in
    column-major order of the grid.  ``cacher_sets[n]`` holds the 0-based
    positions of users caching packet n's row: the only rows of column n of
    V allowed to be nonzero.  It is the slot's one cache relation: B(l, n)
    must vanish exactly when l != n and l is not in ``cacher_sets[n]``.
    ``redundancy`` and ``antennas`` carry the parent array's t and L for the
    solver gate.
    """

    slot: int
    served_users: tuple
    served_rows: tuple
    cacher_sets: tuple
    redundancy: Fraction
    antennas: int


@dataclass(frozen=True)
class SchemeInstance:
    """An array bound to a library size, and its slot groups; a user caches
    every file's packets at the rows where its column holds a star.

    ``families`` maps the served users of each family of two or more slots
    to its column systems: {cacher set: the positions whose column uses it
    in some slot of the family}.
    """

    mapda: Mapda
    files: int
    groups: tuple
    families: dict = field(compare=False)


@dataclass(frozen=True)
class ChannelMatrix:
    """An L x K matrix of channel gains."""

    matrix: Matrix

    @cached_property
    def adjoint(self) -> Matrix:
        """H*, formed on first use: a slot's users read their rows of it."""
        return conj_transpose(self.matrix)

    @cached_property
    def gram(self) -> Matrix:
        """The K x K Gram matrix G = H* H, formed on first use.

        Every slot's block is a submatrix of it, so a delivery run forms it
        once, and its operations count where it is first needed.  Entry
        (i, j) sums over antennas in order, as a per-slot product would.
        """
        return matmul(self.adjoint, self.matrix)


@dataclass(frozen=True)
class PrecodingMatrix:
    """Per-slot uplink precoder; row i weights user k_i's transmission.

    ``combined`` holds the two-hop receive matrix B = H* H V so receivers
    need not recompute it.
    """

    matrix: Matrix
    combined: Matrix


@dataclass(frozen=True)
class SlotOutcome:
    recovered: tuple  # (user, PacketId, value) per served position
    residual_max: float
    ops: dict


@dataclass(frozen=True)
class SlotReport:
    s: int
    served: tuple
    feasible: bool
    residual_max: float


@dataclass(frozen=True)
class DeliveryReport:
    ndt_ul: Fraction
    ndt_dl: Fraction
    slots: tuple
    ops_measured: dict
    ops_model: Fraction
    recovered: dict

    def to_json_dict(self):
        model = self.ops_model
        return {
            "ndt_ul": str(self.ndt_ul),
            "ndt_dl": str(self.ndt_dl),
            "slots": [
                {
                    "s": r.s,
                    "served": list(r.served),
                    "feasible": r.feasible,
                    "residual_max": r.residual_max,
                }
                for r in self.slots
            ],
            "ops_measured": self.ops_measured,
            "ops_model": int(model) if model.denominator == 1 else str(model),
        }


def build_instance(m: Mapda, files: int) -> SchemeInstance:
    """Derive the slot groups and families of a validated array for a
    library of ``files`` files."""
    if files < 1:
        raise DomainError(f"library size must be >= 1, got {files}")
    t = m.profile.t
    # A packet row's cachers are the users holding a star in it.  Mapping
    # them to a slot's positions costs each position its row's star count
    # rather than the slot's size.
    stars = [[k for k, e in enumerate(row, 1) if e is STAR] for row in m.grid]
    groups = []
    by_users = {}
    for s in range(1, m.slots + 1):
        cells = m.slot_cells(s)
        served_rows = tuple(f for f, _ in cells)
        served_users = tuple(k for _, k in cells)
        position = {k: i for i, k in enumerate(served_users)}
        cacher_sets = tuple(
            tuple(position[k] for k in stars[f - 1] if k in position) for f in served_rows
        )
        group = SlotGroup(
            slot=s,
            served_users=served_users,
            served_rows=served_rows,
            cacher_sets=cacher_sets,
            redundancy=t,
            antennas=m.antennas,
        )
        groups.append(group)
        by_users.setdefault(served_users, []).append(group)
    families = {}
    for served_users, family in by_users.items():
        if len(family) > 1:
            systems = families[served_users] = {}
            for group in family:
                for n, cachers in enumerate(group.cacher_sets):
                    systems.setdefault(cachers, set()).add(n)
    return SchemeInstance(
        mapda=m,
        files=files,
        groups=tuple(groups),
        families=families,
    )


def default_demands(users, files):
    """The reproducible default demand vector d_k = ((k-1) mod N) + 1."""
    return tuple((k - 1) % files + 1 for k in range(1, users + 1))


def _check_demands(demands, files):
    for d in demands:
        if not 1 <= d <= files:
            raise DomainError(f"demand {d} outside library [1..{files}]")


def make_channel(antennas, users, seed=0) -> ChannelMatrix:
    """Draw an L x K float channel with i.i.d. standard-normal real and
    imaginary parts from a deterministic PRNG (same seed, same matrix)."""
    rng = random.Random(seed)
    rows = [
        [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(users)]
        for _ in range(antennas)
    ]
    return ChannelMatrix(Matrix.from_rows(rows, FLOAT))


def _parse_scalar(token, line_no):
    """One finite fixture entry: rational 'p/q', integer, decimal, or 'a+bi'."""
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {line_no}: bad rational {token!r}") from None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = complex(token.replace("i", "j")) if "i" in token or "j" in token else float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: bad scalar {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"line {line_no}: non-finite entry {token!r}")
    return value


def parse_channel_fixture(text) -> ChannelMatrix:
    """Channel fixture: header 'L K' then L lines of K scalar entries."""
    _, _, rows = read_table(text, "L K", ("L", "K"), _parse_scalar)
    return ChannelMatrix(Matrix.from_rows(rows))


def read_channel_fixture(path) -> ChannelMatrix:
    return parse_channel_fixture(Path(path).read_text(encoding="utf-8"))


def parse_library_fixture(text) -> Matrix:
    """Library fixture: header 'N F' then N lines of F packet values."""
    _, _, rows = read_table(text, "N F", ("N", "F"), _parse_scalar)
    return Matrix.from_rows(rows)


def read_library_fixture(path) -> Matrix:
    return parse_library_fixture(Path(path).read_text(encoding="utf-8"))


def random_library(files, parts, seed=0, backend=EXACT) -> Matrix:
    """Deterministic random packet values, one scalar per (file, part)."""
    rng = random.Random(seed)
    if backend == EXACT:
        rows = [
            [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(parts)]
            for _ in range(files)
        ]
    else:
        rows = [
            [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(parts)]
            for _ in range(files)
        ]
    return Matrix.from_rows(rows, backend)


def _served_columns(channel: ChannelMatrix, group: SlotGroup) -> list:
    """0-based channel columns of the slot's served users, after checking
    the channel's shape against the array."""
    h = channel.matrix
    if h.n_rows != group.antennas:
        raise DimensionMismatch(
            f"channel has {h.n_rows} rows but the array declares {group.antennas} antennas"
        )
    if h.n_cols < max(group.served_users):
        raise DimensionMismatch(
            f"channel has {h.n_cols} columns but slot {group.slot} serves user "
            f"{max(group.served_users)}"
        )
    return [k - 1 for k in group.served_users]


def synthesize_precoder(group: SlotGroup, channel: ChannelMatrix) -> PrecodingMatrix:
    """Choose the slot's uplink precoder V so B = H* H V decodes one-shot.

    Column n is solved from the reduced system over the cacher positions:
    B(n, n) = 1 plus B(l, n) = 0 for every served user l that does not cache
    packet n's row, read from the slot's block of the channel's Gram
    matrix.  Columns sharing equation rows and unknowns (one cache group of
    a replicated array) are one system with a unit right-hand side each,
    which gives each the solution it would get alone.  Free variables are
    zero, so x is nonzero on at most L pivot rows (the block has rank at
    most L), and B sums over those alone rather than the t of the cacher
    set: exact zeros add nothing.  A failure names the slot's lowest
    failing column.
    Requires the array redundancy gate t >= L; below it the supported
    regime offers no solution and Infeasible is raised.  A rank failure on
    a system a generic channel would solve raises DegenerateChannel instead.
    This solves the slot alone; ``run_delivery`` shares each system's solve
    among the slots serving the same users, with the same V and B.
    """
    return _synthesize(group, channel, _solve_columns)


def _synthesize(group, channel, solve_columns):
    """``synthesize_precoder`` with the columns of each system from
    ``solve_columns``, which must return what ``_solve_columns`` does."""
    if group.redundancy < group.antennas:
        raise Infeasible(
            f"slot {group.slot}: cache redundancy t={group.redundancy} is below the "
            f"antenna count L={group.antennas} (K*Z < L*F); the per-column systems "
            f"have t unknowns but up to L equations",
            slot=group.slot,
        )
    users = _served_columns(channel, group)
    block = channel.gram.take(users, users)
    size = len(users)
    backend = block.backend
    all_rows = range(size)
    # Column n's equations are the positions outside its cacher set (n is
    # never its own cacher), so columns with equal cacher sets share one
    # system and differ only in which equation reads 1.
    systems = {}
    for n in all_rows:
        systems.setdefault(group.cacher_sets[n], []).append(n)
    zero = _zero(backend)
    v_rows = [[zero] * size for _ in all_rows]
    b_cols = [None] * size
    failures = {}
    for unknowns, members in systems.items():
        if not unknowns:
            failures[members[0]] = Infeasible(
                f"slot {group.slot}: no served user caches packet position {members[0] + 1}",
                slot=group.slot,
                column=members[0] + 1,
            )
            continue
        try:
            positions, support, x_rows, b_columns = solve_columns(block, unknowns, members)
        except Infeasible as exc:
            n = members[exc.column - 1]
            equations = size - len(unknowns)
            if equations <= min(group.antennas, len(unknowns)):
                error = DegenerateChannel(
                    f"slot {group.slot}: column {n + 1} system is rank-deficient although "
                    f"a generic channel would solve it",
                    slot=group.slot,
                    column=n + 1,
                )
            else:
                error = Infeasible(
                    f"slot {group.slot}: column {n + 1} has {len(unknowns)} unknowns but "
                    f"{equations} equations and no solution",
                    slot=group.slot,
                    column=n + 1,
                )
            error.__cause__ = exc
            failures[n] = error
            continue
        for n in members:
            j = positions.index(n)
            for i, row in zip(support, x_rows):
                v_rows[i][n] = row[j]
            b_cols[n] = b_columns[j]
    if failures:
        raise failures[min(failures)]
    v = Matrix(size, size, [e for row in v_rows for e in row], backend)
    b = Matrix(size, size, [e for row in zip(*b_cols) for e in row], backend)
    return PrecodingMatrix(matrix=v, combined=b)


def _solve_columns(block, unknowns, positions):
    """``solve`` for the columns at ``positions`` whose cacher set is
    ``unknowns``, a unit right-hand side each; returns (positions, the
    support rows, the solution's rows on them, B's columns)."""
    first = positions[0]
    # Position n is outside its own cacher set, so the equation rows are the
    # positions outside ``unknowns``, the first position's row first.
    rest = [l for l in range(block.n_rows) if l != first and l not in unknowns]
    return (positions, *solve(block, positions, [first, *rest], unknowns))


def _family_synthesis(families):
    """``synthesize_precoder`` for one run, solving each system of a family
    once, for all its positions, at the first slot that needs it.  If that
    solve fails, each slot solves its own columns of the system, and so
    reports the failure it would report alone."""
    solved = {}

    def synthesize(group, channel):
        family = families.get(group.served_users)
        if family is None:
            return synthesize_precoder(group, channel)

        def solve_columns(block, unknowns, members):
            key = (group.served_users, unknowns)
            if key not in solved:
                solved[key] = None
                with suppress(Infeasible):
                    solved[key] = _solve_columns(block, unknowns, sorted(family[unknowns]))
            return solved[key] or _solve_columns(block, unknowns, members)

        return _synthesize(group, channel, solve_columns)

    return synthesize


def run_slot(group, channel, demands, library) -> SlotOutcome:
    """Execute one transmission: synthesize the precoder, uplink combine,
    forward, decode.

    Packet values come from ``library`` (an N x F matrix of scalars on the
    channel's backend; BackendMismatch otherwise).  Each served user
    subtracts its cached contributions using the precoder's two-hop matrix
    B and recovers its packet from the unit diagonal.  Only the served
    users' demands are checked; ``run_delivery`` checks the whole vector.
    Raises DecodeMismatch if a recovered value strays from the library.
    """
    demands = tuple(demands)
    if len(demands) < max(group.served_users):
        raise DomainError(
            f"demand vector covers {len(demands)} users but slot {group.slot} "
            f"serves user {max(group.served_users)}"
        )
    _check_demands([demands[k - 1] for k in group.served_users], library.n_rows)
    return _run_slot(group, channel, demands, library, synthesize_precoder)


def _run_slot(group, channel, demands, library, synthesize) -> SlotOutcome:
    """``run_slot`` on checked demands, with the precoder from
    ``synthesize(group, channel)``."""
    _check_same_backend(channel.matrix, library)
    ops = {}
    with count_ops() as tally:
        precoder = synthesize(group, channel)
    ops["precoder_synthesis"] = {"mul": tally.mul, "add": tally.add}
    backend, antennas = library.backend, range(channel.matrix.n_rows)
    users = [k - 1 for k in group.served_users]
    packets = zip(group.served_users, group.served_rows)
    w = Matrix(len(users), 1, [library.at(demands[k - 1] - 1, f - 1) for k, f in packets], backend)
    with count_ops() as tally:
        x = matmul(precoder.matrix, w)
    ops["uplink_encode"] = {"mul": tally.mul, "add": tally.add}
    with count_ops() as tally:
        y_bs = matmul(channel.matrix.take(antennas, users), x)
    ops["bs_forward"] = {"mul": tally.mul, "add": tally.add}
    # User l caches the packets at the positions j whose cacher set holds
    # l; the rest of its row of B, but for its own entry, must vanish.
    cached = [[] for _ in users]
    for j, cachers in enumerate(group.cacher_sets):
        for l in cachers:
            cached[l].append(j)
    with count_ops() as tally:
        y_users = matmul(channel.adjoint.take(users, antennas), y_bs)
        b = precoder.combined
        # User l subtracts what it caches and divides by its unit entry.
        values = isolate(b, w.data, y_users.data, cached)
        recovered = []
        residual = 0.0
        for l, (expected, value) in enumerate(zip(w.data, values)):
            if backend == EXACT:
                if value != expected:
                    raise DecodeMismatch(
                        f"slot {group.slot}: user {group.served_users[l]} recovered "
                        f"{value} != {expected}",
                        slot=group.slot,
                    )
            else:
                err = abs(value - expected)
                if not err <= DECODE_RTOL * max(1.0, abs(expected)):
                    raise DecodeMismatch(
                        f"slot {group.slot}: user {group.served_users[l]} decode error {err}",
                        slot=group.slot,
                    )
                b_row = b.row(l)
                exempt = set(cached[l])
                exempt.add(l)
                residual = max(
                    residual,
                    err,
                    abs(b_row[l] - 1),
                    *[abs(e) for j, e in enumerate(b_row) if j not in exempt],
                )
            user = group.served_users[l]
            packet = PacketId(demands[user - 1], group.served_rows[l])
            recovered.append((user, packet, value))
    ops["user_decode"] = {"mul": tally.mul, "add": tally.add}
    return SlotOutcome(recovered=tuple(recovered), residual_max=residual, ops=ops)


def _ops_model(instance: SchemeInstance) -> Fraction:
    """Closed-form per-slot cost r^3 + r^2 + t*r summed over slots.

    For regular arrays (every slot of size t+L) this is the analytical
    complexity ((t+L)^3 + (t+L)^2 + t(t+L)) * S.  ``ops_measured`` is what
    the run actually multiplied and added, phase by phase: the column
    systems (one per distinct system of a slot, or of a family of slots
    serving the same users), B summed over each column's at most L
    nonzeros (on the exact backend over its cacher rows alone), the Gram
    matrix once per channel, encoding, forwarding and decoding.  Its total
    multiplications over this model read 0.51 on the deliver-float
    benchmark, where back-substitution skips each column system's free
    variables, and 1.03 on deliver-exact, where fraction-free elimination
    spends up to three multiplications per updated entry but the 8 slots
    of cyclic(16, 8) share 16 systems instead of solving 128.
    """
    sizes = [len(group.served_users) for group in instance.groups]
    return sum(r**3 + r**2 for r in sizes) + instance.mapda.profile.t * sum(sizes)


def run_delivery(instance, channel, demands, library) -> DeliveryReport:
    """Run all S slots and verify every user recovers its missing packets.

    A run checks two things.  ``run_slot`` checks each recovered value
    against the library.  This function checks that the recovered
    (user, row) cells are the integer cells of the grid, each delivered
    once; since a user's packets are its demanded file at those rows, that
    fixes every user's packet set.  Slots of one family share their column
    solves (see the module docstring); every slot's V and B are those
    ``synthesize_precoder`` gives it.  Refuses channels without exactly one
    column per user.  Propagates Infeasible (an array with t < L is refused
    at its first slot), DegenerateChannel, and DecodeMismatch with the
    offending slot id (None for a cell mismatch).
    """
    m = instance.mapda
    demands = tuple(demands)
    if len(demands) != m.cols:
        raise DomainError(f"demand vector has length {len(demands)}, expected {m.cols}")
    _check_demands(demands, instance.files)
    if channel.matrix.n_cols != m.cols:
        # The Gram matrix spans every channel column, so surplus columns
        # would cost quadratic work and memory for nothing.
        raise DimensionMismatch(
            f"channel has {channel.matrix.n_cols} columns, expected one per user ({m.cols})"
        )
    if library.n_rows != instance.files or library.n_cols != m.rows:
        raise DimensionMismatch(
            f"library is {library.n_rows}x{library.n_cols}, expected "
            f"{instance.files}x{m.rows}"
        )
    slot_reports = []
    ops_total: dict[str, dict[str, int]] = {}
    recovered: dict[int, set] = {k: set() for k in range(1, m.cols + 1)}
    recovered_cells = []
    synthesize = _family_synthesis(instance.families)
    for group in instance.groups:
        outcome = _run_slot(group, channel, demands, library, synthesize)
        for phase, tally in outcome.ops.items():
            agg = ops_total.setdefault(phase, {"mul": 0, "add": 0})
            agg["mul"] += tally["mul"]
            agg["add"] += tally["add"]
        for user, packet, _value in outcome.recovered:
            recovered[user].add(packet)
            recovered_cells.append((user, packet.part))
        slot_reports.append(
            SlotReport(
                s=group.slot,
                served=group.served_users,
                feasible=True,
                residual_max=outcome.residual_max,
            )
        )
    # Conservation: the recovered (user, row) cells are exactly the integer
    # cells of the grid, each delivered once.
    expected_cells = sorted(
        (k + 1, f + 1)
        for k in range(m.cols)
        for f in range(m.rows)
        if m.grid[f][k] is not STAR
    )
    if sorted(recovered_cells) != expected_cells:
        raise DecodeMismatch(
            "recovered cells do not match the integer cells of the array"
        )
    ndt = Fraction(m.slots, m.rows)
    return DeliveryReport(
        ndt_ul=ndt,
        ndt_dl=ndt,
        slots=tuple(slot_reports),
        ops_measured=ops_total,
        ops_model=_ops_model(instance),
        recovered={k: frozenset(v) for k, v in recovered.items()},
    )
