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

A channel forms H* and its Gram matrix H* H once.  A slot reads its block
of the Gram matrix, and in place its users' columns of H to forward and
their rows of H* to decode.  Column n's system has n's cacher set for
unknowns and the positions outside it, ascending, for equation rows, and one
unit right-hand side per equation row, so it is fully determined by the
served users and that set.  ``synthesize_precoder``, the one synthesizer,
hands each distinct system of a slot to ``linalg.solve`` once and places
its columns of V and B straight from the result, column n from the
right-hand side at n's equation row.  On the exact backend every matrix
from the Gram to the decode is integer rows over one denominator.  Inside
``run_delivery``, slots serving the same users share one store of solves
for the run, each system solved once (on the circulant arrays of scheme 3,
K systems instead of K(K-t)); a slot whose served users no other slot
serves keeps none.  Where users share cache groups, the run also keeps one
store of cores across all its slots: a system's unknowns come by cache
group, so on a generic channel its pivots are its leading group, and its
x is solved once per equation users and pivot users (on the replicated
array of the deliver-float benchmark, 70 eliminations instead of 840).
Every V and B equals in value the one the slot gets alone, apart from the
sign of a zero; a core's x is bit for bit the slot's own.

Scalar work runs on either backend of ``linalg``; exact-rational runs make
decode checks bit-exact.  Slots share no state but the run's stores of
solves, formed by whichever slot needs them first, so per-slot work can
run in any order (a delivery run here simply iterates them).
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .arrays import STAR, DomainError, Mapda, ParseError, read_table
from .arrays import _check_cells, _Frozen, _number, _plain, _quote, _read_int
from .linalg import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    Infeasible,
    Matrix,
    _check_same_backend,
    conj_transpose,
    count_ops,
    entries,
    isolate,
    matmul,
    matvec,
    solve,
)

# Relative tolerance for float-backend decode checks; the exact backend
# demands equality.  A recovered value must lie within DECODE_RTOL times
# max(1, |expected|) of the library value, or DecodeMismatch is raised
# (DomainError where the error is float precision loss; see ``run_slot``).
# The check guards against solver and model bugs: a wrong support, a missed
# forced zero or a wrong subtraction leaves an error of the order of the
# packet values themselves.  An honest float decode errs by rounding
# amplified by the conditioning of the slot's systems: residual_max is at
# most 2.2e-13 on the deliver-float benchmark (seeds 1-3).  1e-6 leaves six
# orders of magnitude for worse-conditioned random channels before a correct
# run would fail, and is still far below any structural error.
DECODE_RTOL = 1e-6
# The phases of a slot, in order, each with its own ``ops_measured`` count.
PHASES = ("precoder_synthesis", "uplink_encode", "bs_forward", "user_decode")


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


class SlotGroup(NamedTuple):
    """The users and packet rows sharing one slot id.

    ``served_users`` and ``served_rows`` are parallel, 1-based, in
    column-major order of the grid.  ``cacher_sets[n]`` holds the 0-based
    positions of users caching packet n's row: the only rows of column n of
    V allowed to be nonzero.  It is the slot's one cache relation: B(l, n)
    must vanish exactly when l != n and l is not in ``cacher_sets[n]``.
    Its positions come by cache group, the users whose columns hold stars
    in the same rows: groups in order of their smallest user, users
    ascending within one.  Where no two users share a group that is
    ascending order.  A column system's unknowns come in this order, so on
    a generic channel the pivots of a replicated array's systems are one
    copy group, the same for every slot that serves it.
    ``redundancy`` and ``antennas`` carry the parent array's t and L for the
    solver gate; ``redundancy`` stays, though every slot holds the same t,
    because ``synthesize_precoder`` refuses each slot of a t < L array on
    its own, naming t, and a slot's users and rows do not determine it.
    """

    slot: int
    served_users: tuple
    served_rows: tuple
    cacher_sets: tuple
    redundancy: Fraction
    antennas: int


class SchemeInstance(NamedTuple):
    """An array bound to a library size, and its slot groups; a user caches
    every file's packets at the rows where its column holds a star.
    ``grouped`` is true when two users cache the same rows: then cacher
    sets list users by cache group, and a delivery run keeps a store of
    solved column-system cores (see ``run_delivery``)."""

    mapda: Mapda
    files: int
    groups: tuple
    grouped: bool = False


class ChannelMatrix(_Frozen):
    """An L x K matrix of channel gains."""

    matrix: Matrix

    def __init__(self, matrix):
        vars(self)["matrix"] = matrix

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
        A K x K past the cell limit is refused before it is formed, however
        few users each slot serves.  On floats, so is a Gram matrix with an
        entry past the float range, and one with a diagonal entry, a user's
        squared channel norm, that is zero or subnormal although that
        user's channel column is not zero: its pivots would be rounding
        residue.
        """
        users = self.matrix.n_cols
        _check_cells(f"the Gram matrix of {users} users", users, users)
        gram = matmul(self.adjoint, self.matrix)
        if gram.backend == FLOAT:
            rows = gram.to_rows()
            if not all(map(cmath.isfinite, chain(*rows))):
                raise DomainError("the channel's Gram matrix H* H overflows the float range")
            for k, (row, column) in enumerate(zip(rows, self.adjoint.to_rows())):
                if abs(row[k]) < sys.float_info.min and any(column):
                    raise DomainError(
                        f"the channel's Gram matrix H* H underflows the float range at user {k + 1}"
                    )
        return gram


class PrecodingMatrix(NamedTuple):
    """Per-slot uplink precoder; row i weights user k_i's transmission.

    ``combined`` holds the two-hop receive matrix B = H* H V so receivers
    need not recompute it.  ``residual`` is the largest |B(l, l) - 1| and
    |B(l, j)| over B's forced zeros: rounding on floats, and 0.0 on the
    exact backend, where both hold by construction.
    """

    matrix: Matrix
    combined: Matrix
    residual: float = 0.0


class SlotOutcome(NamedTuple):
    recovered: tuple  # (user, PacketId, value) per served position
    residual_max: float
    ops: dict


class SlotReport(NamedTuple):
    s: int
    served: tuple
    residual_max: float


class DeliveryReport(NamedTuple):
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
                    "feasible": True,  # a failed slot raises, so never False
                    "residual_max": r.residual_max,
                }
                for r in self.slots
            ],
            "ops_measured": self.ops_measured,
            "ops_model": int(model) if model.denominator == 1 else str(model),
        }


def build_instance(m: Mapda, files: int) -> SchemeInstance:
    """Derive the slot groups of a validated array for a library of
    ``files`` files."""
    if files < 1:
        raise DomainError(f"library size must be >= 1, got {_number(files)}")
    t = m.profile.t
    # Each user's cache group is named by its smallest user: the first
    # column with the user's star rows.
    leaders = {}
    leader = [
        leaders.setdefault(tuple([e is STAR for e in column]), k)
        for k, column in enumerate(zip(*m.grid))
    ]
    grouped = len(leaders) < m.cols
    groups = []
    for s in range(1, m.slots + 1):
        served_rows, served_users = zip(*m.slot_cells(s))
        # The slot's positions in cacher-set order: by cache group, each
        # group's users ascending (a stable sort of ascending positions).
        order = list(enumerate(served_users))
        if grouped:
            order.sort(key=lambda position: leader[position[1] - 1])
        # A row's cachers are the served users holding a star in it, read
        # at the slot's users once per distinct row: |slot| reads, where
        # validate's C4 spends one popcount of the row's integer-cell mask
        # against the slot's column mask.
        cachers = {}
        for f in dict.fromkeys(served_rows):
            row = m.grid[f - 1]
            cachers[f] = tuple([i for i, k in order if row[k - 1] is STAR])
        cacher_sets = tuple(map(cachers.__getitem__, served_rows))
        groups.append(SlotGroup(s, served_users, served_rows, cacher_sets, t, m.antennas))
    return SchemeInstance(mapda=m, files=files, groups=tuple(groups), grouped=grouped)


def default_demands(users, files):
    """The reproducible default demand vector d_k = ((k-1) mod N) + 1."""
    return tuple((k - 1) % files + 1 for k in range(1, users + 1))


def _check_demands(demands, files):
    for d in demands:
        if not 1 <= d <= files:
            raise DomainError(f"demand {_number(d)} outside library [1..{_number(files)}]")


def make_channel(antennas, users, seed=0) -> ChannelMatrix:
    """Draw an L x K float channel with i.i.d. standard-normal real and
    imaginary parts from a deterministic PRNG (same seed, same matrix);
    an L x K past the cell limit is refused before any is drawn."""
    _check_cells(f"a channel of {_number(antennas)} antennas", antennas, users)
    rng = random.Random(seed)
    rows = [
        [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(users)]
        for _ in range(antennas)
    ]
    return ChannelMatrix(Matrix.from_rows(rows, FLOAT))


def _parse_scalar(token, where):
    """One finite fixture entry: rational 'p/q', integer, decimal, or 'a+bi'.
    The parts of a rational are read by ``_read_int``, and so is a token
    that is neither a ``_plain`` number nor finite, to be refused: an
    integer past Python's digit limit for int() by that name, not as an
    infinite float."""
    if not _plain(token):
        _read_int(token, where, "bad scalar")
    if "/" in token:
        num, den = (_read_int(part, where, "bad rational part") for part in token.split("/", 1))
        if den == 0:
            raise ParseError(f"{where}: bad rational {_quote(token)}")
        return Fraction(num, den)
    try:
        return int(token)
    except ValueError:
        pass
    # int() refused the token, so each _read_int below raises.  Only a last
    # "i" is the imaginary unit, not the "i" of "inf" or "infinity".
    text = token[:-1] + "j" if token.endswith("i") else token
    try:
        value = complex(text) if "j" in text else float(text)
    except ValueError:
        _read_int(token, where, "bad scalar")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        _read_int(token, where, "non-finite entry")
    return value


def _parse_scalars(tokens, where):
    return tuple([_parse_scalar(token, where) for token in tokens])


def parse_channel_fixture(text) -> ChannelMatrix:
    """Channel fixture: header 'L K' then L lines of K scalar entries."""
    _, _, rows = read_table(text, "L K", ("L", "K"), _parse_scalars)
    return ChannelMatrix(Matrix.from_rows(rows))


def read_channel_fixture(path) -> ChannelMatrix:
    return parse_channel_fixture(Path(path).read_text(encoding="utf-8"))


def parse_library_fixture(text) -> Matrix:
    """Library fixture: header 'N F' then N lines of F packet values."""
    _, _, rows = read_table(text, "N F", ("N", "F"), _parse_scalars)
    return Matrix.from_rows(rows)


def read_library_fixture(path) -> Matrix:
    return parse_library_fixture(Path(path).read_text(encoding="utf-8"))


def random_library(files, parts, seed=0, backend=EXACT) -> Matrix:
    """Deterministic random packet values, one scalar per (file, part)."""
    _check_cells(f"a library of {_number(files)} files", files, parts)
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


def synthesize_precoder(
    group: SlotGroup, channel: ChannelMatrix, family=None, cores=None
) -> PrecodingMatrix:
    """Choose the slot's uplink precoder V so B = H* H V decodes one-shot.

    Column n is solved from the reduced system over the cacher positions:
    B(n, n) = 1 plus B(l, n) = 0 for every served user l that does not cache
    packet n's row, read from the slot's block of the channel's Gram
    matrix.  Its equation rows are those positions l and n, ascending, each
    with a unit right-hand side, so columns with equal cacher sets (one
    cache group of a replicated array) are one system, column n reading the
    right-hand side at its own row; pivots come from the system alone, so
    each column gets the solution it would get alone.
    Free variables are zero, so x is nonzero on at most L pivot rows (the
    block has rank at most L), and B sums over those alone rather than the
    t of the cacher set: exact zeros add nothing.  The smallest column
    without a solution raises, as it would if the columns were solved one
    at a time.
    Requires the array redundancy gate t >= L; below it the supported
    regime offers no solution and Infeasible is raised.  A rank failure on
    a system a generic channel would solve raises DegenerateChannel instead.

    The unknowns come in the cacher set's order, by cache group (see
    ``SlotGroup``).  Each system is solved for all of its equation rows;
    ``solve`` reports each right-hand side's consistency on its own, so a
    slot's columns fail as they fail alone.  On the generators' arrays
    every equation row is some slot's column; on an irregular array a slot
    may solve right-hand sides that no column reads, which costs operations
    but moves no pivot, V, B or error.  ``family`` is the run's store of solves {cacher set:
    solve} for the slot's served users, shared by every slot serving them;
    without it the slot keeps nothing.  V and B are equal in value either
    way; a solve shared with another slot may be nonzero on more unknowns,
    whose zeros can flip a zero's sign.  ``cores`` is the run's store of
    column-system cores across all its slots, keyed by users (see
    ``linalg.solve``): a system whose pivots are its leading unknowns is
    kept under its equation users and those unknowns' users, and a later
    system with that key takes the kept x where the kept pivots clear its
    own threshold, x being then bit for bit the one it solves alone.  Each
    slot forms its own B from x.  Without ``cores`` the slot keeps nothing.

    Each solve is placed as it comes, with no second pass over the solves;
    V and B are rescaled to one denominator only where a system's differs.
    The float residual, the largest |B(n, n) - 1| and |B(l, n)| over the
    forced zeros, is read off the placed B columns at their equation rows.
    """
    if group.redundancy < group.antennas:
        raise Infeasible(
            f"slot {group.slot}: cache redundancy t={group.redundancy} is below the "
            f"antenna count L={group.antennas} (K*Z < L*F); the per-column systems "
            f"have t unknowns but up to L equations",
            slot=group.slot,
        )
    users = _served_columns(channel, group)
    block = channel.gram.take(users, users)
    size, backend = len(users), block.backend
    columns = {}
    for n, cachers in enumerate(group.cacher_sets):
        columns.setdefault(cachers, []).append(n)
    solved = {} if family is None else family
    zero = complex(0) if backend == FLOAT else 0
    v_rows = [[zero] * size for _ in range(size)]
    b_cols, failures, placed, positions = [None] * size, [], [], set(range(size))
    x_common = b_common = 1
    for unknowns, members in columns.items():
        if not unknowns:
            failures.append((members[0], unknowns))
            continue
        # Equation rows: the positions outside the cacher set, ascending;
        # member n is one of them (it never caches its own packet), and its
        # unit right-hand side is the one at n's index among them.
        equations = sorted(positions.difference(unknowns))
        solution = solved.get(unknowns)
        if solution is None:
            key = None
            if cores is not None:
                names = group.served_users
                key = (
                    tuple([names[l] for l in equations]),
                    tuple([names[i] for i in unknowns[: len(equations)]]),
                )
            solution = solved[unknowns] = solve(block, equations, unknowns, cores, key)
        flagged, support, x_rows, bs, x_den, b_den = solution
        for n in members:
            j = equations.index(n)
            if j in flagged:
                failures.append((n, unknowns))
                continue
            for i, row in zip(support, x_rows):
                v_rows[i][n] = row[j]
            b_cols[n] = bs[j]
        placed.append((members, equations, support, x_den, b_den))
        # V and B are each brought over one denominator, the lcm of their
        # systems' (1 on floats, whose entries are never rescaled).
        x_common, b_common = math.lcm(x_common, x_den), math.lcm(b_common, b_den)
    if failures:
        n, unknowns = min(failures)
        where, equations = {"slot": group.slot, "column": n + 1}, size - len(unknowns)
        if not unknowns:
            message = f"slot {group.slot}: no served user caches packet position {n + 1}"
            raise Infeasible(message, **where)
        if equations <= min(group.antennas, len(unknowns)):
            raise DegenerateChannel(
                f"slot {group.slot}: column {n + 1} system is rank-deficient although "
                f"a generic channel would solve it",
                **where,
            )
        raise Infeasible(
            f"slot {group.slot}: column {n + 1} has {len(unknowns)} unknowns but "
            f"{equations} equations and no solution",
            **where,
        )
    for members, _, support, x_den, b_den in placed:
        if (x_den, b_den) != (x_common, b_common):
            for n in members:
                for i in support:
                    v_rows[i][n] *= x_common // x_den
                b_cols[n] = [v * (b_common // b_den) for v in b_cols[n]]
    # Each column's unit entry and forced zeros are its system's equation
    # rows: measured on floats, exact by construction on the exact backend.
    residual = 0.0
    if backend == FLOAT:
        residual = max(
            residual,
            *[
                abs(b_cols[n][l] - 1) if l == n else abs(b_cols[n][l])
                for members, equations, *_ in placed
                for n in members
                for l in equations
            ],
        )
    return PrecodingMatrix(
        matrix=Matrix(v_rows, x_common, backend),
        combined=Matrix(list(zip(*b_cols)), b_common, backend),
        residual=residual,
    )


def run_slot(group, channel, demands, library, family=None, cores=None) -> SlotOutcome:
    """Execute one transmission: synthesize the precoder, uplink combine,
    forward, decode.

    Packet values come from ``library`` (an N x F matrix of scalars on the
    channel's backend; BackendMismatch otherwise).  Each served user
    subtracts its cached contributions using the precoder's two-hop matrix
    B and recovers its packet from the unit diagonal; the packets travel
    as plain vectors through ``matvec``.  Only the served users' demands
    are checked; ``run_delivery`` checks the whole vector.
    ``family`` and ``cores`` are the run's stores of solves, as in
    ``synthesize_precoder``.  Raises DecodeMismatch if a recovered value
    strays from the library, and DomainError if float signals overflow or
    the error is within rounding of a term the user cancels.
    """
    demands = tuple(demands)
    if len(demands) < max(group.served_users):
        raise DomainError(
            f"demand vector covers {len(demands)} users but slot {group.slot} "
            f"serves user {max(group.served_users)}"
        )
    wanted = [demands[k - 1] for k in group.served_users]
    _check_demands(wanted, library.n_rows)
    _check_same_backend(channel.matrix, library)
    with count_ops() as synthesis:
        precoder = synthesize_precoder(group, channel, family, cores)
    backend, users = library.backend, [k - 1 for k in group.served_users]
    w = entries(library, [(d - 1, f - 1) for d, f in zip(wanted, group.served_rows)])
    packets, den = w
    with count_ops() as encode:
        x = matvec(precoder.matrix, w)
    with count_ops() as forward:
        y_bs = matvec(channel.matrix, x, cols=users)
    with count_ops() as decode:
        y_users = matvec(channel.adjoint, y_bs, rows=users)
        # User l subtracts the packets it caches, divides by its unit entry.
        values = isolate(precoder.combined, w, y_users, group.cacher_sets)
        residual = precoder.residual
        for l, (user, expected, value) in enumerate(zip(group.served_users, packets, values)):
            if backend == EXACT:
                wrong = value * den != expected and f"recovered {value} != {Fraction(expected, den)}"
            else:
                err = abs(value - expected)
                wrong = not err <= DECODE_RTOL * max(1.0, abs(expected)) and f"decode error {err}"
                residual = max(residual, err)
            if wrong and backend == FLOAT and not cmath.isfinite(value):
                if all(map(cmath.isfinite, packets)):
                    # The Gram matrix and the packets are finite: the signals overflowed.
                    raise DomainError(f"slot {group.slot}: user {user} decodes {value}: float overflow")
            elif wrong and backend == FLOAT:
                # Precision loss, not a solver fault, when the error is at
                # most (2r + L) epsilons of the largest term B(l, j) w_j
                # that user l cancels, r being the slot's users: y_l sums
                # the r encoded signals over L antennas and loses at most r
                # cancelled terms, each rounding worth an epsilon of a term
                # that size.  A user whose channel is 1e-20 of another's
                # cancels a term 1e20 times its own packet, and keeps none
                # of its digits.
                b_row = precoder.combined.to_rows()[l]
                cancelled = [j for j, cachers in enumerate(group.cacher_sets) if l in cachers]
                largest = max([abs(b_row[j] * packets[j]) for j in cancelled], default=0.0)
                roundings = 2 * len(packets) + group.antennas
                if err <= roundings * sys.float_info.epsilon * largest:
                    raise DomainError(
                        f"slot {group.slot}: user {user} loses its packet to float precision: "
                        f"decode error {err} is rounding of a cancelled term of {largest:.3g}"
                    )
            if wrong:
                raise DecodeMismatch(f"slot {group.slot}: user {user} {wrong}", slot=group.slot)
    recovered = zip(group.served_users, map(PacketId, wanted, group.served_rows), values)
    tallies = zip(PHASES, (synthesis, encode, forward, decode))
    ops = {phase: {"mul": tally.mul, "add": tally.add} for phase, tally in tallies}
    return SlotOutcome(recovered=tuple(recovered), residual_max=residual, ops=ops)


def _ops_model(instance: SchemeInstance) -> Fraction:
    """Closed-form per-slot cost r^3 + r^2 + t*r summed over slots.

    For regular arrays (every slot of size t+L) this is the analytical
    complexity ((t+L)^3 + (t+L)^2 + t(t+L)) * S.  ``ops_measured`` is what
    the run actually multiplied and added, phase by phase: the column
    systems (one per distinct system of a slot, or of all the slots
    serving the same users), B summed over each column's at most L
    nonzeros (on the exact backend over its cacher rows alone), the Gram
    matrix once per channel, encoding, forwarding and decoding.  Its total
    multiplications over this model read 0.40 on the deliver-float
    benchmark, where back-substitution skips each column system's free
    variables and the run's 840 systems share 70 eliminated cores, and
    1.03 on deliver-exact, where fraction-free elimination spends up to
    three multiplications per updated entry but the 8 slots of
    cyclic(16, 8) share 16 systems instead of solving 128.
    """
    sizes = [len(group.served_users) for group in instance.groups]
    return sum(r**3 + r**2 for r in sizes) + instance.mapda.profile.t * sum(sizes)


def run_delivery(instance, channel, demands, library) -> DeliveryReport:
    """Run all S slots and verify every user recovers its missing packets.

    A run checks two things.  ``run_slot`` checks each recovered value
    against the library.  This function checks that the recovered
    (user, row) cells are the integer cells of the grid, each delivered
    once; since a user's packets are its demanded file at those rows, that
    fixes every user's packet set.  Slots serving the same users share one
    store of column solves for this run (see ``synthesize_precoder``); a
    slot whose served users no other slot serves gets none.  Where two
    users cache the same rows (``SchemeInstance.grouped``), every slot also
    shares the run's one store of cores, keyed by users; elsewhere there is
    none, and every V, B, residual and op count is what the slots make
    without it.  Both stores live for this call alone.  Every slot's V and
    B equal in value, apart from the sign of a zero, those the slot gets
    alone, and a core's x is bit for bit the slot's own.  Refuses channels
    without exactly one column per user.
    Propagates Infeasible (an array with t < L is refused at its first
    slot), DegenerateChannel, DecodeMismatch with the offending slot id
    (None for a cell mismatch), and DomainError where a float decode loses
    a packet to precision (see ``run_slot``).
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
    # One store of solves per served users that two or more slots share,
    # and, where users share cache groups, one store of cores for the run.
    shared = Counter(group.served_users for group in instance.groups)
    stores = {users: {} for users, slots in shared.items() if slots > 1}
    cores = {} if instance.grouped else None
    for group in instance.groups:
        family = stores.get(group.served_users)
        outcome = run_slot(group, channel, demands, library, family, cores)
        for phase, tally in outcome.ops.items():
            agg = ops_total.setdefault(phase, {"mul": 0, "add": 0})
            agg["mul"] += tally["mul"]
            agg["add"] += tally["add"]
        for user, packet, _value in outcome.recovered:
            recovered[user].add(packet)
            recovered_cells.append((user, packet.part))
        slot_reports.append(SlotReport(group.slot, group.served_users, outcome.residual_max))
    # Conservation: the recovered (user, row) cells are exactly the integer
    # cells of the grid, each delivered once: as many, and no other.
    expected_cells = {
        (k, f) for f, row in enumerate(m.grid, 1) for k, e in enumerate(row, 1) if e is not STAR
    }
    if len(recovered_cells) != len(expected_cells) or set(recovered_cells) != expected_cells:
        raise DecodeMismatch("recovered cells do not match the integer cells of the array")
    ndt = Fraction(m.slots, m.rows)
    return DeliveryReport(
        ndt_ul=ndt,
        ndt_dl=ndt,
        slots=tuple(slot_reports),
        ops_measured=ops_total,
        ops_model=_ops_model(instance),
        recovered={k: frozenset(v) for k, v in recovered.items()},
    )
