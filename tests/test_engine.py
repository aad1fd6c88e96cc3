"""Placement, precoder synthesis, and end-to-end delivery."""

import gc
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapda import arrays, engine, linalg
from mapda.arrays import (
    STAR,
    Mapda,
    ParseError,
    generate_cyclic,
    generate_mn_pda,
    parse_mapda,
    replicate,
)
from mapda.engine import (
    ChannelMatrix,
    DegenerateChannel,
    PacketId,
    build_instance,
    default_demands,
    make_channel,
    parse_channel_fixture,
    parse_library_fixture,
    random_library,
    read_channel_fixture,
    run_delivery,
    run_slot,
    synthesize_precoder,
)
from mapda.linalg import (
    EXACT,
    FLOAT,
    BackendMismatch,
    DimensionMismatch,
    Infeasible,
    Matrix,
    conj_transpose,
    matmul,
)

from oracles import (
    assert_float_rows,
    failing_columns,
    flat_entries,
    float_bits,
    loop_slot_float,
    synthesize_precoder_per_column,
    vandermonde_channel,
)

FIXTURES = Path(__file__).parent / "fixtures"

V1_EXPECTED = [
    [0, Fraction(21, 4), 0, Fraction(-13, 4)],
    [Fraction(21, 4), 0, Fraction(-11, 4), 0],
    [0, Fraction(-11, 4), 0, Fraction(7, 4)],
    [Fraction(-13, 4), 0, Fraction(7, 4), 0],
]
B1_EXPECTED = [
    [1, Fraction(3, 2), 0, Fraction(-1, 2)],
    [Fraction(1, 2), 1, Fraction(1, 2), 0],
    [0, Fraction(1, 2), 1, Fraction(1, 2)],
    [Fraction(-1, 2), 0, Fraction(3, 2), 1],
]


@pytest.fixture
def example1():
    return replicate(generate_mn_pda(3, 1), 2)


@pytest.fixture
def example1_instance(example1):
    return build_instance(example1, files=6)


@pytest.fixture
def fixture_channel():
    return read_channel_fixture(FIXTURES / "channel_2x6.txt")


def isomorph(m, seed):
    """``m`` with its rows, columns and slot ids permuted by a seeded PRNG."""
    rng = random.Random(seed)
    rows, cols, labels = list(range(m.rows)), list(range(m.cols)), list(range(1, m.slots + 1))
    for permutation in (rows, cols, labels):
        rng.shuffle(permutation)
    grid = tuple(
        tuple(STAR if m.grid[f][k] is STAR else labels[m.grid[f][k] - 1] for k in cols)
        for f in rows
    )
    return Mapda(grid, m.antennas)


def mixed_families():
    """cyclic(4, 2) above mn(4, 2) on two antennas: one family of two slots
    serving all four users, and four slots alone in their families."""
    top = generate_cyclic(4, 2).grid
    bottom = tuple(
        tuple(e if e is STAR else e + 2 for e in row) for row in generate_mn_pda(4, 2).grid
    )
    return Mapda(top + bottom, antennas=2)


def shared_users(instance):
    """The served users of two or more slots, in slot order: a run keeps one
    store of solves for each."""
    counts = Counter(group.served_users for group in instance.groups)
    return [users for users, slots in counts.items() if slots > 1]


def outcome(run):
    """run()'s result, or the (type, slot, column, message) of its failure."""
    try:
        return run()
    except (DegenerateChannel, Infeasible) as exc:
        return (type(exc), exc.slot, exc.column, str(exc))


class TestBuildInstance:
    def test_placement_sets(self, example1_instance):
        # User k caches every file's packets at row part[k], a third of the
        # library, so t = 6/3 users cache each packet.  In every slot, a
        # served packet's cachers are the served users caching its row.
        part = {1: 1, 4: 1, 2: 2, 5: 2, 3: 3, 6: 3}
        inst = example1_instance
        assert inst.files == 6
        assert {f for group in inst.groups for f in group.served_rows} == {1, 2, 3}
        for group in inst.groups:
            assert group.redundancy == 6 * Fraction(1, 3)
            assert group.cacher_sets == tuple(
                tuple(l for l, k in enumerate(group.served_users) if part[k] == f)
                for f in group.served_rows
            )

    def test_slot_one_group(self, example1_instance):
        group = example1_instance.groups[0]
        assert group.served_users == (1, 2, 4, 5)
        assert group.served_rows == (2, 1, 2, 1)
        size = len(group.served_users)
        vanishing = [
            [j for j in range(size) if j != l and l not in group.cacher_sets[j]]
            for l in range(size)
        ]
        assert vanishing == [[2], [3], [0], [1]]

    def test_smallest_instance_single_slot(self):
        inst = build_instance(generate_mn_pda(2, 1), files=2)
        assert len(inst.groups) == 1
        assert inst.groups[0].served_users == (1, 2)

    def test_group_cacher_sets(self, example1_instance):
        group = example1_instance.groups[0]
        # Packet rows (2,1,2,1): row 2 is cached by users 2 and 5
        # (positions 1, 3), row 1 by users 1 and 4 (positions 0, 2).
        assert group.cacher_sets == ((1, 3), (0, 2), (1, 3), (0, 2))

    def test_cacher_sets_are_the_served_stars_of_each_packet_row(self):
        # Each distinct packet row of a slot is mapped once, walking the
        # smaller of the row's stars and the slot's users.  Regular arrays
        # walk stars; the two-row array serves two users per slot from rows
        # of K/2 stars, and walks users.
        two_rows = Mapda(
            tuple(tuple(STAR if k % 2 != row else k // 2 + 1 for k in range(8)) for row in (0, 1)),
            antennas=1,
        )
        walks = {"stars": 0, "users": 0}
        for m in (
            replicate(generate_mn_pda(3, 1), 2),
            isomorph(replicate(generate_mn_pda(4, 2), 2), seed=2),
            isomorph(generate_cyclic(8, 5), seed=11),
            mixed_families(),
            two_rows,
            isomorph(two_rows, seed=4),
            isomorph(replicate(generate_mn_pda(10, 3), 3), seed=41),
            isomorph(replicate(generate_cyclic(4, 2), 2), seed=6),
            isomorph(generate_cyclic(16, 8), seed=7),
        ):
            for group in build_instance(m, files=2).groups:
                positions = range(len(group.served_users))
                assert group.cacher_sets == tuple(
                    tuple(
                        i
                        for i in positions
                        if m.grid[f - 1][group.served_users[i] - 1] is STAR
                    )
                    for f in group.served_rows
                )
                for f in group.served_rows:
                    stars = sum(e is STAR for e in m.grid[f - 1])
                    walks["stars" if stars < len(positions) else "users"] += 1
        assert walks["stars"] and walks["users"], walks


class TestSynthesize:
    def test_worked_precoder(self, example1_instance, fixture_channel):
        group = example1_instance.groups[0]
        pre = synthesize_precoder(group, fixture_channel)
        assert pre.matrix.to_rows() == [
            [Fraction(x) for x in row] for row in V1_EXPECTED
        ]

    def test_worked_receive_matrix(self, example1_instance, fixture_channel):
        group = example1_instance.groups[0]
        pre = synthesize_precoder(group, fixture_channel)
        assert pre.combined.to_rows() == [
            [Fraction(x) for x in row] for row in B1_EXPECTED
        ]

    def test_two_user_antidiagonal(self):
        # Two cross-caching users behind one antenna with unit gains: each
        # column has a single 1x1 system, giving the anti-diagonal of ones.
        inst = build_instance(generate_mn_pda(2, 1), files=2)
        channel = ChannelMatrix(Matrix.from_rows([[1, 1]], EXACT))
        pre = synthesize_precoder(inst.groups[0], channel)
        assert pre.matrix.to_rows() == [[0, 1], [1, 0]]

    def test_sparsity_pattern(self, example1_instance):
        channel = ChannelMatrix(vandermonde_channel(2, 6))
        for group in example1_instance.groups:
            v = synthesize_precoder(group, channel).matrix.to_rows()
            for i in range(len(group.served_users)):
                for j in range(len(group.served_users)):
                    if i not in group.cacher_sets[j]:
                        assert v[i][j] == 0

    def test_b_constraints_exact(self):
        channel6 = ChannelMatrix(vandermonde_channel(2, 6))
        for m in (replicate(generate_mn_pda(3, 1), 2), generate_cyclic(4, 2), generate_cyclic(6, 3)):
            channel = (
                channel6
                if m.antennas == 2
                else ChannelMatrix(vandermonde_channel(m.antennas, m.cols))
            )
            for group in build_instance(m, files=2).groups:
                pre = synthesize_precoder(group, channel)
                b = pre.combined.to_rows()
                size = len(group.served_users)
                for l in range(size):
                    assert b[l][l] == 1
                    for j in range(size):
                        if j != l and l not in group.cacher_sets[j]:
                            assert b[l][j] == 0

    def test_receive_matrix_is_the_full_product(self):
        # B is summed over each column's nonzeros only; it must still equal
        # the full product of the slot's Gram block with V, entry for entry.
        arrays_t_ge_l = [
            generate_mn_pda(5, 2),
            generate_cyclic(6, 3),
            generate_cyclic(7, 5),
            replicate(generate_mn_pda(3, 1), 2),
            replicate(generate_mn_pda(4, 2), 2),
            replicate(generate_mn_pda(5, 3), 3),
        ]
        for m in arrays_t_ge_l:
            assert m.profile.t >= m.antennas
            h = vandermonde_channel(m.antennas, m.cols)
            channel = ChannelMatrix(h)
            for group in build_instance(m, files=2).groups:
                h_s = h.take(range(h.n_rows), [k - 1 for k in group.served_users])
                pre = synthesize_precoder(group, channel)
                assert pre.combined == matmul(matmul(conj_transpose(h_s), h_s), pre.matrix)

    def test_low_redundancy_is_infeasible(self):
        # Declaring two antennas over the single-antenna star pattern drops
        # the density below the t >= L gate: every slot must refuse.
        m = Mapda(generate_mn_pda(3, 1).grid, antennas=2)
        inst = build_instance(m, files=3)
        channel = ChannelMatrix(vandermonde_channel(2, 3))
        for group in inst.groups:
            with pytest.raises(Infeasible):
                synthesize_precoder(group, channel)

    def test_degenerate_channel_detected(self, example1_instance):
        # Users 2 and 5 share the channel column (1, 2), and they are the
        # only cachers of slot 1's first packet: column 1's system has two
        # equal columns.
        bad = ChannelMatrix(
            Matrix.from_rows([[1, 1, 1, 1, 1, 1], [2, 2, 4, 2, 2, 7]], EXACT)
        )
        with pytest.raises(DegenerateChannel) as exc:
            synthesize_precoder(example1_instance.groups[0], bad)
        assert exc.value.slot == 1
        assert exc.value.column == 1

    def test_degenerate_channel_names_the_lowest_failing_column(self):
        # Users 5 and 7 have zero channel columns.  Slot 1 serves all nine
        # users, and columns (1, 4, 7), (2, 5, 8) and (3, 6, 9) each share
        # one system.  The first system fails at column 7, the second at
        # column 5, which is not its first member: column 5 is the lowest
        # failing column, as the per-column reference reports.
        group = build_instance(replicate(generate_mn_pda(3, 2), 3), files=2).groups[0]
        assert group.cacher_sets[4] == group.cacher_sets[1] == group.cacher_sets[7]
        bad = ChannelMatrix(
            Matrix.from_rows(
                [
                    [0, 0, 1, 1, 0, -1, 0, 1, -1],
                    [0, 0, 0, 1, 0, 0, 0, 0, 1],
                    [-1, 1, 1, 1, 0, 1, 0, 0, 1],
                ],
                EXACT,
            )
        )
        with pytest.raises(DegenerateChannel) as reference:
            synthesize_precoder_per_column(group, bad)
        with pytest.raises(DegenerateChannel) as exc:
            synthesize_precoder(group, bad)
        assert (exc.value.slot, exc.value.column) == (1, 5)
        assert (reference.value.slot, reference.value.column) == (1, 5)

    def test_channel_shape_checked(self, example1_instance):
        with pytest.raises(DimensionMismatch):
            synthesize_precoder(
                example1_instance.groups[0],
                ChannelMatrix(vandermonde_channel(3, 6)),
            )


class TestSharedSystems:
    """Columns sharing equation rows and unknowns are solved together; the
    result is the per-column reference's, bit for bit."""

    ARRAYS = [
        replicate(generate_mn_pda(3, 1), 2),
        replicate(generate_mn_pda(4, 2), 2),
        replicate(generate_mn_pda(5, 3), 3),
        generate_mn_pda(5, 2),
        generate_cyclic(6, 3),
    ]

    def test_exact_matches_per_column_reference(self):
        for m in self.ARRAYS:
            channel = ChannelMatrix(vandermonde_channel(m.antennas, m.cols))
            for group in build_instance(m, files=2).groups:
                pre = synthesize_precoder(group, channel)
                reference = synthesize_precoder_per_column(group, channel)
                assert pre.matrix == reference.matrix
                assert pre.combined == reference.combined

    def test_float_matches_per_column_reference_bit_for_bit(self):
        def bits(matrix):
            return tuple((z.real.hex(), z.imag.hex()) for z in flat_entries(matrix))

        for m in self.ARRAYS:
            groups = build_instance(m, files=2).groups
            for seed in (1, 2, 3):
                channel = make_channel(m.antennas, m.cols, seed=seed)
                for group in groups:
                    pre = synthesize_precoder(group, channel)
                    reference = synthesize_precoder_per_column(group, channel)
                    assert flat_entries(pre.matrix) == flat_entries(reference.matrix)
                    assert flat_entries(pre.combined) == flat_entries(reference.combined)
                    assert bits(pre.matrix) == bits(reference.matrix)
                    assert bits(pre.combined) == bits(reference.combined)

    def test_one_solve_per_shared_system(self, monkeypatch):
        # Each slot of replicate(mn(10, 3), 3) serves 12 users in 4 cache
        # groups of 3: 4 systems, one solve each.
        calls = []
        real_solve = engine.solve

        def counted(a, rows, cols):
            calls.append(len(rows))
            return real_solve(a, rows, cols)

        monkeypatch.setattr(engine, "solve", counted)
        m = replicate(generate_mn_pda(10, 3), 3)
        channel = make_channel(m.antennas, m.cols, seed=1)
        for group in build_instance(m, files=2).groups:
            calls.clear()
            synthesize_precoder(group, channel)
            assert calls == [3, 3, 3, 3]


class TestFloatPrecoderRows:
    def test_v_and_b_keep_the_reference_bits(self):
        # V and B are placed from the solves' rows; the per-column reference
        # solves each column alone.  A real channel puts zeros of both signs
        # in the imaginary parts of its Gram matrix and so of V and B.
        for m in TestSharedSystems.ARRAYS:
            real = Matrix.from_rows(vandermonde_channel(m.antennas, m.cols).to_rows(), FLOAT)
            for channel in (ChannelMatrix(real), make_channel(m.antennas, m.cols, seed=1)):
                for group in build_instance(m, files=2).groups:
                    pre = synthesize_precoder(group, channel)
                    reference = synthesize_precoder_per_column(group, channel)
                    assert_float_rows(pre.matrix, reference.matrix.to_rows())
                    assert_float_rows(pre.combined, reference.combined.to_rows())


class TestFloatDecodeBits:
    def test_slots_match_loop_oracle_bit_for_bit(self):
        # Every recovered value of replicate(mn(10, 3), 3) on three float
        # channels has the bits of a dense loop-form encode, forward and
        # decode, and every slot counts the oracle's operations per phase.
        m = replicate(generate_mn_pda(10, 3), 3)
        instance, demands = build_instance(m, files=4), default_demands(m.cols, 4)
        for seed in (1, 2, 3):
            channel = make_channel(m.antennas, m.cols, seed=seed)
            channel.gram  # formed before the slots, so that none pays for it
            library = random_library(4, m.rows, seed=seed, backend=FLOAT)
            for group in instance.groups:
                outcome = run_slot(group, channel, demands, library)
                values, ops = loop_slot_float(group, channel, demands, library)
                assert float_bits(v for *_, v in outcome.recovered) == float_bits(values)
                assert outcome.ops == ops


class TestFamilies:
    """Slots serving the same users solve each distinct column system once
    per run; every slot's V and B stay those of its own synthesis."""

    ARRAYS = [
        *(generate_cyclic(k, t) for k in range(2, 11) for t in range(1, k) if t >= k - t),
        replicate(generate_cyclic(4, 2), 2),
        isomorph(generate_cyclic(8, 5), seed=11),
        mixed_families(),
    ]

    def test_families_group_slots_serving_the_same_users(self):
        instance = build_instance(generate_cyclic(6, 3), files=2)
        users = (1, 2, 3, 4, 5, 6)
        assert [g.served_users for g in instance.groups] == [users] * 3
        assert shared_users(instance) == [users]
        systems = {}
        for g in instance.groups:
            for n, cachers in enumerate(g.cacher_sets):
                systems.setdefault(cachers, set()).add(n)
        # One system per row: each row's stars are a distinct cacher set.
        assert len(systems) == 6
        # Every position outside a row's cachers reads that row in some slot,
        # so solving a system for its equation rows solves nothing unused.
        for cachers, positions in systems.items():
            assert positions == {p for p in range(6) if p not in cachers}
        mixed = build_instance(mixed_families(), files=2)
        assert len(mixed.groups) == 6
        assert shared_users(mixed) == [(1, 2, 3, 4)]
        assert shared_users(build_instance(replicate(generate_mn_pda(10, 3), 3), files=2)) == []

    @staticmethod
    def record_precoders(monkeypatch):
        """{slot: the precoder a run synthesized for it}, filled by every
        ``run_delivery`` call from now on."""
        seen = {}
        real_synthesize = engine.synthesize_precoder

        def recorded(group, channel, family=None):
            seen[group.slot] = real_synthesize(group, channel, family)
            return seen[group.slot]

        monkeypatch.setattr(engine, "synthesize_precoder", recorded)
        return seen

    def test_v_and_b_equal_standalone_synthesis(self, monkeypatch):
        seen = self.record_precoders(monkeypatch)
        for m in self.ARRAYS:
            assert m.profile.t >= m.antennas
            instance = build_instance(m, files=2)
            assert bool(shared_users(instance)) == (m.slots > 1)
            channels = [ChannelMatrix(vandermonde_channel(m.antennas, m.cols))]
            channels += [make_channel(m.antennas, m.cols, seed=seed) for seed in (1, 2, 3)]
            for channel in channels:
                seen.clear()
                library = random_library(2, m.rows, seed=7, backend=channel.matrix.backend)
                run_delivery(instance, channel, default_demands(m.cols, 2), library)
                assert sorted(seen) == [g.slot for g in instance.groups]
                for group in instance.groups:
                    alone = synthesize_precoder(group, channel)
                    assert seen[group.slot].matrix.to_rows() == alone.matrix.to_rows()
                    assert seen[group.slot].combined.to_rows() == alone.combined.to_rows()

    def test_receive_matrix_is_the_full_product_inside_a_run(self, monkeypatch):
        # An exact solve's B reads its equation rows from the unit
        # right-hand sides; inside a run, where families share their
        # solves, every slot's B must still equal its Gram block times V in
        # full.  B's integer rows are over the Gram matrix's denominator, so
        # a second channel divides the Vandermonde columns by distinct
        # integers: it stays totally positive, and its Gram matrix gets a
        # denominator above 1.
        seen = self.record_precoders(monkeypatch)
        for m in (isomorph(generate_cyclic(8, 5), seed=11), mixed_families()):
            instance = build_instance(m, files=2)
            assert shared_users(instance)
            h = vandermonde_channel(m.antennas, m.cols)
            scaled = Matrix.from_rows(
                [[e / (k + 1) for k, e in enumerate(row)] for row in h.to_rows()]
            )
            assert ChannelMatrix(scaled).gram._rows[1] > 1
            library = random_library(2, m.rows, seed=7)
            for h in (h, scaled):
                seen.clear()
                run_delivery(instance, ChannelMatrix(h), default_demands(m.cols, 2), library)
                assert sorted(seen) == [g.slot for g in instance.groups]
                for group in instance.groups:
                    h_s = h.take(range(h.n_rows), [k - 1 for k in group.served_users])
                    precoder = seen[group.slot]
                    assert precoder.combined == matmul(
                        matmul(conj_transpose(h_s), h_s), precoder.matrix
                    )

    def test_one_solve_per_distinct_system(self, monkeypatch):
        # cyclic(16, 8): 8 slots serve all 16 users, and its 16 rows give 16
        # systems, each read by the 8 users outside the row's stars.
        calls = []
        counts = {"_integers": 0, "Fraction": 0}
        real_solve, real_integers, real_new = engine.solve, linalg._integers, Fraction.__new__

        def counted(a, rows, cols):
            calls.append(len(rows))
            return real_solve(a, rows, cols)

        def integers(*args):
            counts["_integers"] += 1
            return real_integers(*args)

        def new(cls, *args, **kwargs):
            # Direct constructions only: arithmetic results pass
            # _normalize=False on Python 3.10 and 3.11 and skip __new__ later.
            counts["Fraction"] += kwargs.get("_normalize", True)
            return real_new(cls, *args, **kwargs)

        m = generate_cyclic(16, 8)
        instance, demands = build_instance(m, files=2), default_demands(16, 2)
        channel = ChannelMatrix(vandermonde_channel(m.antennas, m.cols))
        library = random_library(2, 16, seed=1)
        monkeypatch.setattr(engine, "solve", counted)
        monkeypatch.setattr(linalg, "_integers", integers)
        monkeypatch.setattr(Fraction, "__new__", new)
        report = run_delivery(instance, channel, demands, library)
        monkeypatch.undo()
        assert calls == [8] * 16
        # B is summed over the 8 cacher rows of each column, not all 16.
        assert report.ops_measured["precoder_synthesis"] == {"mul": 31664, "add": 18368}
        # Every product and block is handed on as integer rows, so Fractions
        # are only the 128 decoded values (16 per slot) and the NDT.  H and
        # the library are brought to integers when they are built, before
        # the count starts: H* transposes H's integer rows, and each slot
        # reads its packets from the library's, over its denominator, and
        # checks each decoded value against them on integers.  (8 calls of
        # _integers when each slot brought its packets to integers; 9 when H
        # was converted on first use; 152 when each row of H, H* and w was
        # scaled on its own; 88 and 705 when the products built Fractions,
        # which the next kernel only rescaled to integers; 344 and 2,793
        # when V and B were handed over as Fractions too.)
        assert counts == {"_integers": 0, "Fraction": 129}

    def test_synthesis_counts_over_a_non_integer_channel(self):
        # Bareiss skips a division only where the previous pivot is exactly
        # 1, so how the Gram rows are brought to integers could move the
        # counts.  Dividing channel column k by k + 1 puts the Gram matrix
        # over a denominator above 1; the counts were recorded when each
        # Gram row was scaled on its own.
        for (users, t), synthesis in (
            ((8, 5), {"mul": 1136, "add": 600}),
            ((16, 8), {"mul": 31664, "add": 18368}),
        ):
            m = generate_cyclic(users, t)
            h = vandermonde_channel(m.antennas, m.cols)
            channel = ChannelMatrix(
                Matrix.from_rows([[e / (k + 1) for k, e in enumerate(row)] for row in h.to_rows()])
            )
            library = random_library(2, m.rows, seed=7)
            report = run_delivery(
                build_instance(m, files=2), channel, default_demands(users, 2), library
            )
            assert report.ops_measured["precoder_synthesis"] == synthesis

    def test_slots_sharing_nothing_keep_no_solve(self, monkeypatch):
        # A run keeps a family's solves for its later slots, and nothing for
        # a slot alone in its family: when the next slot starts, the test's
        # own record is the only container holding an earlier slot's solve.
        results, kept = [], []
        real_solve, real_synthesize = engine.solve, engine.synthesize_precoder

        def recorded_solve(*args):
            results.append(real_solve(*args))
            return results[-1]

        def checked_synthesize(group, channel, family=None):
            kept.append(sum(gc.get_referrers(result) != [results] for result in results))
            return real_synthesize(group, channel, family)

        monkeypatch.setattr(engine, "solve", recorded_solve)
        monkeypatch.setattr(engine, "synthesize_precoder", checked_synthesize)
        lone = replicate(generate_mn_pda(4, 1), 2)
        for m, shares in ((lone, False), (generate_cyclic(6, 3), True)):
            instance = build_instance(m, files=2)
            assert bool(shared_users(instance)) == shares
            for channel in (
                ChannelMatrix(vandermonde_channel(m.antennas, m.cols)),
                make_channel(m.antennas, m.cols, seed=1),
            ):
                results.clear()
                kept.clear()
                library = random_library(2, m.rows, seed=3, backend=channel.matrix.backend)
                run_delivery(instance, channel, default_demands(m.cols, 2), library)
                assert len(kept) == m.slots and len(results) >= m.slots
                # The family's slots after the first find its solves kept.
                assert any(kept) == shares, kept

    def test_errors_match_one_slot_at_a_time(self, monkeypatch):
        # Exact channels on which two users share a channel column, or with
        # entries -1, 0 and 1, leave column systems rank-deficient.  A run
        # must fail where running the slots one at a time fails, with the
        # same error, and deliver where that delivers, and it solves each of
        # the family's systems at most once, when it fails too, with the
        # positions outside the cacher set as its equation rows in ascending
        # order and one unit right-hand side for each of them.
        solved = []
        real_solve = engine.solve

        def recorded(block, equations, unknowns):
            outside = [l for l in range(block.n_rows) if l not in unknowns]
            assert equations == outside, (equations, unknowns)
            solved.append(unknowns)
            return real_solve(block, equations, unknowns)

        monkeypatch.setattr(engine, "solve", recorded)
        rng = random.Random(5)
        runs = failures = failed_after_solving = 0
        for m in (
            generate_cyclic(4, 2),
            generate_cyclic(6, 3),
            generate_cyclic(8, 4),
            isomorph(generate_cyclic(8, 4), seed=3),
            isomorph(generate_cyclic(9, 5), seed=4),
        ):
            instance = build_instance(m, files=2)
            assert len(shared_users(instance)) == 1
            demands = default_demands(m.cols, 2)
            library = random_library(2, m.rows, seed=1)
            channels = []
            for a, b in combinations(range(m.cols), 2):
                nodes = list(range(2, m.cols + 2))
                nodes[b] = nodes[a]
                channels.append([[node**l for node in nodes] for l in range(m.antennas)])
            channels += [
                [[rng.randint(-1, 1) for _ in range(m.cols)] for _ in range(m.antennas)]
                for _ in range(10)
            ]
            for rows in channels:
                channel = ChannelMatrix(Matrix.from_rows(rows, EXACT))
                alone = outcome(
                    lambda: [
                        run_slot(g, channel, demands, library).recovered
                        for g in instance.groups
                    ]
                )
                solved.clear()
                together = outcome(lambda: run_delivery(instance, channel, demands, library))
                assert len(solved) == len(set(solved)), solved
                runs += 1
                if isinstance(alone, list):
                    assert isinstance(together, engine.DeliveryReport)
                else:
                    failures += 1
                    failed_after_solving += bool(solved)
                    assert together == alone
        assert failures >= 80, (failures, runs)
        # Most failing runs fail on a system the run has solved.
        assert failed_after_solving >= 100, failed_after_solving


class TestFailureOrder:
    """A slot whose columns have no solution raises for the smallest of
    them, with the error, slot, column and message of a synthesis that
    solves one column at a time, however its systems are ordered or shared
    with a family; any other slot gets that synthesis's V and B in value."""

    ARRAYS = [
        replicate(generate_mn_pda(3, 2), 3),
        isomorph(replicate(generate_mn_pda(3, 2), 3), seed=9),
        replicate(generate_mn_pda(4, 2), 2),
        isomorph(replicate(generate_mn_pda(4, 1), 3), seed=2),
        mixed_families(),
        # One family each: on floats, equal rows of a degenerate channel tie
        # for a pivot, so a shared system's row order shows in V and B.
        generate_cyclic(6, 3),
        isomorph(generate_cyclic(8, 4), seed=3),
        # Valid and irregular at t = L = 2: column 1 has one unknown (user 3)
        # and two equations (users 1 and 2), so it has no solution.
        parse_mapda("2 3 3 - -\n* * *\n* * 1\n1 1 *\n"),
        # Valid and irregular at t = L = 3: in slot 3, the system of cacher
        # positions {2, 3} has equation rows {0, 1}, but only position 0 uses
        # it, so the slot solves a right-hand side that no column reads.
        parse_mapda("3 5 5 3 4\n* 3 3 * *\n* * * 2 2\n* * * 3 *\n2 * 1 * 1\n3 4 * * *\n"),
    ]

    @staticmethod
    def channels(m, rng):
        """Integer channels that leave column systems rank-deficient: two
        users sharing a Vandermonde column, a zero column, and entries
        -1, 0 and 1."""
        nodes = list(range(2, m.cols + 2))
        found = []
        for _ in range(6):
            a, b = rng.sample(range(m.cols), 2)
            shared = nodes.copy()
            shared[b] = shared[a]
            found.append([[node**l for node in shared] for l in range(m.antennas)])
            zeroed = [[0 if k == a else node**l for k, node in enumerate(nodes)] for l in range(m.antennas)]
            found.append(zeroed)
            found.append([[rng.randint(-1, 1) for _ in nodes] for _ in range(m.antennas)])
        return found

    def test_failures_match_the_per_column_reference(self):
        rng = random.Random(21)
        seen = {
            "failing slots": 0,
            "not its system's first column": 0,
            "earlier system fails later": 0,
            "more equations than unknowns": 0,
        }
        for m in self.ARRAYS:
            instance = build_instance(m, files=2)
            for rows, backend in product(self.channels(m, rng), (EXACT, FLOAT)):
                channel = ChannelMatrix(Matrix.from_rows(rows, backend))
                stores = {users: {} for users in shared_users(instance)}
                for group in instance.groups:
                    reference = outcome(lambda: synthesize_precoder_per_column(group, channel))
                    alone = outcome(lambda: synthesize_precoder(group, channel))
                    family = stores.get(group.served_users)
                    shared = outcome(lambda: synthesize_precoder(group, channel, family))
                    for got in (alone, shared):
                        if type(reference) is tuple:
                            assert got == reference
                        else:
                            # Equal in value on both backends: every path
                            # reads a system's equation rows in ascending
                            # order, so equal rows tie for a pivot alike.
                            assert got.matrix == reference.matrix
                            assert got.combined == reference.combined
                    if type(reference) is not tuple:
                        continue
                    overdetermined = "equations and no solution" in reference[3]
                    seen["more equations than unknowns"] += overdetermined
                    # Where the smallest failing column sits among the systems.
                    first = {}
                    for n, cachers in enumerate(group.cacher_sets):
                        first.setdefault(cachers, n)
                    first_of = [first[cachers] for cachers in group.cacher_sets]
                    failing = failing_columns(group, channel)
                    n = reference[2] - 1
                    assert failing[0] == n
                    seen["failing slots"] += 1
                    seen["not its system's first column"] += first_of[n] != n
                    seen["earlier system fails later"] += any(first_of[c] < first_of[n] for c in failing)
        assert all(count >= 5 for count in seen.values()), seen


class TestRunSlot:
    def test_worked_decode(self, example1_instance, fixture_channel):
        # User 1 hears its packet plus 3/2 and -1/2 of two packets it
        # caches; after subtracting them it recovers file 1's part 2.
        library = random_library(6, 3, seed=5)
        demands = default_demands(6, 6)
        outcome = run_slot(
            example1_instance.groups[0], fixture_channel, demands, library
        )
        by_user = {user: (packet, value) for user, packet, value in outcome.recovered}
        assert by_user[1][0] == PacketId(1, 2)
        assert by_user[1][1] == library.to_rows()[0][1]
        assert by_user[2][0] == PacketId(2, 1)
        assert by_user[4][0] == PacketId(4, 2)
        assert by_user[5][0] == PacketId(5, 1)
        assert outcome.residual_max == 0.0

    def test_float_residual_covers_every_decode_condition(self, example1_instance):
        # residual_max is the worst of the decode errors, |B(l, l) - 1| and
        # |B(l, j)| over the forced zeros (l neither caches nor wants j).
        demands = default_demands(6, 6)
        forced_zero_wins = 0
        for seed in range(4):
            channel = make_channel(2, 6, seed=seed)
            library = random_library(6, 3, seed=seed, backend=FLOAT)
            for group in example1_instance.groups:
                b = synthesize_precoder(group, channel).combined.to_rows()
                outcome = run_slot(group, channel, demands, library)
                size = len(group.served_users)
                errors = [
                    abs(value - library.to_rows()[packet.file - 1][packet.part - 1])
                    for _, packet, value in outcome.recovered
                ]
                diagonal = [abs(b[l][l] - 1) for l in range(size)]
                forced = [
                    abs(b[l][j])
                    for l in range(size)
                    for j in range(size)
                    if j != l and l not in group.cacher_sets[j]
                ]
                assert outcome.residual_max == max(errors + diagonal + forced)
                forced_zero_wins += max(forced) > max(errors + diagonal)
        # At least one slot's residual comes from a forced zero alone.
        assert forced_zero_wins >= 1

    def test_zero_library_decodes_zeros(self, example1_instance, fixture_channel):
        zero_lib = Matrix.from_rows([[0] * 3 for _ in range(6)], EXACT)
        outcome = run_slot(
            example1_instance.groups[0],
            fixture_channel,
            default_demands(6, 6),
            zero_lib,
        )
        assert all(value == 0 for _, _, value in outcome.recovered)

    def test_nan_packet_is_a_decode_mismatch(self, example1_instance, fixture_channel):
        rows = [[1.0] * 3 for _ in range(6)]
        rows[0][1] = float("nan")  # user 1's slot-1 packet
        with pytest.raises(engine.DecodeMismatch) as info:
            run_slot(
                example1_instance.groups[0],
                engine.ChannelMatrix(Matrix.from_rows(fixture_channel.matrix.to_rows(), FLOAT)),
                default_demands(6, 6),
                Matrix.from_rows(rows, FLOAT),
            )
        assert info.value.slot == 1

    @pytest.mark.parametrize(
        "antennas, users, message",
        [
            (3, 6, "channel has 3 rows but the array declares 2 antennas"),
            (2, 4, "channel has 4 columns but slot 1 serves user 5"),
        ],
    )
    def test_channel_shape_checked(self, example1_instance, antennas, users, message):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            run_slot(
                example1_instance.groups[0],
                ChannelMatrix(vandermonde_channel(antennas, users)),
                default_demands(6, 6),
                random_library(6, 3, seed=0),
            )

    def test_demand_outside_library(self, example1_instance, fixture_channel):
        demands = (1, 2, 3, 4, 5, 7)
        message = "demand 7 outside library [1..6]"
        library = random_library(6, 3, seed=0)
        # A slot checks the demands of the users it serves: user 6's here.
        group = next(g for g in example1_instance.groups if 6 in g.served_users)
        with pytest.raises(arrays.DomainError, match=re.escape(message)):
            run_slot(group, fixture_channel, demands, library)
        # A slot that does not serve user 6 delivers.
        run_slot(example1_instance.groups[0], fixture_channel, demands, library)
        # The same text as a whole run's demand check.
        with pytest.raises(arrays.DomainError, match=re.escape(message)):
            run_delivery(example1_instance, fixture_channel, demands, library)
        # A vector too short for the users a slot serves is refused by name.
        short = "demand vector covers 5 users but slot 2 serves user 6"
        with pytest.raises(arrays.DomainError, match=re.escape(short)):
            run_slot(example1_instance.groups[1], fixture_channel, (1, 2, 3, 4, 5), library)


class TestRunDelivery:
    def test_one_validation_per_run(self, monkeypatch, fixture_channel):
        calls = []
        validate = arrays.validate

        def counting(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(arrays, "validate", counting)
        m = parse_mapda((FIXTURES / "example1.mapda").read_text())
        instance = build_instance(m, files=6)
        library = random_library(6, 3, seed=17)
        run_delivery(instance, fixture_channel, default_demands(6, 6), library)
        assert len(calls) == 1
        calls.clear()
        assert generate_cyclic(6, 3).profile.sum_dof == 6
        assert len(calls) == 1

    def test_gram_formed_once_per_channel(self, monkeypatch, fixture_channel):
        channels = [fixture_channel, read_channel_fixture(FIXTURES / "channel_2x6.txt")]
        formed = []
        matmul = engine.matmul

        def counting(a, b, **selection):
            formed.extend(c for c in channels if b is c.matrix)
            return matmul(a, b, **selection)

        monkeypatch.setattr(engine, "matmul", counting)
        m = parse_mapda((FIXTURES / "example1.mapda").read_text())
        instance = build_instance(m, files=6)
        library = random_library(6, 3, seed=17)
        synthesis_mul = []
        for channel in channels:
            for _ in range(2):
                report = run_delivery(instance, channel, default_demands(6, 6), library)
                synthesis_mul.append(report.ops_measured["precoder_synthesis"]["mul"])
        assert len(formed) == 2
        assert formed[0] is channels[0] and formed[1] is channels[1]
        # The first run on each channel also pays for its 6x6 Gram matrix,
        # 6 * 6 * L = 72 multiplications; later runs reuse it.
        assert synthesis_mul[0] - synthesis_mul[1] == 72
        assert synthesis_mul[2:] == synthesis_mul[:2]

    def test_example1_exact_end_to_end(self, example1, example1_instance, fixture_channel):
        library = random_library(6, 3, seed=17)
        demands = default_demands(6, 6)
        report = run_delivery(example1_instance, fixture_channel, demands, library)
        assert report.ndt_ul == 1
        assert report.ndt_dl == 1
        assert report.ops_model == 264
        for user in range(1, 7):
            non_star_rows = [
                f + 1 for f in range(3) if example1.grid[f][user - 1] is not STAR
            ]
            assert report.recovered[user] == frozenset(
                PacketId(demands[user - 1], f) for f in non_star_rows
            )

    def test_all_demand_vectors_on_smallest_instance(self):
        inst = build_instance(generate_mn_pda(2, 1), files=2)
        channel = ChannelMatrix(vandermonde_channel(1, 2))
        library = random_library(2, 2, seed=3)
        for demands in product((1, 2), repeat=2):
            report = run_delivery(inst, channel, demands, library)
            assert report.ndt_ul == Fraction(1, 2)

    def test_identical_demands_decode(self, example1_instance, fixture_channel):
        library = random_library(6, 3, seed=29)
        report = run_delivery(
            example1_instance, fixture_channel, (1,) * 6, library
        )
        assert [r.s for r in report.slots] == [g.slot for g in example1_instance.groups]

    def test_float_backend_seeds(self, example1):
        inst = build_instance(example1, files=6)
        demands = default_demands(6, 6)
        for seed in range(10):
            channel = make_channel(2, 6, seed=seed)
            library = random_library(6, 3, seed=seed, backend=FLOAT)
            report = run_delivery(inst, channel, demands, library)
            assert max(r.residual_max for r in report.slots) <= 1e-8

    def test_gate_refuses_low_density(self):
        m = Mapda(generate_mn_pda(3, 1).grid, antennas=2)
        inst = build_instance(m, files=3)
        channel = ChannelMatrix(vandermonde_channel(2, 3))
        library = random_library(3, 3, seed=1)
        demands = default_demands(3, 3)
        with pytest.raises(Infeasible) as info:
            run_delivery(inst, channel, demands, library)
        assert info.value.slot == 1

    def test_one_shot_regular_arrays(self):
        # Arrays whose slots all occur exactly t+L times decode one-shot on
        # a generic channel, for every demand vector.
        cases = [generate_cyclic(k, t) for k in range(2, 6) for t in range(1, k)]
        for m in cases:
            if m.profile.t < m.antennas:
                continue
            assert m.profile.regular
            inst = build_instance(m, files=2)
            channel = ChannelMatrix(vandermonde_channel(m.antennas, m.cols))
            library = random_library(2, m.rows, seed=13)
            for demands in product((1, 2), repeat=m.cols):
                run_delivery(inst, channel, demands, library)

    def test_irregular_underfilled_slot_is_infeasible(self):
        # Valid array, t = L = 1, but slot 1 serves a user whose packet no
        # served user caches: undeliverable in this protocol, and the
        # engine must say so rather than mis-decode.
        m = Mapda(((STAR, 1), (2, STAR)), antennas=1)
        assert not m.profile.regular
        inst = build_instance(m, files=2)
        channel = ChannelMatrix(vandermonde_channel(1, 2))
        with pytest.raises(Infeasible):
            synthesize_precoder(inst.groups[0], channel)

    def test_all_star_array_has_nothing_to_deliver(self):
        # Full caching: no slots, zero delivery time, vacuous success.
        m = Mapda(((STAR, STAR), (STAR, STAR)), antennas=1)
        inst = build_instance(m, files=2)
        assert inst.groups == ()
        report = run_delivery(
            inst,
            ChannelMatrix(vandermonde_channel(1, 2)),
            (1, 2),
            random_library(2, 2, seed=0),
        )
        assert report.ndt_ul == 0
        assert all(not packets for packets in report.recovered.values())

    @pytest.mark.parametrize(
        "groups",
        [lambda g: g[1:], lambda g: g + g[-1:]],
        ids=["group-dropped", "group-repeated"],
    )
    def test_every_integer_cell_delivered_once(self, example1_instance, fixture_channel, groups):
        instance = example1_instance._replace(groups=groups(example1_instance.groups))
        with pytest.raises(
            engine.DecodeMismatch,
            match="^recovered cells do not match the integer cells of the array$",
        ):
            run_delivery(
                instance,
                fixture_channel,
                default_demands(6, 6),
                random_library(6, 3, seed=0),
            )

    def test_library_shape_checked(self, example1_instance, fixture_channel):
        with pytest.raises(DimensionMismatch):
            run_delivery(
                example1_instance,
                fixture_channel,
                default_demands(6, 6),
                random_library(6, 4, seed=0),
            )

    def test_float_ops_below_model(self):
        # The measured multiplications of a float run, all four phases and
        # the Gram matrix included, stay below the cost model lambda.
        m = replicate(generate_mn_pda(10, 3), 3)
        assert m.antennas == 3
        report = run_delivery(
            build_instance(m, files=4),
            make_channel(3, 30, seed=0),
            default_demands(30, 4),
            random_library(4, m.rows, seed=0, backend=FLOAT),
        )
        measured = sum(phase["mul"] for phase in report.ops_measured.values())
        assert measured / report.ops_model < 1

    def test_float_ops_ratio_with_pivot_only_back_substitution(self):
        # The same run as above.  Back-substitution over pivot columns
        # skips the free variables of each 3 x 9 column system, which
        # brings total multiplications to about half of lambda (0.508).
        m = replicate(generate_mn_pda(10, 3), 3)
        report = run_delivery(
            build_instance(m, files=4),
            make_channel(3, 30, seed=0),
            default_demands(30, 4),
            random_library(4, m.rows, seed=0, backend=FLOAT),
        )
        measured = sum(phase["mul"] for phase in report.ops_measured.values())
        assert measured / report.ops_model < 0.55

    def test_library_on_another_backend_refused(self, example1_instance):
        with pytest.raises(BackendMismatch, match="mixed backends: float and exact"):
            run_slot(
                example1_instance.groups[0],
                make_channel(2, 6, seed=0),
                default_demands(6, 6),
                random_library(6, 3, seed=0),
            )

    def test_ops_measured_nonzero(self, example1_instance, fixture_channel):
        report = run_delivery(
            example1_instance,
            fixture_channel,
            default_demands(6, 6),
            random_library(6, 3, seed=2),
        )
        assert report.ops_measured["precoder_synthesis"]["mul"] > 0
        assert report.ops_measured["uplink_encode"]["mul"] > 0
        assert set(report.ops_measured) == {
            "precoder_synthesis",
            "uplink_encode",
            "bs_forward",
            "user_decode",
        }


class TestChannels:
    def test_seeded_channels_deterministic(self):
        assert make_channel(2, 6, seed=42).matrix == make_channel(2, 6, seed=42).matrix
        assert make_channel(2, 6, seed=42).matrix != make_channel(2, 6, seed=43).matrix

    def test_decoding_does_not_depend_on_the_channels_scale(self):
        # The float pivots are relative to each column system's own scale, so
        # a scaled channel decodes with the same pivots, and so the same
        # operation counts; at 1e-5 it was once refused as degenerate.
        m = replicate(generate_mn_pda(6, 2), 2)
        instance, demands = build_instance(m, files=2), default_demands(m.cols, 2)
        library = random_library(2, m.rows, seed=1, backend=FLOAT)
        base = make_channel(m.antennas, m.cols, seed=3).matrix.to_rows()
        reports = [
            run_delivery(
                instance,
                ChannelMatrix(Matrix.from_rows([[e * scale for e in row] for row in base], FLOAT)),
                demands,
                library,
            )
            for scale in (1.0, 1e-3, 1e-4, 1e-5, 1e-50, 1e-100, 1e3, 1e100)
        ]
        assert all(r.ops_measured == reports[0].ops_measured for r in reports)

    def test_float_gram_matrix_out_of_range_refused(self):
        # A user whose squared channel norm underflows to a subnormal or zero
        # would pivot on rounding residue; past the float range, on inf.
        for rows, what in (
            ([[1e-160, 2e-160]], "underflows the float range at user 1"),
            ([[1, 1e-160]], "underflows the float range at user 2"),
            ([[1e-160, 0], [0, 1]], "underflows the float range at user 1"),
            ([[1e160, 1]], "overflows the float range"),
        ):
            with pytest.raises(arrays.DomainError, match=what):
                ChannelMatrix(Matrix.from_rows(rows, FLOAT)).gram
        # A zero column is no underflow: that user has no channel at all.
        gram = ChannelMatrix(Matrix.from_rows([[0, 1]], FLOAT)).gram
        assert gram.to_rows() == [[0, 0], [0, 1]]

    def test_fixture_restriction_matches_worked_channel(self, fixture_channel):
        h = fixture_channel.matrix.take(range(2), [0, 1, 3, 4])
        assert h.to_rows() == [[1, 1, 1, 1], [2, 3, 4, 5]]

    def test_fixture_parsing_scalar_forms(self):
        ch = parse_channel_fixture("2 2\n1/2 3\n1+2i -1i\n")
        assert ch.matrix.backend == FLOAT
        assert ch.matrix.to_rows() == [[0.5, 3], [1 + 2j, -1j]]
        exact = parse_channel_fixture("1 2\n1/3 4\n")
        assert exact.matrix.backend == EXACT
        assert exact.matrix.to_rows() == [[Fraction(1, 3), 4]]

    def test_fixture_parse_errors(self):
        with pytest.raises(ParseError):
            parse_channel_fixture("2 2\n1 2\n")
        with pytest.raises(ParseError):
            parse_channel_fixture("1 2\n1 x\n")
        with pytest.raises(ParseError):
            parse_channel_fixture("")

    def test_fixture_shape_errors_name_the_header_line(self):
        for text in ("# channel\n2 2\n1 2\n", "# channel\n2 2 2\n1 2\n3 4\n"):
            with pytest.raises(ParseError, match="^line 2: "):
                parse_channel_fixture(text)
        with pytest.raises(ParseError, match="^line 1: header declares 3 rows, found 2"):
            parse_library_fixture("3 1\n1\n2\n")

    @pytest.mark.parametrize(
        "entry",
        [
            "nan", "1e999", "-1e999", "nan+1i", "1e999i", "inf", "-inf", "infinity", "+Infinity",
            "inf+1i", "1+infi", "-infi", "infinityi",
        ],
    )
    def test_non_finite_entries_rejected(self, entry):
        message = re.escape(f"non-finite entry {entry!r}")
        with pytest.raises(ParseError, match=f"^line 3: {message}"):
            parse_channel_fixture(f"2 2\n1 2\n3 {entry}\n")
        with pytest.raises(ParseError, match=f"^line 2: {message}"):
            parse_library_fixture(f"1 2\n{entry} 1\n")

    def test_only_the_last_i_is_the_imaginary_unit(self):
        # As Python's complex() reads a lone "j", a lone "i" is the unit.
        lib = parse_library_fixture("1 4\n2+3i i -i 1.5\n")
        assert lib.to_rows() == [[2 + 3j, 1j, -1j, 1.5]]
        for entry in ("1i+2", "ii", "2+3I"):
            with pytest.raises(ParseError, match=re.escape(f"line 2: bad scalar {entry!r}")):
                parse_library_fixture(f"1 1\n{entry}\n")

    def test_library_fixture(self):
        lib = parse_library_fixture("2 3\n1 2 3\n4 5 6\n")
        assert lib.n_rows == 2
        assert lib.to_rows()[1][2] == 6

    def test_random_library_deterministic(self):
        assert random_library(3, 4, seed=9) == random_library(3, 4, seed=9)


SMALL_ARRAYS = (
    generate_mn_pda(4, 2),
    generate_cyclic(4, 2),
    generate_cyclic(5, 3),
    replicate(generate_mn_pda(3, 1), 2),
    replicate(generate_mn_pda(4, 2), 2),
)


@st.composite
def integer_channels(draw):
    m = draw(st.sampled_from(SMALL_ARRAYS))
    entries = st.integers(min_value=-4, max_value=4)
    rows = draw(
        st.lists(
            st.lists(entries, min_size=m.cols, max_size=m.cols),
            min_size=m.antennas,
            max_size=m.antennas,
        )
    )
    return m, rows


class TestBackendsAgree:
    # Small integer channels keep every system well conditioned (worst
    # relative gap seen over 3000 random cases: 3e-14), so 1e-9 leaves
    # a wide margin while still catching any wrong pivot or support.
    RTOL = 1e-9

    @given(integer_channels())
    def test_float_precoder_matches_exact(self, case):
        m, rows = case
        exact = ChannelMatrix(Matrix.from_rows(rows, EXACT))
        approx = ChannelMatrix(Matrix.from_rows(rows, FLOAT))
        for group in build_instance(m, files=2).groups:
            try:
                v = synthesize_precoder(group, exact).matrix
            except (DegenerateChannel, Infeasible) as exc:
                # A slot the exact backend refuses, the float one refuses too.
                with pytest.raises(type(exc)):
                    synthesize_precoder(group, approx)
                continue
            w = synthesize_precoder(group, approx).matrix
            scale = max(abs(e) for e in flat_entries(v))
            for e, f in zip(flat_entries(v), flat_entries(w)):
                assert abs(complex(e) - f) <= self.RTOL * scale
