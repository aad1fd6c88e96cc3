"""Byte-exact stdout and stderr, and the exit code, of fixed CLI requests.

Each case's expected bytes live in ``fixtures/golden/<name>.out`` (and
``<name>.err`` when stderr is not empty: ``gen``'s summary line, or the
error of a failing request).  The arrays that ``gen`` writes there are the
inputs of the ``simulate`` cases, so a change to a generator shows in its
own case first.  A case exits 0 unless ``EXIT_CODES`` says otherwise.
"""

from pathlib import Path

import pytest

from mapda.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

CASES = {
    "gen_mn_6_2": ["gen", "mn", "--users", "6", "--t", "2"],
    "gen_cyclic_8_5": ["gen", "cyclic", "--users", "8", "--t", "5"],
    "gen_replicate_mn_6_2_x2": ["gen", "replicate", "-i", "golden/gen_mn_6_2.out", "--copies", "2"],
    "gen_cyclic_4_2": ["gen", "cyclic", "--users", "4", "--t", "2"],
    # cyclic(8, 5): three slots serving all eight users, one family.
    "simulate_cyclic_8_5_exact": [
        "simulate", "golden/gen_cyclic_8_5.out", "-N", "2",
        "--channel", "vandermonde_3x8.txt", "--scalar", "exact",
    ],
    "simulate_cyclic_8_5_float": [
        "simulate", "golden/gen_cyclic_8_5.out", "-N", "2", "--scalar", "float", "--seed", "4",
    ],
    # Every slot of replicate(mn(6, 2), 2) serves users no other slot serves.
    "simulate_mn_6_2_x2_float": [
        "simulate", "golden/gen_replicate_mn_6_2_x2.out", "-N", "2", "--scalar", "float",
        "--seed", "2",
    ],
    "simulate_example1_exact": [
        "simulate", "example1.mapda", "-N", "6", "--channel", "channel_2x6.txt",
        "--scalar", "exact",
    ],
    "simulate_example1_float": [
        "simulate", "example1.mapda", "-N", "6", "--channel", "channel_2x6.txt",
        "--scalar", "float",
    ],
    "compare_table_points": ["compare", "--points", "table_points.txt"],
    "validate_mn_6_2_L1": ["validate", "golden/gen_mn_6_2.out", "-L", "1"],
    # Failing validations.  The benchmark catalog's C4 reject: the doubled
    # mn(6, 2) at one antenna.
    "validate_replicate_mn_6_2_x2_L1": [
        "validate", "golden/gen_replicate_mn_6_2_x2.out", "-L", "1",
    ],
    # C3 fails twice, yet every slot fills t + L = 3 cells: regular, though
    # each slot's column mask has only two bits.
    "validate_c3_repeat_regular_L2": ["validate", "c3_repeat_regular.mapda", "-L", "2"],
    # The table, then the plot CSV, both on stdout.
    "sweep_20_4": ["sweep", "-K", "20", "-L", "4", "--plot-out", "-"],
    # Scheme 1's plot column at a set m: blank where m = 4 does not divide t.
    "sweep_120_8_m4_plot": ["sweep", "-K", "120", "-L", "8", "--m", "4", "--plot-out", "-"],
    # The benchmark catalog's sweep: 140 rows, one of them (ratio 3/50) a
    # published point whose cells are flagged.
    "sweep_150_10": ["sweep", "-K", "150", "-L", "10"],
    # Failing deliveries: the error names the slot and column.
    "simulate_no_cacher": [
        "simulate", "no_cacher.mapda", "-N", "1", "--channel", "channel_1x2.txt",
    ],
    "simulate_mn_4_1_L2": [
        "simulate", "mn_4_1_L2.mapda", "-N", "2", "--scalar", "float", "--seed", "1",
    ],
    "simulate_cyclic_4_2_equal_users_exact": [
        "simulate", "golden/gen_cyclic_4_2.out", "-N", "2",
        "--channel", "channel_2x4_equal_users_1_2.txt", "--scalar", "exact",
    ],
    "simulate_cyclic_4_2_equal_users_float": [
        "simulate", "golden/gen_cyclic_4_2.out", "-N", "2",
        "--channel", "channel_2x4_equal_users_1_2.txt", "--scalar", "float",
    ],
    # One family: slot 1 delivers, slot 2 fails on the family's shared solves.
    "simulate_cyclic_9_5_isomorph_exact": [
        "simulate", "cyclic_9_5_isomorph.mapda", "-N", "2",
        "--channel", "channel_4x9_equal_users_1_2.txt", "--scalar", "exact",
    ],
    # The benchmark's two delivery shapes.  replicate(mn(10, 3), 3): 210
    # slots of 12 users in 4 cache groups, on floats.
    "gen_mn_10_3": ["gen", "mn", "-K", "10", "--t", "3"],
    "gen_replicate_mn_10_3_x3": ["gen", "replicate", "-i", "golden/gen_mn_10_3.out", "--copies", "3"],
    "simulate_mn_10_3_x3_float": [
        "simulate", "golden/gen_replicate_mn_10_3_x3.out", "-N", "4", "--scalar", "float",
        "--demands", "random", "--seed", "5",
    ],
    # cyclic(16, 8): 8 slots serving all 16 users, one family of 16 systems.
    "gen_cyclic_16_8": ["gen", "cyclic", "-K", "16", "--t", "8"],
    "simulate_cyclic_16_8_exact": [
        "simulate", "golden/gen_cyclic_16_8.out", "-N", "4", "--channel", "vandermonde_8x16.txt",
    ],
}

EXIT_CODES = {
    "validate_replicate_mn_6_2_x2_L1": 1,
    "validate_c3_repeat_regular_L2": 1,
    "simulate_no_cacher": 1,
    "simulate_mn_4_1_L2": 1,
    "simulate_cyclic_4_2_equal_users_exact": 1,
    "simulate_cyclic_4_2_equal_users_float": 1,
    "simulate_cyclic_9_5_isomorph_exact": 1,
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.delenv("MAPDA_SEED", raising=False)
    assert main(CASES[name]) == EXIT_CODES.get(name, 0)
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    err = GOLDEN / f"{name}.err"
    assert captured.err == (err.read_text(encoding="utf-8") if err.exists() else "")
