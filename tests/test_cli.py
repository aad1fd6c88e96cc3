"""Command-line behavior: exit codes, piping, determinism."""

import io
import json
import time
from pathlib import Path

from mapda import metrics
from mapda.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE1 = str(FIXTURES / "example1.mapda")
CHANNEL = str(FIXTURES / "channel_2x6.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate", EXAMPLE1, "--antennas", "2")
        assert code == 0
        assert "(2,6,3,1,3) MAPDA, t=2, sum-DoF=4" in out

    def test_c4_failure(self, capsys):
        code, out, _ = run_cli(capsys, "validate", EXAMPLE1, "--antennas", "1")
        assert code == 1
        assert "C4 violated at s=1" in out

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.mapda"
        bad.write_text("1 2 2 - -\n* 0\n1 *\n")
        code, _, err = run_cli(capsys, "validate", str(bad), "--antennas", "1")
        assert code == 2
        assert "error" in err

    def test_header_disagreeing_with_body(self, capsys, tmp_path):
        bad = tmp_path / "bad.mapda"
        # F=3 with two rows names the header; K=3 with two entries names the row.
        for text, where in (("1 2 3 - -\n* 1\n1 *\n", "line 1:"), ("1 3 2 - -\n* 1\n1 *\n", "line 2:")):
            bad.write_text(text)
            code, _, err = run_cli(capsys, "validate", str(bad), "--antennas", "1")
            assert code == 2
            assert where in err
        # A declared Z or S the grid contradicts fails validate as it fails simulate.
        for text, failure in (
            ("1 2 2 2 -\n* 1\n1 *\n", "header declares Z=2 but grid has Z=1"),
            ("1 2 2 - 9\n* 1\n1 *\n", "header declares S=9 but grid has S=1"),
        ):
            bad.write_text(text)
            code, out, _ = run_cli(capsys, "validate", str(bad), "--antennas", "1")
            assert code == 1
            assert failure in out.splitlines()
            assert "MAPDA" not in out
            code, _, err = run_cli(capsys, "simulate", str(bad), "--files", "2")
            assert code == 1
            assert failure in err

    def test_huge_slot_id_bounded_output(self, capsys, tmp_path):
        path = tmp_path / "huge.mapda"
        path.write_text(f"1 2 1 - -\n* {10**9}\n")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "validate", str(path), "--antennas", "1")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert f"and {10**9 - 11} more" in out
        assert len(out) < 1024

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "/no/such/file", "--antennas", "1")
        assert code == 2


class TestGen:
    def test_pipe_composition(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "gen", "mn", "--users", "3", "--t", "1")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, err = run_cli(capsys, "gen", "replicate", "--copies", "2")
        assert code == 0
        assert out2 == Path(EXAMPLE1).read_text().partition("pattern\n")[2]
        assert "(2, 6, 3, 1, 3)" in err

    def test_cyclic_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "cyc.mapda"
        code, _, err = run_cli(
            capsys, "gen", "cyclic", "--users", "6", "--t", "3", "--out", str(out_path)
        )
        assert code == 0
        assert "(3, 6, 6, 3, 3)" in err
        code, out, _ = run_cli(capsys, "validate", str(out_path), "--antennas", "3")
        assert code == 0

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "gen", "mn", "--users", "2", "--t", "2")
        assert code == 1
        assert "error" in err

    def test_replicate_from_file(self, capsys, tmp_path):
        base = tmp_path / "base.mapda"
        run_cli(capsys, "gen", "mn", "--users", "2", "--t", "1", "--out", str(base))
        code, out, err = run_cli(
            capsys, "gen", "replicate", "--input", str(base), "--copies", "3"
        )
        assert code == 0
        assert out.splitlines()[0] == "3 6 2 1 1"


class TestSimulate:
    def test_exact_fixture_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--channel", CHANNEL
        )
        assert code == 0
        report = json.loads(out)
        assert report["ndt_ul"] == "1"
        assert report["ndt_dl"] == "1"
        assert report["ops_model"] == 264
        assert [s["s"] for s in report["slots"]] == [1, 2, 3]
        assert all(s["feasible"] for s in report["slots"])
        assert all(s["residual_max"] == 0 for s in report["slots"])

    def test_float_run_residual(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            EXAMPLE1,
            "--files",
            "6",
            "--channel",
            CHANNEL,
            "--scalar",
            "float",
            "--seed",
            "1",
        )
        assert code == 0
        report = json.loads(out)
        assert max(s["residual_max"] for s in report["slots"]) <= 1e-8

    def test_seeded_random_channel(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--seed", "3"
        )
        assert code == 0

    def test_force_low_density_infeasible(self, capsys, tmp_path):
        path = tmp_path / "mn_l2.mapda"
        path.write_text("2 3 3 1 3\n* 1 2\n1 * 3\n2 3 *\n")
        code, _, err = run_cli(capsys, "simulate", str(path), "--files", "3")
        assert code == 1
        assert "slot 1" in err
        assert "t=1" in err
        assert "L=2" in err

    def test_demand_list(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            EXAMPLE1,
            "--files",
            "2",
            "--channel",
            CHANNEL,
            "--demands",
            "1,2,1,2,1,2",
        )
        assert code == 0

    def test_bad_demands_exit(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "2", "--demands", "1,2"
        )
        assert code == 1

    def test_exact_needs_rational_fixture(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--scalar", "exact"
        )
        assert code == 1
        assert "exact backend" in err

    def test_float_channel_fixture_refused_on_exact_backend(self, capsys, tmp_path):
        channel = tmp_path / "channel.txt"
        channel.write_text("2 6\n1.0 1 1 1 1 1\n2 3 6 4 5 7\n")
        code, out, err = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--channel", str(channel),
            "--scalar", "exact",
        )
        assert (code, out) == (1, "")
        assert err == "error: channel fixture holds floats; cannot run the exact backend\n"

    def test_float_library_fixture_refused_on_exact_backend(self, capsys, tmp_path):
        library = tmp_path / "library.txt"
        library.write_text("6 3\n1.5 2 3\n" + "4 5 6\n" * 5)
        code, out, err = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--channel", CHANNEL,
            "--library", str(library),
        )
        assert (code, out) == (1, "")
        assert err == "error: library fixture holds floats; cannot run the exact backend\n"

    def test_rational_fixtures_widened_on_float_backend(self, capsys, tmp_path):
        library = tmp_path / "library.txt"
        library.write_text(
            "6 3\n1/2 2 3\n4 5 6\n7 8 9\n10 11 12\n13 14 15\n16 17 18\n"
        )
        code, out, err = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--channel", CHANNEL,
            "--library", str(library), "--scalar", "float",
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"ndt_ul": "1", "ndt_dl": "1", "slots": ['
            '{"s": 1, "served": [1, 2, 4, 5], "feasible": true, '
            '"residual_max": 7.815970093361102e-14}, '
            '{"s": 2, "served": [1, 3, 4, 6], "feasible": true, '
            '"residual_max": 3.836930773104541e-13}, '
            '{"s": 3, "served": [2, 3, 5, 6], "feasible": true, '
            '"residual_max": 1.8758328224066645e-12}], '
            '"ops_measured": {"precoder_synthesis": {"mul": 234, "add": 120}, '
            '"uplink_encode": {"mul": 48, "add": 36}, '
            '"bs_forward": {"mul": 24, "add": 18}, '
            '"user_decode": {"mul": 60, "add": 36}}, "ops_model": 264}\n'
        )

    def test_channel_wider_than_array_exit(self, capsys, tmp_path):
        wide = tmp_path / "channel_2x7.txt"
        wide.write_text("2 7\n1 1 1 1 1 1 1\n2 3 4 5 6 7 8\n")
        code, out, err = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--channel", str(wide)
        )
        assert code == 1
        assert out == ""
        assert "channel has 7 columns, expected one per user (6)" in err

    def test_non_finite_fixture_entry_exit_2(self, capsys, tmp_path):
        channel = tmp_path / "channel.txt"
        channel.write_text("2 6\n1 1 1 1 1 1\n2 3 nan 5 6 7\n")
        library = tmp_path / "library.txt"
        library.write_text("6 3\n" + "1 2 3\n" * 5 + "1 1e999 3\n")
        for option, path, line in (("--channel", channel, 3), ("--library", library, 7)):
            code, out, err = run_cli(
                capsys, "simulate", EXAMPLE1, "--files", "6", option, str(path)
            )
            assert code == 2
            assert out == ""
            assert f"line {line}: non-finite entry" in err

    def test_library_fixture(self, capsys, tmp_path):
        lib = tmp_path / "library.txt"
        lib.write_text(
            "6 3\n" + "\n".join(" ".join(str(3 * n + f) for f in range(3)) for n in range(6)) + "\n"
        )
        code, out, _ = run_cli(
            capsys,
            "simulate",
            EXAMPLE1,
            "--files",
            "6",
            "--channel",
            CHANNEL,
            "--library",
            str(lib),
        )
        assert code == 0
        assert json.loads(out)["slots"][0]["residual_max"] == 0

    def test_random_demands_deterministic(self, capsys):
        args = (
            "simulate", EXAMPLE1, "--files", "6", "--channel", CHANNEL,
            "--demands", "random", "--seed", "9",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_stdin_pipe_into_simulate(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "gen", "cyclic", "--users", "4", "--t", "2")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run_cli(capsys, "simulate", "-", "--files", "4", "--seed", "2")
        assert code == 0
        assert json.loads(out2)["ndt_ul"] == "1/2"

    def test_degenerate_channel_retries_next_seed(self, capsys, monkeypatch):
        import mapda.engine as engine_mod
        from mapda.linalg import Matrix

        real_make_channel = engine_mod.make_channel

        def rigged(antennas, users, seed=0):
            if seed == 5:  # singular on the first try only
                return engine_mod.ChannelMatrix(
                    Matrix.from_rows(
                        [[1.0] * users for _ in range(antennas)], "float"
                    )
                )
            return real_make_channel(antennas, users, seed)

        monkeypatch.setattr("mapda.engine.make_channel", rigged)
        code, out, _ = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--seed", "5"
        )
        assert code == 0
        assert json.loads(out)["ndt_ul"] == "1"


class TestDeterminism:
    def test_identical_config_identical_stdout(self, capsys):
        args = ("simulate", EXAMPLE1, "--files", "6", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        _, flagged, _ = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--seed", "7"
        )
        monkeypatch.setenv("MAPDA_SEED", "7")
        _, via_env, _ = run_cli(
            capsys, "simulate", EXAMPLE1, "--files", "6", "--seed", "5"
        )
        assert via_env == flagged

    def test_non_integer_env_seed_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MAPDA_SEED", "abc")
        code, out, err = run_cli(capsys, "simulate", EXAMPLE1, "--files", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "MAPDA_SEED" in err and "'abc'" in err
        assert "Traceback" not in err


class TestCompare:
    def test_single_point_contains_worked_values(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--point", "6,1/3,2")
        assert code == 0
        row = out.splitlines()[1]
        assert "2115" in row
        assert "264" in row

    def test_points_file_rows_and_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--points", str(FIXTURES / "table_points.txt")
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10  # header + 9 rows
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        verified = {(r["K"], r["ratio"]): r for r in rows}
        assert verified[("20", "1/5")]["F_asmst"] == "2204475"
        assert "formula" in verified[("20", "2/5")]["flags"]

    def test_malformed_points_exit_2(self, capsys, tmp_path):
        for token in ("x,1/2,3", "6,1/3,2,y"):
            code, out, err = run_cli(capsys, "compare", "--point", token)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and repr(token) in err
        points = tmp_path / "points.txt"
        points.write_text("# K ratio L\n6 1/3 2\n\nfoo 1/3 2\n")
        code, out, err = run_cli(capsys, "compare", "--points", str(points))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 4: ")

    def test_grouping_size_below_one_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--point", "6,1/3,2,0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "m must be >= 1" in err
        assert "Traceback" not in err

    def test_empty_input_header_only(self, capsys, tmp_path):
        empty = tmp_path / "points.txt"
        empty.write_text("# nothing\n")
        code, out, _ = run_cli(capsys, "compare", "--points", str(empty))
        assert code == 0
        assert len(out.splitlines()) == 1


class TestSweep:
    def test_sweep_with_plot_data(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        plot_csv = tmp_path / "plot.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--users",
            "150",
            "--antennas",
            "10",
            "--t-min",
            "10",
            "--t-max",
            "60",
            "--out",
            str(out_csv),
            "--plot-out",
            str(plot_csv),
        )
        assert code == 0
        plot_lines = plot_csv.read_text().splitlines()
        assert plot_lines[0] == "ratio,log10_F_asmst,log10_F_s1,log10_F_s2,log10_F_s3"
        # The new schemes sit orders of magnitude below the baseline curve.
        for line in plot_lines[1:]:
            cells = line.split(",")
            base = float(cells[1])
            for cell in cells[2:]:
                if cell:
                    assert float(cell) < base
        assert len(out_csv.read_text().splitlines()) == 52

    def test_plot_data_blank_where_constraint_unmet(self, capsys, tmp_path):
        # The table prints K as F_s3 at every point, but the plot leaves the
        # cell blank unless L = K-t; every other scheme is blank where n/a.
        plot_csv = tmp_path / "plot.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "-K", "8", "-L", "2", "--t-max", "7", "--plot-out", str(plot_csv)
        )
        assert code == 0
        assert plot_csv.read_text() == (
            "ratio,log10_F_asmst,log10_F_s1,log10_F_s2,log10_F_s3\n"
            "1/8,1.681241,1.380211,2.225309,\n"
            "1/4,2.146128,0.602060,1.079181,\n"
            "3/8,2.350248,2.447158,2.447158,\n"
            "1/2,2.322219,0.778151,1.079181,\n"
            "5/8,2.049218,2.593286,1.748188,\n"
            "3/4,1.447158,,0.602060,0.903090\n"
            "7/8,,,,\n"
        )

    def test_plot_data_evaluates_each_scheme_once(self, capsys, tmp_path, monkeypatch):
        calls = {"asmst": 0, "scheme": 0}
        asmst_metrics, scheme_metrics = metrics.asmst_metrics, metrics.scheme_metrics

        def counting_asmst(p):
            calls["asmst"] += 1
            return asmst_metrics(p)

        def counting_scheme(p, which):
            calls["scheme"] += 1
            return scheme_metrics(p, which)

        monkeypatch.setattr(metrics, "asmst_metrics", counting_asmst)
        monkeypatch.setattr(metrics, "scheme_metrics", counting_scheme)
        counts = []
        for extra in ((), ("--plot-out", str(tmp_path / "plot.csv"))):
            calls.update(asmst=0, scheme=0)
            code, _, _ = run_cli(capsys, "sweep", "-K", "150", "-L", "10", *extra)
            assert code == 0
            counts.append(dict(calls))
        # t = 1..140: one baseline evaluation per point, with or without plot data.
        assert counts[0]["asmst"] == 140
        assert counts[1] == counts[0]

    def test_grouping_size_below_one_exit_1(self, capsys):
        # SystemPoint's K/L/m check runs once before the sweep loop, so a
        # bad m exits 1 even when the t range is empty.
        for m in ("0", "-2"):
            code, out, err = run_cli(
                capsys, "sweep", "--users", "10", "--antennas", "2", "--m", m
            )
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and f"got {m}" in err
            assert "Traceback" not in err

    def test_bad_user_or_antenna_count_exit_1(self, capsys):
        # Checked before any point is built: also where the t range is empty
        # (K=0, K=-3) and where Fraction(t, K) would divide by zero.
        for users, antennas, *extra in (
            ("10", "0"), ("0", "2"), ("-3", "2"), ("0", "2", "--t-max", "5")
        ):
            code, out, err = run_cli(
                capsys, "sweep", "--users", users, "--antennas", antennas, *extra
            )
            assert code == 1
            assert out == ""
            assert err == f"error: K and L must be >= 1, got K={users}, L={antennas}\n"

    def test_t_range_clamped_to_valid_ratios(self, capsys):
        code, wide, _ = run_cli(
            capsys, "sweep", "--users", "8", "--antennas", "2", "--t-min", "-3", "--t-max", "20"
        )
        assert code == 0
        code, clamped, _ = run_cli(
            capsys, "sweep", "--users", "8", "--antennas", "2", "--t-min", "1", "--t-max", "7"
        )
        assert code == 0
        assert wide == clamped
        assert len(clamped.splitlines()) == 8
