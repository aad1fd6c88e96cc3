"""Command-line behavior: exit codes, piping, determinism."""

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mapda import cli, metrics
from mapda.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE1 = str(FIXTURES / "example1.mapda")
CHANNEL = str(FIXTURES / "channel_2x6.txt")
SRC = Path(__file__).parents[1] / "src"


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

    @pytest.mark.parametrize("source", ["array file", "channel fixture", "stdin"])
    def test_byte_order_mark_ignored(self, capsys, monkeypatch, tmp_path, source):
        # Some editors begin a UTF-8 file with U+FEFF; each reader drops one.
        fixture = CHANNEL if source == "channel fixture" else EXAMPLE1
        path = tmp_path / "input.txt"
        results = []
        for mark in ("", "\ufeff"):
            text = mark + Path(fixture).read_text(encoding="utf-8")
            path.write_text(text, encoding="utf-8")
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            argv = {
                "array file": ("validate", str(path), "-L", "2"),
                "channel fixture": ("simulate", EXAMPLE1, "-N", "6", "--channel", str(path)),
                "stdin": ("validate", "-", "-L", "2"),
            }[source]
            results.append(run_cli(capsys, *argv))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert results[0][0] == 0
        assert results[1] == results[0]


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

    def test_underscore_integer_option_exit_2(self, capsys):
        # int() reads "1_0" as 10; an option refuses it, and "+3" stays an
        # integer.
        with pytest.raises(SystemExit) as exc:
            main(["gen", "mn", "-K", "1_0", "--t", "+3"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith("argument --users/-K: invalid int value: '1_0'\n")
        code, out, _ = run_cli(capsys, "gen", "mn", "-K", "5", "--t", "+3")
        assert code == 0 and out.startswith("1 5 10 6 5\n")

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "gen", "mn", "--users", "2", "--t", "2")
        assert code == 1
        assert "error" in err

    def test_over_long_integer_option_exit_2_names_the_digit_limit(self, capsys):
        # argparse quotes a bad option token whole; a 5000-digit K is quoted
        # in part and named past int()'s digit limit.
        with pytest.raises(SystemExit) as exc:
            main(["gen", "mn", "-K", "9" * 5000, "--t", "2"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err == (
            "usage: mapda gen mn [-h] --users USERS --t T [--out OUT]\n"
            "mapda gen mn: error: argument --users/-K: invalid int value: integer "
            f"{'9' * 40!r}... has 5000 digits, past Python's limit of "
            f"{sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())\n"
        )

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

    def test_overdetermined_column_infeasible(self, capsys, tmp_path):
        # Valid and irregular at t = L = 2: slot 1's column 1 (user 1's
        # packet at row 3, cached by user 3 alone) has one unknown and two
        # equations, users 1 and 2.
        path = tmp_path / "overdetermined.mapda"
        path.write_text("2 3 3 - -\n* * *\n* * 1\n1 1 *\n")
        code, out, err = run_cli(capsys, "simulate", str(path), "-N", "2")
        assert (code, out) == (1, "")
        assert err == "error: slot 1: column 1 has 1 unknowns but 2 equations and no solution\n"

    @pytest.mark.parametrize(
        "channel, library, message",
        [
            # Every Gram entry is inf, so every float pivot read as zero.
            ("1 2\n1e155 1e155\n", None, "the channel's Gram matrix H* H overflows"),
            # Some Gram entries are inf: the decode read nan.
            ("1 2\n1e160 1\n", None, "the channel's Gram matrix H* H overflows"),
            # A finite Gram, but the packets overflow on their way.
            ("1 2\n1.5 2.5\n", "1 2\n1.7e308 1.7e308\n", ": float overflow"),
        ],
    )
    def test_float_overflow_exit_1(self, capsys, tmp_path, channel, library, message):
        (tmp_path / "a.mapda").write_text("1 2 2 1 1\n* 1\n1 *\n")
        (tmp_path / "ch.txt").write_text(channel)
        argv = ["simulate", str(tmp_path / "a.mapda"), "--files", "1", "--channel", str(tmp_path / "ch.txt")]
        if library is not None:
            (tmp_path / "lib.txt").write_text(library)
            argv += ["--library", str(tmp_path / "lib.txt")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "channel", ["1 2\n1e-160 2e-160\n", "1 2\n1e-160 1\n"], ids=["both-users", "one-user"]
    )
    def test_float_underflow_exit_1(self, capsys, tmp_path, channel):
        # A user's squared channel norm is subnormal: named as the Gram
        # matrix's underflow, not as a rank-deficient system or a decode error.
        (tmp_path / "a.mapda").write_text("1 2 2 1 1\n* 1\n1 *\n")
        (tmp_path / "ch.txt").write_text(channel)
        argv = ["simulate", str(tmp_path / "a.mapda"), "--files", "1", "--channel", str(tmp_path / "ch.txt")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: the channel's Gram matrix H* H underflows the float range at user 1\n"

    @pytest.mark.parametrize("exponent", [20, 150])
    def test_float_precision_loss_exit_1(self, capsys, tmp_path, exponent):
        # User 1's channel is 10**-exponent of user 2's, so user 2 cancels a
        # term 10**exponent times user 1's packet, and floats keep no digit
        # of its own: named as precision loss, not blamed on the solver.
        # The exact backend decodes the same channel.
        (tmp_path / "a.mapda").write_text("1 2 2 1 1\n* 1\n1 *\n")
        argv = ["simulate", str(tmp_path / "a.mapda"), "--files", "1", "--channel", str(tmp_path / "ch.txt")]
        (tmp_path / "ch.txt").write_text(f"1 2\n1e-{exponent} 1\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: slot 1: user 2 loses its packet to float precision: decode error ")
        assert " is rounding of a cancelled term of " in err and "Traceback" not in err
        (tmp_path / "ch.txt").write_text(f"1 2\n1/{10**exponent} 1\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["slots"][0]["residual_max"] == 0

    def test_well_scaled_two_user_channel_output(self, capsys, tmp_path):
        (tmp_path / "a.mapda").write_text("1 2 2 1 1\n* 1\n1 *\n")
        (tmp_path / "ch.txt").write_text("1 2\n0.5 2\n")
        argv = ["simulate", str(tmp_path / "a.mapda"), "--files", "1", "--channel", str(tmp_path / "ch.txt")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (
            '{"ndt_ul": "1/2", "ndt_dl": "1/2", "slots": [{"s": 1, "served": [1, 2], '
            '"feasible": true, "residual_max": 7.771561172376096e-16}], "ops_measured": '
            '{"precoder_synthesis": {"mul": 10, "add": 0}, "uplink_encode": {"mul": 4, "add": 2}, '
            '"bs_forward": {"mul": 2, "add": 1}, "user_decode": {"mul": 6, "add": 2}}, '
            '"ops_model": 14}\n'
        )

    def test_small_and_large_float_channels_decode(self, capsys, tmp_path):
        # Float pivots are relative to each system's scale: a uniformly
        # scaled channel decodes at any scale whose Gram matrix is in range.
        (tmp_path / "a.mapda").write_text("1 2 2 1 1\n* 1\n1 *\n")
        outputs = []
        for scale in ("1", "1e-4", "1e-5", "1e-50", "1e-100", "1e100"):
            (tmp_path / "ch.txt").write_text(f"1 2\n{scale} {scale}\n")
            argv = ["simulate", str(tmp_path / "a.mapda"), "--files", "1", "--channel", str(tmp_path / "ch.txt")]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), scale
            report = json.loads(out)
            assert report["slots"][0]["residual_max"] <= 1.5e-14, scale
            outputs.append((report["ndt_ul"], report["ops_measured"]))
        assert outputs == [outputs[0]] * len(outputs)

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
        infinite = tmp_path / "infinite.txt"
        infinite.write_text("2 6\n1 1 1 1 1 1\n2 3 -inf 5 6 7\n")
        for option, path, line in (
            ("--channel", channel, 3), ("--library", library, 7), ("--channel", infinite, 3)
        ):
            code, out, err = run_cli(
                capsys, "simulate", EXAMPLE1, "--files", "6", option, str(path)
            )
            assert code == 2
            assert out == ""
            assert f"line {line}: non-finite entry" in err

    def test_long_integer_token_exit_2_names_the_digit_limit(self, capsys, tmp_path):
        # int() refuses a 5000-digit token at Python's digit limit, and
        # float() would read it as inf: the entry is finite but too long.
        long = "7" * 5000
        channel = tmp_path / "channel.txt"
        channel.write_text(f"2 6\n1 1 1 1 1 1\n2 3 {long} 5 6 7\n")
        rational = tmp_path / "rational.txt"
        rational.write_text(f"2 6\n1 1 1 1 1 1\n2 3 4 5 6 1/{long}\n")
        library = tmp_path / "library.txt"
        library.write_text("6 3\n" + "1 2 3\n" * 4 + f"1 -{long} 3\n" + "1 2 3\n")
        array = tmp_path / "array.mapda"
        array.write_text(f"2 6 3 1 3\n* 1 2 * 1 2\n1 * {long} 1 * 3\n2 3 * 2 3 *\n")
        limit = sys.get_int_max_str_digits()
        for argv, line in (
            (("simulate", EXAMPLE1, "-N", "6", "--channel", str(channel)), 3),
            (("simulate", EXAMPLE1, "-N", "6", "--channel", str(rational)), 3),
            (("simulate", EXAMPLE1, "-N", "6", "--library", str(library)), 6),
            (("simulate", str(array), "-N", "6"), 3),
            (("validate", str(array), "-L", "2"), 3),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: line {line}: integer '"), err
            assert f"has 5000 digits, past Python's limit of {limit}" in err
            assert len(err.encode()) < 200, err

    def test_bad_token_is_quoted_in_part(self, capsys, tmp_path):
        token = "x" * 5000
        channel = tmp_path / "channel.txt"
        channel.write_text(f"2 6\n1 1 1 1 1 1\n2 3 {token} 5 6 7\n")
        array = tmp_path / "array.mapda"
        array.write_text(f"2 6 3 1 3\n* 1 2 * 1 2\n1 * {token} 1 * 3\n2 3 * 2 3 *\n")
        for argv, message in (
            (("simulate", EXAMPLE1, "-N", "6", "--channel", str(channel)), "line 3: bad scalar"),
            (("validate", str(array), "-L", "2"), "line 3: bad entry"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: {message} {token[:40]!r}...\n"

    def test_wide_two_row_array_refused_at_the_gram_bound(self, capsys, tmp_path):
        # K = 20000 users in two rows; slot s serves users 2s - 1 and 2s, and
        # each row holds 10000 stars.  Mapping a slot's cachers walks its two
        # users, not a row's stars, so the run reaches the Gram bound after
        # 10000 slots are built.
        users = 20000
        array = tmp_path / "array.mapda"
        array.write_text(
            f"1 {users} 2 1 {users // 2}\n"
            + "".join(
                " ".join(str(k // 2 + 1) if k % 2 == row else "*" for k in range(users)) + "\n"
                for row in (0, 1)
            )
        )
        code, out, err = run_cli(capsys, "simulate", str(array), "-N", "2")
        assert (code, out) == (1, "")
        assert err == (
            f"error: the Gram matrix of {users} users needs at least {users} x {users} = "
            f"{users * users} cells, limit 1000000\n"
        )

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

    def test_points_file_with_byte_order_mark(self, capsys, tmp_path):
        # Points lines are read as table lines are: one leading U+FEFF, as
        # some editors write, is dropped.
        text = (FIXTURES / "table_points.txt").read_text(encoding="utf-8")
        tables = []
        for prefix in ("", "\ufeff"):
            points = tmp_path / "points.txt"
            points.write_text(prefix + text, encoding="utf-8")
            tables.append(run_cli(capsys, "compare", "--points", str(points)))
        assert tables[1] == tables[0]
        assert tables[0][0] == 0 and len(tables[0][1].splitlines()) == 10

    def test_underscore_or_non_ascii_number_exit_2(self, capsys):
        # int() and Fraction() read "1_0" as 10 and "\u0663" as 3; a point
        # refuses both, in K and in the ratio.
        for token in ("1_0,1/5,4", "\u0663,1/3,2", "20,1_0/50,4", "6,1/\u0663,2", "6,1e0_0,2"):
            code, out, err = run_cli(capsys, "compare", "--point", token)
            assert (code, out) == (2, ""), token
            assert err.startswith("error: ") and "Traceback" not in err

    def test_grouping_size_below_one_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--point", "6,1/3,2,0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "m must be >= 1" in err
        assert "Traceback" not in err

    def test_over_long_point_token_exit_2_names_the_digit_limit(self, capsys):
        # A 5000-digit L is not "not an integer" but past int()'s digit
        # limit, and the message quotes the token in part.
        token = "6,1/3," + "7" * 5000
        code, out, err = run_cli(capsys, "compare", "--point", token)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: point {token[:40]!r}...: integer '777"), err
        limit = sys.get_int_max_str_digits()
        assert f"has 5000 digits, past Python's limit of {limit}" in err
        assert len(err.encode()) < 250, err

    def test_long_ratio_denominator_cut_in_message(self, capsys):
        # t = 6 * 10**-4000 = 3 / (5 * 10**3999), a 4000-digit denominator.
        code, out, err = run_cli(capsys, "compare", "--point", "6,1e-4000,2")
        assert (code, out) == (1, "")
        denominator = "50000000000000000000... (4000 digits)"
        assert err == f"error: t = K*M/N = 3/{denominator} is not an integer\n"

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
        # The hook sits on the table's calculators, which the rows call.
        calls = dict.fromkeys(metrics.TABLE_SCHEMES, 0)

        def counting(tag, calculate):
            def count(p):
                calls[tag] += 1
                return calculate(p)
            return count

        for tag, calculate in list(metrics.TABLE_SCHEMES.items()):
            monkeypatch.setitem(metrics.TABLE_SCHEMES, tag, counting(tag, calculate))
        counts = []
        for extra in ((), ("--plot-out", str(tmp_path / "plot.csv"))):
            calls.update(dict.fromkeys(calls, 0))
            code, _, _ = run_cli(capsys, "sweep", "-K", "150", "-L", "10", *extra)
            assert code == 0
            counts.append(dict(calls))
        # t = 1..140: one evaluation of each scheme per point, baseline
        # included, with or without plot data.
        assert counts[0]["asmst"] == 140
        assert set(counts[0].values()) == {140}
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

    def test_long_user_count_cut_in_message(self, capsys):
        # K = 10**4300 - 1, and t = 5 gives the ratio 5/K.
        nines = "99999999999999999999... (4300 digits)"
        code, out, err = run_cli(
            capsys, "sweep", "-K", "9" * 4300, "--t-min", "5", "--t-max", "5", "-L", "2"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: point K={nines}, ratio 5/{nines}, L=2 has a figure of 2**1024 or more, "
            "past the float range of the table's scientific cells\n"
        )

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


class TestAllocationBound:
    # Each request asks for hundreds of millions of cells or table rows, or
    # for a table row whose figures pass the float range of its scientific
    # cells, or for a number past Python's int/str digit limit, or gives a
    # header or number that its one-line message must cut.  The child
    # runs under a 400 MB address-space limit, so a missing size check ends
    # there in a MemoryError traceback instead of exhausting the host.
    NINES = "9" * 4299
    SHORT = "99999999999999999999... (4299 digits)"  # how a message cuts NINES
    LONG = "9" * 4300  # the longest integer int() reads
    CUT = "99999999999999999999... (4300 digits)"  # how a message cuts LONG
    LIMIT = sys.get_int_max_str_digits()
    ROWS = "* 1 2 * 1 2\n1 * 3 1 * 3\n2 3 * 2 3 *\n"  # the body of EXAMPLE1
    CASES = {
        "mn_k26_t13": (
            ["gen", "mn", "--users", "26", "--t", "13"],
            "mn(26, 13) needs at least 10400600 x 26 = 270415600 cells, limit 1000000",
        ),
        # F = C(2000, 3) is never formed: F >= K already puts K x K over.
        "mn_k2000": (
            ["gen", "mn", "--users", "2000", "--t", "3"],
            "mn(2000, 3) needs at least 2000 x 2000 = 4000000 cells, limit 1000000",
        ),
        "cyclic_k2000": (
            ["gen", "cyclic", "--users", "2000", "--t", "3"],
            "cyclic(2000, 3) needs at least 2000 x 2000 = 4000000 cells, limit 1000000",
        ),
        "replicate": (
            ["gen", "replicate", "-i", EXAMPLE1, "--copies", "100000000"],
            "100000000 copies of the array needs at least 3 x 600000000 = 1800000000 cells, "
            "limit 1000000",
        ),
        "library": (
            ["simulate", EXAMPLE1, "-N", "100000000"],
            "a library of 100000000 files needs at least 100000000 x 3 = 300000000 cells, "
            "limit 1000000",
        ),
        "sweep": (
            ["sweep", "-K", "100000000", "-L", "4"],
            "sweep of t = 1..99999996 needs 99999996 rows, limit 1000",
        ),
        # F_asmst = C(1100, 550) C(545, 3) fits an int but not a float.
        "compare_row_past_float_range": (
            ["compare", "--point", "1100,1/2,4"],
            "point K=1100, ratio 1/2, L=4 has a figure of 2**1024 or more, past the float "
            "range of the table's scientific cells",
        ),
        # C(20000, 10000) has about 6000 digits: refused before it is formed.
        "sweep_row_past_digit_limit": (
            ["sweep", "-K", "20000", "--t-min", "10000", "--t-max", "10000", "-L", "4"],
            "point K=20000, ratio 1/2, L=4 has a figure of 2**1024 or more, past the float "
            "range of the table's scientific cells",
        ),
        # C(10**7, 5 * 10**6) would take many seconds to form.
        "sweep_row_unbounded_binomial": (
            ["sweep", "-K", "10000000", "--t-min", "5000000", "--t-max", "5000000", "-L", "4"],
            "point K=10000000, ratio 1/2, L=4 has a figure of 2**1024 or more, past the float "
            "range of the table's scientific cells",
        ),
        # Slot s serves users 2s - 1 and 2s of K = 4000, yet the Gram matrix
        # spans all K users.
        "simulate_gram_k4000": (
            ["simulate", "ARRAY", "-N", "2"],
            "the Gram matrix of 4000 users needs at least 4000 x 4000 = 16000000 cells, "
            "limit 1000000",
        ),
        # t = 1 < L refuses slot 1, but only after the channel is drawn.
        "simulate_channel_l1e8": (
            ["simulate", "ARRAY", "-N", "2"],
            "a channel of 100000000 antennas needs at least 100000000 x 2 = 200000000 cells, "
            "limit 1000000",
        ),
        # The cell counts below have more digits than str() prints.
        "mn_k_4299_digits": (
            ["gen", "mn", "-K", NINES, "--t", "2"],
            f"mn({SHORT}, 2) needs at least {SHORT} x {SHORT} = "
            "99999999999999999999... (8598 digits) cells, limit 1000000",
        ),
        "cyclic_k_4299_digits": (
            ["gen", "cyclic", "-K", NINES, "--t", "2"],
            f"cyclic({SHORT}, 2) needs at least {SHORT} x {SHORT} = "
            "99999999999999999999... (8598 digits) cells, limit 1000000",
        ),
        "replicate_4299_digit_copies": (
            ["gen", "replicate", "-i", EXAMPLE1, "--copies", NINES],
            f"{SHORT} copies of the array needs at least 3 x "
            "59999999999999999999... (4300 digits) = 17999999999999999999... (4301 digits) "
            "cells, limit 1000000",
        ),
        "library_4300_digit_files": (
            ["simulate", EXAMPLE1, "-N", "9" * 4300],
            "a library of 99999999999999999999... (4300 digits) files needs at least "
            "99999999999999999999... (4300 digits) x 3 = 29999999999999999999... "
            "(4301 digits) cells, limit 1000000",
        ),
        # The t range is longer than len(range) can count.
        "sweep_k_1e20": (
            ["sweep", "-K", "100000000000000000000", "-L", "2"],
            "sweep of t = 1..99999999999999999998 needs 99999999999999999998 rows, limit 1000",
        ),
        # Fraction would build 10**100000 (or 10**1000000000), and the
        # str() of 1/10**100000 in a message fails.
        "compare_ratio_1e-100000": (
            ["compare", "--point", "6,1e-100000,2"],
            f"memory ratio '1e-100000' needs up to 100001 digits, past Python's limit of "
            f"{LIMIT} (sys.get_int_max_str_digits())",
        ),
        "compare_ratio_1e-1000000000": (
            ["compare", "--point", "6,1e-1000000000,2"],
            f"memory ratio '1e-1000000000' needs up to 1000000001 digits, past Python's "
            f"limit of {LIMIT} (sys.get_int_max_str_digits())",
        ),
        # Each number below is 4300 digits long, or negative and as long.
        "mn_t_minus_4300_digits": (
            ["gen", "mn", "-K", "5", "--t", f"-{LONG}"],
            f"need 1 <= t < K, got t=-{CUT}, K=5",
        ),
        "cyclic_k_t_4300_digits": (
            ["gen", "cyclic", "-K", LONG, "--t", LONG],
            f"need 1 <= t < K, got t={CUT}, K={CUT}",
        ),
        "replicate_minus_4300_digit_copies": (
            ["gen", "replicate", "-i", EXAMPLE1, "--copies", f"-{LONG}"],
            f"copies must be >= 1, got -{CUT}",
        ),
        "validate_minus_4300_digit_antennas": (
            ["validate", EXAMPLE1, "-L", f"-{LONG}"],
            f"antenna count must be >= 1, got -{CUT}",
        ),
        "array_entry_minus_4300_digits": (
            ["validate", "ARRAY", "-L", "2"],
            f"line 3: slot ids start at 1, got -{CUT}",
        ),
        "array_rows_4300_digits": (
            ["validate", "ARRAY", "-L", "2"],
            f"line 1: header declares {CUT} rows, found 3",
        ),
        "array_cols_4300_digits": (
            ["validate", "ARRAY", "-L", "2"],
            f"line 2: expected {CUT} entries, found 6",
        ),
        "array_z_s_4300_digits": (
            ["simulate", "ARRAY", "-N", "2"],
            f"header declares Z={CUT} but grid has Z=1; header declares S={CUT} but grid has S=3",
        ),
        "simulate_minus_4300_digit_files": (
            ["simulate", EXAMPLE1, "-N", f"-{LONG}"],
            f"library size must be >= 1, got -{CUT}",
        ),
        "simulate_4300_digit_demand": (
            ["simulate", EXAMPLE1, "-N", "2", "--demands", f"1,1,1,1,1,{LONG}"],
            f"demand {CUT} outside library [1..2]",
        ),
        "sweep_k_4300_digits": (
            ["sweep", "-K", LONG, "-L", "1"],
            f"sweep of t = 1..{CUT} needs {CUT} rows, limit 1000",
        ),
        "array_header_field_5000_digits": (
            ["validate", "ARRAY", "-L", "2"],
            f"line 1: integer {'9' * 40!r}... has 5000 digits, past Python's limit of {LIMIT} "
            "(sys.get_int_max_str_digits())",
        ),
        "array_header_100000_fields": (
            ["validate", "ARRAY", "-L", "2"],
            f"line 1: header must be 'L K F Z S', got {'1 ' * 20!r}...",
        ),
        # A shape count below 1 is refused at the header line.
        "channel_no_rows": (
            ["simulate", EXAMPLE1, "-N", "2", "--channel", "ARRAY"],
            "line 1: L and K must be >= 1, got L=0, K=2",
        ),
        "array_no_rows_or_columns": (
            ["validate", "ARRAY", "-L", "1"],
            "line 1: F and K must be >= 1, got F=0, K=0",
        ),
        "array_negative_columns": (
            ["validate", "ARRAY", "-L", "1"],
            "line 1: F and K must be >= 1, got F=1, K=-2",
        ),
        # int(), float() and Fraction() read "1_0" as 10; each reader of a
        # number from outside refuses it, by its own message.
        "array_header_underscore": (
            ["validate", "ARRAY", "-L", "2"],
            "line 1: non-integer header field '1_0'",
        ),
        "array_entry_underscore": (
            ["validate", "ARRAY", "-L", "2"],
            "line 3: bad entry '1_0'",
        ),
        "channel_entry_underscore": (
            ["simulate", EXAMPLE1, "-N", "2", "--channel", "ARRAY"],
            "line 3: bad scalar '1_0.5'",
        ),
        "compare_ratio_underscore": (
            ["compare", "--point", "20,1_0/50,4"],
            "bad memory ratio '1_0/50'",
        ),
    }
    # A parse error exits 2; every other case exits 1.
    EXIT_CODES = {
        name: 2
        for name in (
            "compare_ratio_1e-100000",
            "compare_ratio_1e-1000000000",
            "array_entry_minus_4300_digits",
            "array_rows_4300_digits",
            "array_cols_4300_digits",
            "array_header_field_5000_digits",
            "array_header_100000_fields",
            "channel_no_rows",
            "array_no_rows_or_columns",
            "array_negative_columns",
            "array_header_underscore",
            "array_entry_underscore",
            "channel_entry_underscore",
            "compare_ratio_underscore",
        )
    }
    # The file each case reads in place of ARRAY: an array file, or the
    # channel fixture of "channel_no_rows".
    ARRAYS = {
        "simulate_gram_k4000": "1 4000 2 1 2000\n"
        + "".join(
            " ".join(str(k // 2 + 1) if k % 2 == row else "*" for k in range(4000)) + "\n"
            for row in (0, 1)
        ),
        "simulate_channel_l1e8": "100000000 2 2 1 1\n* 1\n1 *\n",
        "array_entry_minus_4300_digits": (
            f"2 6 3 1 3\n* 1 2 * 1 2\n1 * -{LONG} 1 * 3\n2 3 * 2 3 *\n"
        ),
        "array_rows_4300_digits": f"2 6 {LONG} 1 3\n{ROWS}",
        "array_cols_4300_digits": f"2 {LONG} 3 1 3\n{ROWS}",
        "array_z_s_4300_digits": f"2 6 3 {LONG} {LONG}\n{ROWS}",
        "array_header_field_5000_digits": f"2 6 {'9' * 5000} 1 3\n{ROWS}",
        "array_header_100000_fields": "1 " * 100000 + f"\n{ROWS}",
        "channel_no_rows": "0 2\n",
        "array_no_rows_or_columns": "1 0 0 - -\n",
        "array_negative_columns": "1 -2 1 - -\n* *\n",
        "array_header_underscore": f"2 6 3 1_0 3\n{ROWS}",
        "array_entry_underscore": "2 6 3 1 3\n* 1 2 * 1 2\n1 * 1_0 1 * 3\n2 3 * 2 3 *\n",
        "channel_entry_underscore": "2 6\n1 2 3 4 5 6\n1 1_0.5 1 1 1 1\n",
    }

    @staticmethod
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    @pytest.mark.parametrize("name", CASES)
    def test_refused_before_allocating(self, name, tmp_path):
        argv, message = self.CASES[name]
        if name in self.ARRAYS:
            array = tmp_path / "array.mapda"
            array.write_text(self.ARRAYS[name], encoding="utf-8")
            argv = [str(array) if arg == "ARRAY" else arg for arg in argv]
        env = {k: v for k, v in os.environ.items() if k != "MAPDA_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        main_code = "import sys; from mapda.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", main_code, *argv],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=self.limit_address_space,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (self.EXIT_CODES.get(name, 1), ""), proc.stderr
        assert proc.stderr == f"error: {message}\n"


class TestParserReuse:
    def test_one_parser_per_process_keeps_no_state(self, capsys, monkeypatch, tmp_path):
        plot = tmp_path / "plot.csv"
        example = Path(EXAMPLE1).read_text()
        simulate = ("simulate", EXAMPLE1, "--files", "3")
        compare = ("compare", "--point", "20,1/5,4", "--point", "6,1/3,2")
        # (argv, MAPDA_SEED, stdin text)
        calls = [
            (("validate", EXAMPLE1, "--antennas", "2"), None, None),
            (("validate", EXAMPLE1), None, None),  # argparse error: -L missing
            (("gen", "mn", "--users", "4", "--t", "2"), None, None),
            (("sweep", "-K", "8", "-L", "2"), None, None),
            (("sweep", "-K", "8", "-L", "2", "--plot-out", str(plot)), None, None),
            (compare, None, None),
            (compare, None, None),
            (("compare", "--point", "12,1/2,4,3"), None, None),
            (simulate, "5", None),
            (simulate, None, None),
            (("validate", "-", "-L", "2"), None, example),
        ]
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())

        def run(fresh):
            results = []
            for argv, seed, stdin in calls:
                if seed is None:
                    monkeypatch.delenv("MAPDA_SEED", raising=False)
                else:
                    monkeypatch.setenv("MAPDA_SEED", seed)
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
                if fresh:
                    cli._parser.cache_clear()
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                written = plot.read_text() if plot.exists() else None
                plot.unlink(missing_ok=True)
                results.append((code, captured.out, captured.err, written))
            return results

        try:
            cli._parser.cache_clear()
            reused = run(fresh=False)
            assert len(built) == 1
            fresh = run(fresh=True)
            assert len(built) == 1 + len(calls)
        finally:
            cli._parser.cache_clear()
        assert reused == fresh
        codes = [code for code, *_ in reused]
        assert codes == [0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert reused[1][2].startswith("usage: mapda validate")
        assert reused[4][3].startswith("ratio,log10_F_asmst")
        assert len(reused[6][1].splitlines()) == 3  # header and the two points
        assert len(reused[7][1].splitlines()) == 2
        assert reused[8][1] != reused[9][1]  # MAPDA_SEED read on each call
        assert reused[10][1] == reused[0][1]
