"""Closed-form scheme calculators and the comparison table."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapda import metrics
from mapda.arrays import DomainError, generate_cyclic
from mapda.metrics import (
    ConstraintViolation,
    SystemPoint,
    admissible_m_values,
    asmst_metrics,
    best_m,
    ratio_asymptotics,
    scheme_metrics,
    sci,
    silence_antennas,
    table_report,
    table_row,
)


def point(users, ratio, antennas, m=None):
    return SystemPoint(users, antennas, Fraction(ratio), m)


class TestSystemPoint:
    def test_non_integer_t_rejected(self):
        with pytest.raises(DomainError):
            SystemPoint(5, 2, Fraction(1, 3))

    def test_derived_values(self):
        p = point(20, "1/5", 4)
        assert p.t == 4
        assert p.alpha == 4

    def test_ratio_bounds(self):
        with pytest.raises(DomainError):
            SystemPoint(4, 2, Fraction(0))
        with pytest.raises(DomainError):
            SystemPoint(4, 2, Fraction(1))

    def test_count_errors_name_the_values(self):
        for users, antennas in ((10, 0), (0, 2), (-3, 2)):
            with pytest.raises(DomainError, match=f"got K={users}, L={antennas}$"):
                SystemPoint(users, antennas, Fraction(1, 5))


class TestBaseline:
    def test_subpacketization_table_cell(self):
        assert asmst_metrics(point(20, "1/5", 4)).subpacketization == 2204475

    def test_worked_complexity_and_ndt(self):
        m = asmst_metrics(point(6, "1/3", 2))
        assert m.complexity == 2115
        assert m.ndt == 1

    def test_large_cell_value_and_rendering(self):
        m = asmst_metrics(point(50, "1/5", 5))
        assert m.subpacketization == math.comb(50, 10) * math.comb(39, 4)
        assert sci(m.subpacketization) == "8.4E+14"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            asmst_metrics(point(6, "1/2", 4))  # t + L > K

    def test_sum_dof(self):
        m = asmst_metrics(point(12, "1/4", 3))
        assert m.sum_dof == 6


class TestSchemes:
    def test_scheme2_table_cell(self):
        m = scheme_metrics(point(50, "1/5", 5), 2)
        assert m.subpacketization == 360

    def test_scheme1_table_cell(self):
        p = point(50, "1/5", 5, m=5)
        m = scheme_metrics(p, 1)
        assert m.subpacketization == 45

    def test_scheme1_best_m(self):
        assert best_m(point(20, "1/5", 4)) == 4
        assert scheme_metrics(point(20, "1/5", 4), 1).subpacketization == 5
        assert admissible_m_values(point(20, "1/5", 4)) == (1, 2, 4)

    def test_scheme1_selection_matches_brute_force(self):
        # Criterion 6's grid; the brute force keeps the smallest m on ties.
        for users in range(4, 42):
            for t in range(1, users):
                for antennas in {1, 2, 3, 5, t, users - t}:
                    if antennas < 1:
                        continue
                    p = SystemPoint(users, antennas, Fraction(t, users))
                    best = None
                    for m in admissible_m_values(p):
                        try:
                            metric = scheme_metrics(dataclasses.replace(p, m=m), 1)
                        except ConstraintViolation:
                            continue
                        if best is None or metric.subpacketization < best[1].subpacketization:
                            best = (m, metric)
                    if best is None:
                        assert best_m(p) is None
                        assert table_row(p)["m"] == "-"
                        with pytest.raises(ConstraintViolation):
                            scheme_metrics(p, 1)
                    else:
                        assert best_m(p) == best[0]
                        assert table_row(p)["m"] == str(best[0])
                        assert scheme_metrics(p, 1) == best[1]

    def test_scheme1_evaluated_once_per_admissible_m(self, monkeypatch):
        points = [point(20, "1/5", 4), point(12, "1/3", 4), point(6, "1/2", 3)]
        built, evaluated = [], []
        post_init = SystemPoint.__post_init__
        at = metrics._scheme1_at
        monkeypatch.setattr(
            SystemPoint, "__post_init__", lambda p: built.append(p) or post_init(p)
        )
        monkeypatch.setattr(
            metrics, "_scheme1_at", lambda p, m: evaluated.append(m) or at(p, m)
        )
        for p in points:
            for call in (table_row, lambda p: scheme_metrics(p, 1)):
                evaluated.clear()
                try:
                    call(p)
                except ConstraintViolation:
                    pass
                room = p.t + p.antennas < p.users
                assert evaluated == (list(admissible_m_values(p)) if room else [])
        assert built == []

    def test_scheme3_direct_substitution(self):
        m = scheme_metrics(point(6, "1/3", 4), 3)
        assert m.parameters == (6, 2, 4)
        assert m.ndt == Fraction(2, 3)

    def test_scheme3_constraint(self):
        with pytest.raises(ConstraintViolation):
            scheme_metrics(point(6, "1/3", 2), 3)

    def test_worked_complexity(self):
        m = scheme_metrics(point(6, "1/3", 2, m=2), 1)
        assert m.parameters == (3, 1, 3)
        assert m.complexity == (4**3 + 4**2 + 2 * 4) * 3 == 264

    def test_complexity_ratio_fixture(self):
        lam_new = scheme_metrics(point(6, "1/3", 2, m=2), 1).complexity
        lam_base = asmst_metrics(point(6, "1/3", 2)).complexity
        assert lam_new == 264 and lam_base == 2115
        assert round(lam_new / lam_base, 4) == 0.1248

    def test_scheme1_constraints(self):
        with pytest.raises(ConstraintViolation):
            scheme_metrics(point(6, "1/2", 3, m=3), 1)  # t+L = K
        with pytest.raises(ConstraintViolation):
            scheme_metrics(point(20, "1/5", 4, m=3), 1)  # m does not divide t

    def test_scheme2_boundary_allows_equality(self):
        m = scheme_metrics(point(6, "1/2", 3), 2)  # t+L = K allowed
        assert m.ndt == Fraction(1, 2)

    def test_matches_circulant_arrays(self):
        for users in range(2, 13):
            for t in range(1, users):
                arr = generate_cyclic(users, t)
                metric = scheme_metrics(
                    SystemPoint(users, users - t, Fraction(t, users)), 3
                )
                assert metric.parameters == (
                    arr.rows,
                    arr.stars_per_col,
                    arr.slots,
                )
                assert metric.ndt == Fraction(arr.slots, arr.rows)
                assert metric.sum_dof == arr.profile.sum_dof

    def test_identities_on_parameter_grid(self):
        checked = 0
        for users in range(4, 40):
            for t in range(1, users):
                for antennas in range(1, users - t + 1):
                    try:
                        p = SystemPoint(users, antennas, Fraction(t, users))
                    except DomainError:
                        continue
                    for which in (1, 2, 3):
                        try:
                            m = scheme_metrics(p, which)
                        except ConstraintViolation:
                            continue
                        assert m.ndt == Fraction(users - t, t + antennas)
                        assert m.sum_dof == t + antennas
                        checked += 1
            if checked > 400:
                break
        assert checked > 400

    def test_baseline_monotone_in_users(self):
        values = [
            asmst_metrics(point(k, "1/5", 3)).subpacketization
            for k in range(10, 55, 5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


def assert_identities(metric, users, t, antennas):
    """S/F = K(1-M/N)/(t+L) = (K-t)/(t+L), K(F-Z)/S = t+L and Z/F = M/N,
    from the (F, Z, S) triple and on the stored figures."""
    f, z, s = metric.parameters
    assert Fraction(s, f) == Fraction(users - t, t + antennas) == metric.ndt
    assert Fraction(users * (f - z), s) == t + antennas == metric.sum_dof
    assert Fraction(z, f) == Fraction(t, users)


def every_scheme(p):
    """The baseline, schemes 1-3 and scheme 1 at each admissible m, where
    their limitations hold at p."""
    calls = [asmst_metrics]
    calls += [lambda p, which=which: scheme_metrics(p, which) for which in (1, 2, 3)]
    calls += [
        lambda p, m=m: scheme_metrics(dataclasses.replace(p, m=m), 1)
        for m in admissible_m_values(p)
    ]
    found = []
    for call in calls:
        try:
            found.append(call(p))
        except (ConstraintViolation, DomainError):
            continue
    return found


class TestIdentities:
    """The identities every scheme satisfies by construction.  The
    calculators do not re-check them at runtime; these tests do."""

    def test_criterion_6_grid(self):
        tags = set()
        for users in range(4, 42):
            for t in range(1, users):
                for antennas in {1, 2, 3, 5, t, users - t}:
                    if antennas < 1:
                        continue
                    p = SystemPoint(users, antennas, Fraction(t, users))
                    for metric in every_scheme(p):
                        assert_identities(metric, users, t, antennas)
                        tags.add(metric.scheme)
        assert tags == {"asmst", "scheme1", "scheme2", "scheme3"}

    @settings(max_examples=300)
    @given(st.data())
    def test_sweep_to_200_users(self, data):
        users = data.draw(st.integers(2, 200), label="K")
        t = data.draw(st.integers(1, users - 1), label="t")
        antennas = data.draw(st.integers(1, users - t), label="L")
        p = SystemPoint(users, antennas, Fraction(t, users))
        row = table_row(p)
        for metric in every_scheme(p):
            assert_identities(metric, users, t, antennas)
            assert row["ndt"] == str(metric.ndt)

    @settings(max_examples=60)
    @given(st.data())
    def test_circulant_arrays_to_40_users(self, data):
        users = data.draw(st.integers(2, 40), label="K")
        t = data.draw(st.integers(1, users - 1), label="t")
        arr = generate_cyclic(users, t)
        assert arr.parameters() == (users - t, users, users, t, users - t)
        assert arr.profile.t == t
        assert arr.profile.sum_dof == users
        assert arr.profile.regular
        p = SystemPoint(users, users - t, Fraction(t, users))
        assert scheme_metrics(p, 3).parameters == arr.parameters()[2:]


class TestSilencing:
    def test_surplus_antennas(self):
        p = silence_antennas(point(8, "1/4", 5))
        assert p.antennas == 2
        m = scheme_metrics(p, 2)
        assert m.ndt == Fraction(8 - 2, 2 * 2)
        assert m.sum_dof == 4

    def test_small_case(self):
        p = silence_antennas(point(4, "1/4", 2))
        assert p.antennas == 1
        assert scheme_metrics(p, 2).ndt == Fraction(3, 2)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            silence_antennas(point(4, "1/2", 2))  # t == L


class TestRatios:
    def test_f1_exponent(self):
        r = ratio_asymptotics(point(8, "1/4", 2, m=2), "F1")
        assert r.exponent == -4  # (1-m)/m * K with m=2

    def test_f2_exponent_trivial_alpha(self):
        r = ratio_asymptotics(point(9, "1/3", 2), "F2")  # gcd(9,3,2) = 1
        assert r.exponent == 0

    def test_lambda1_model_value(self):
        r = ratio_asymptotics(point(6, "1/3", 2), "lambda1")  # alpha = 2
        assert r.constant == 3**4 * 2**2
        assert r.k_degree == 2
        assert r.value == 3**4 * 2**2 * 6**2 == 11664

    def test_lambda3_model(self):
        r = ratio_asymptotics(point(6, "1/3", 2), "lambda3")
        assert r.constant == 3**4
        assert r.k_degree == 3

    def test_missing_m_rejected(self):
        with pytest.raises(DomainError):
            ratio_asymptotics(point(8, "1/4", 2), "F1")


class TestTable:
    def test_verified_row(self):
        row = table_row(point(20, "1/5", 4))
        assert row["F_asmst"] == "2204475"
        assert row["F_s1"] == "5"
        assert row["m"] == "4"
        assert row["F_s2"] == "20"
        assert row["ndt"] == "2"
        assert "formula" not in row["flags"]

    def test_inconsistent_row_is_flagged(self):
        row = table_row(point(20, "2/5", 5))
        assert row["F_asmst"] == "41570100"
        assert "F_asmst:formula=41570100!=published=20785050" in row["flags"]
        assert "F_s1:formula=130!=published=10" in row["flags"]
        assert "F_s2:formula=1007760!=published=30" in row["flags"]

    def test_scheme3_cell_policy(self):
        row = table_row(point(50, "1/5", 5))
        assert row["F_s3"] == "50"
        assert "F_s3:constraint-unmet" in row["flags"]

    def test_worked_point_row(self):
        row = table_row(point(6, "1/3", 2))
        assert row["lambda_asmst"] == "2115"
        assert row["lambda_s1"] == "264"

    def test_empty_input_gives_header_only(self):
        out = table_report([])
        assert out.count("\n") == 1
        assert out.startswith("K,ratio,L,m,F_asmst")

    def test_sci_cells_paired(self):
        out = table_report([point(50, "1/5", 5)])
        header = out.splitlines()[0].split(",")
        values = out.splitlines()[1].split(",")
        cell = dict(zip(header, values))
        assert cell["F_asmst_sci"] == "8.4E+14"

    def test_engine_gate_flagged_when_t_below_l(self):
        row = table_row(point(150, "3/50", 10))
        assert "engine-gate:t=9<L=10" in row["flags"]
