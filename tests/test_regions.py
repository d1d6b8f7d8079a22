"""Exact-rational geometry: special points, duality, regions, range."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carlab.acceptance import _composed_k1_identity, geometry_identities
from carlab.normest import ExponentKind, theoretical_exponent
from carlab.regions import (DimensionPair, DomainError, ExponentPoint,
                            RegionId, carleman_range, emit_figure_data,
                            in_region, special_points)


def P(x, y) -> ExponentPoint:
    return ExponentPoint(Fraction(x), Fraction(y))


rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=997)


class TestDualPoint:
    def test_h_is_fixed(self):
        assert P(1, 0).dual() == P(1, 0)

    def test_b52_maps_to_printed_dual(self):
        assert P("7/8", "3/40").dual() == P("37/40", "1/8")

    def test_diagonal_fixed(self):
        assert P("1/2", "1/2").dual() == P("1/2", "1/2")

    @given(rationals01, rationals01)
    def test_involution(self, x, y):
        p = P(x, y)
        assert p.dual().dual() == p


class TestSpecialPoints:
    def test_d5_k2_table(self):
        pts = special_points(DimensionPair(5, 2))
        assert pts["B"] == P("7/8", "3/40")
        assert pts["D"] == P("7/8", 0)
        assert pts["F"] == P("7/10", 0)
        assert pts["A"] == P("1/2", "3/10")
        assert "G" not in pts

    def test_d7_k2_has_g(self):
        pts = special_points(DimensionPair(7, 2))
        assert pts["G"] == P("55/84", "1/12")

    def test_d3_k1_g_absent(self):
        # existence cutoff is k < (d - 2)/2, which fails at (3, 1)
        assert "G" not in special_points(DimensionPair(3, 1))

    def test_rejects_planar_dimension(self):
        with pytest.raises(DomainError):
            special_points(DimensionPair(2, 1))

    @pytest.mark.parametrize("d,k", [(5, 2), (7, 2), (7, 3), (9, 2), (9, 3),
                                     (11, 4)])
    def test_e_on_both_lines(self, d, k):
        E = special_points(DimensionPair(d, k))["E"]
        assert d * E.x - E.y == Fraction(d - 2 + 2 * k, 2)
        assert E.x - E.y == Fraction(2 * k, d + 2)

    @pytest.mark.parametrize("d,k", [(7, 2), (9, 2), (9, 3), (11, 2),
                                     (13, 5)])
    def test_g_between_e_and_f_on_gap_line(self, d, k):
        assert 2 * k < d - 2
        pts = special_points(DimensionPair(d, k))
        E, F, G = pts["E"], pts["F"], pts["G"]
        assert G.x - G.y == Fraction(2 * k, d)
        # collinear with E and F, strictly between them
        assert (F.y - E.y) * (G.x - E.x) == (G.y - E.y) * (F.x - E.x)
        assert min(E.x, F.x) < G.x < max(E.x, F.x)


class TestInRegion:
    def test_t_region_contains_c(self):
        assert in_region(RegionId.T_KD, DimensionPair(5, 2), P("1/2", 0))

    def test_t_region_excludes_right_edge(self):
        assert not in_region(RegionId.T_KD, DimensionPair(5, 2),
                             P("7/8", "1/40"))

    def test_pentagon_contains_e_with_both_lines_active(self):
        dims = DimensionPair(5, 2)
        E = special_points(dims)["E"]
        assert E == P("41/56", "9/56")
        assert in_region(RegionId.PENTAGON, dims, E)

    def test_gap_line_membership(self):
        dims = DimensionPair(5, 2)
        assert in_region(RegionId.GAP_LINE, dims, P("9/10", "1/10"))
        assert not in_region(RegionId.GAP_LINE, dims, P("9/10", "1/3"))


class TestCarlemanRange:
    def test_endpoint_q_infinite_excluded(self):
        assert not carleman_range(DimensionPair(5, 2), P("4/5", 0))

    def test_g_point_admitted_at_d7_k2(self):
        assert carleman_range(DimensionPair(7, 2), P("55/84", "1/12"))

    def test_empty_when_k_at_least_half_d(self):
        dims = DimensionPair(3, 2)
        for i in range(1, 12):
            for j in range(1, 12):
                assert not carleman_range(dims, P(Fraction(i, 12),
                                                  Fraction(j, 12)))

    @pytest.mark.parametrize("d,k", [(7, 2), (9, 3), (11, 2)])
    def test_range_is_g_to_g_dual(self, d, k):
        """With G present the admitted segment is exactly [G, G']."""
        dims = DimensionPair(d, k)
        G = special_points(dims)["G"]
        Gd = G.dual()
        gap = Fraction(2 * k, d)
        for i in range(0, 241):
            x = Fraction(i, 240)
            y = x - gap
            if not (0 < y and x < 1 and y <= 1):
                continue
            expected = G.x <= x <= Gd.x
            assert carleman_range(dims, P(x, y)) == expected, (x, y)

    @pytest.mark.parametrize("d,k", [(3, 1), (5, 2), (9, 4)])
    def test_full_open_gap_line_when_g_absent(self, d, k):
        """(d-2)/2 <= k < d/2: every open-range point of the line counts."""
        assert d - 2 <= 2 * k < d
        dims = DimensionPair(d, k)
        gap = Fraction(2 * k, d)
        for i in range(0, 121):
            x = Fraction(i, 120)
            y = x - gap
            if not (0 < y and x < 1):
                continue
            assert carleman_range(dims, P(x, y))


class TestEmitFigureData:
    def test_d5_k2_thick_segment(self):
        fig = emit_figure_data(DimensionPair(5, 2))
        seg = fig["sharp_segment"]["segment"]
        assert [seg[0]["x"], seg[0]["y"]] == ["4/5", "0"]
        assert [seg[1]["x"], seg[1]["y"]] == ["1", "1/5"]

    def test_d7_k2_thick_segment_is_g_pair(self):
        fig = emit_figure_data(DimensionPair(7, 2))
        seg = fig["sharp_segment"]["segment"]
        assert [seg[0]["x"], seg[0]["y"]] == ["55/84", "1/12"]
        assert [seg[1]["x"], seg[1]["y"]] == ["11/12", "29/84"]

    def test_composed_k1_is_empty_beside_both_range_lengths(self):
        # the (7, 1) range is 3/14 long, short of one 2/7 step; the (7, 2)
        # range runs from G to G', 11/42; k = 1 composes nothing
        fig = emit_figure_data(DimensionPair(7, 2))
        assert fig["composed_k1"] == {"segment": [], "empty": True,
                                      "k1_length": "3/14", "step": "2/7",
                                      "length": "11/42"}
        G = special_points(DimensionPair(7, 2))["G"]
        assert Fraction(fig["composed_k1"]["length"]) == G.dual().x - G.x
        assert "composed_k1" not in emit_figure_data(DimensionPair(7, 1))

    def test_floats_and_rationals_agree(self):
        fig = emit_figure_data(DimensionPair(7, 2))
        for rec in fig["points"].values():
            assert rec["xf"] == pytest.approx(float(Fraction(rec["x"])))
            assert rec["yf"] == pytest.approx(float(Fraction(rec["y"])))


class TestExponentPoint:
    def test_parse_round_trip(self):
        p = ExponentPoint.parse("7/8,3/40")
        assert p == P("7/8", "3/40")

    def test_outside_unit_square_rejected(self):
        with pytest.raises(DomainError):
            ExponentPoint(Fraction(3, 2), Fraction(0))

    def test_exact_floats_accepted_inexact_refused(self):
        assert ExponentPoint(0.75, 0.5) == P("3/4", "1/2")
        with pytest.raises(ValueError, match='"1/10"'):
            ExponentPoint(0.1, 0.5)
        assert ExponentPoint("1/10", "1/2").x == Fraction(1, 10)


# ---------------------------------------------------------------------------
# the exponent tables of `normest` against the region tables, exactly


def test_exponent_tables_meet_the_region_tables_exactly():
    # A1's ``tables:`` clauses (`geometry_identities`) for every (d, k) with
    # 2k < d <= 15: on the gap line ME_UPPER vanishes at carleman_range's
    # lower end lo and the spread exponent TILDE_LOWER + (x - y) at its
    # upper end hi; lo and hi are the x-coordinates of G and G'; ME_KNAPP =
    # ME_UPPER on T_KD's top edge d y = (d - 2)(1 - x), above Upper below
    # it, below above it
    checks = 0
    for d in range(3, 16):
        for k in range(1, (d + 1) // 2):
            clauses = {name: holds for name, holds
                       in geometry_identities(d, k).items()
                       if name.startswith("tables:")}
            assert all(clauses.values()), (d, k, clauses)
            checks += len(clauses)
    # 49 pairs: 7 edge clauses each, and the three segment clauses at the
    # 36 pairs with 2k < d - 2, the only ones whose ends lie inside
    assert checks == 49 * 7 + 36 * 3


@pytest.mark.parametrize("kind, clause", [
    (ExponentKind.ME_UPPER, "ME_UPPER = 0 at lo"),
    (ExponentKind.TILDE_LOWER, "spread = 0 at hi"),
    (ExponentKind.ME_KNAPP, "Knapp vs Upper at x=1/8")])
def test_a1_fails_when_one_exponent_table_entry_is_off(kind, clause,
                                                       monkeypatch):
    # one table entry, off by 1/1000 at d = 7, k = 2: A1 fails and names
    # the clause
    import carlab.acceptance as acceptance

    def off(which, d, k, point=None):
        got = theoretical_exponent(which, d, k, point)
        return got + Fraction(1, 1000) if (which, d, k) == (kind, 7, 2) else got
    monkeypatch.setattr(acceptance, "theoretical_exponent", off)
    ok, detail = acceptance._a1_exact_geometry()
    assert not ok
    assert f"(7,2) tables: {clause}" in detail


def test_no_two_points_of_the_k1_range_lie_one_step_apart():
    # A1's composing clause at 3 <= d <= 24, against carleman_range on a
    # 1/2000 grid of the (d, 1) gap line: its admitted points span less
    # than 2/d, and the figure's k1_length is no longer than its step
    for d in range(3, 25):
        assert _composed_k1_identity(d), d
        dims, gap = DimensionPair(d, 1), Fraction(2, d)
        xs = [x for x in (Fraction(i, 2000) for i in range(2001))
              if 0 < x - gap and x < 1 and carleman_range(dims, P(x, x - gap))]
        assert xs and xs[-1] - xs[0] < gap, d
        fig = emit_figure_data(DimensionPair(d, 2))["composed_k1"]
        assert Fraction(fig["k1_length"]) <= Fraction(fig["step"]), d
