"""Exact rational geometry of the exponent square.

All of the admissible-range bookkeeping for the polyharmonic multiplier lives
on the closed unit square of reciprocal Lebesgue exponents

    Q = {(x, y) = (1/p, 1/q) : 0 <= y <= x <= 1}  (useful part below diagonal),

and every vertex, edge and membership test in this module is carried out in
``fractions.Fraction`` arithmetic: nothing here ever touches floating point
except on explicit request (`emit_figure_data`).

Conventions
-----------
* ``d`` is the ambient dimension (so the relevant sphere sits in ``d - 1``
  frequency variables), ``k`` is the operator order, and the gap between the
  two exponents on the admissible line is ``x - y = 2k/d``.
* Duality acts by ``(x, y) -> (1 - y, 1 - x)``; all regions of interest are
  invariant under it, and the named vertex table keeps primed partners
  implicit (take ``ExponentPoint.dual`` when you need them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict


class DomainError(ValueError):
    """Parameters outside the domain where a vertex/region is defined."""


def _frac(v) -> Fraction:
    if isinstance(v, float):
        # floats are accepted for convenience but must be exactly representable:
        # 0.75 is 3/4, while 0.1 is only near 1/10 and is refused
        exact, meant = Fraction(v), Fraction(repr(v))
        if exact != meant:
            raise ValueError(f"{v!r} is not exactly {meant}; pass the string "
                             f"\"{meant}\" instead")
        return exact
    return Fraction(v)


@dataclass(frozen=True)
class ExponentPoint:
    """A point (x, y) = (1/p, 1/q) of the exponent square, stored exactly.

    Parameters
    ----------
    x, y:
        Coordinates as anything `fractions.Fraction` accepts (including
        strings like ``"7/8"``).

    Raises
    ------
    DomainError
        If the point lies outside the closed unit square.
    """

    x: Fraction
    y: Fraction

    def __init__(self, x, y):
        object.__setattr__(self, "x", _frac(x))
        object.__setattr__(self, "y", _frac(y))
        if not (0 <= self.x <= 1 and 0 <= self.y <= 1):
            raise DomainError(f"({self.x}, {self.y}) outside the unit square")

    @classmethod
    def parse(cls, text: str) -> "ExponentPoint":
        """Parse ``"7/8,3/40"`` (or ``"7/8 3/40"``) into a point."""
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"expected two rationals, got {text!r}")
        return cls(Fraction(parts[0]), Fraction(parts[1]))

    def dual(self) -> "ExponentPoint":
        """The duality involution (x, y) -> (1 - y, 1 - x)."""
        return ExponentPoint(1 - self.y, 1 - self.x)

    def __str__(self) -> str:  # "7/8,3/40"
        return f"{self.x},{self.y}"


@dataclass(frozen=True)
class DimensionPair:
    """Ambient dimension ``d >= 2`` and operator order ``k >= 1``."""

    d: int
    k: int

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension d={self.d} < 2")
        if self.k < 1:
            raise DomainError(f"order k={self.k} < 1")


class RegionId(enum.Enum):
    """Named convex regions/segments of the exponent square."""

    P_ALPHA = "p_alpha"          # oblique strip
    T_KD = "t_kd"                # quadrilateral patch handled by interpolation
    PENTAGON = "pentagon"        # closure target [E, F, H, F', E']
    CARLEMAN_RANGE = "carleman"  # sharp admissible segment on the gap line
    GAP_LINE = "gap_line"        # open segment {x - y = 2k/d} inside the square


def special_points(dims: DimensionPair) -> Dict[str, ExponentPoint]:
    """The named vertex table for a given (d, k).

    Returns a dict with keys among ``A B C D E F G H``; primed partners are
    obtained via `ExponentPoint.dual`.  ``G`` is present exactly when
    ``k < (d-2)/2``, and the quadrilateral/pentagon vertices ``B D E F``
    require ``k < d/2`` (they are omitted otherwise rather than raised,
    since the remaining vertices are still meaningful).

    Raises
    ------
    DomainError
        For ``d < 3``, where the corner ``A`` degenerates.
    """
    d, k = dims.d, dims.k
    if d < 3:
        raise DomainError(f"special points undefined for d={d} < 3")
    pts: Dict[str, ExponentPoint] = {}
    pts["A"] = ExponentPoint(Fraction(1, 2), Fraction(d - 2, 2 * d))
    pts["C"] = ExponentPoint(Fraction(1, 2), 0)
    pts["H"] = ExponentPoint(1, 0)
    if 2 * k < d:
        xb = Fraction(d - 2 + 2 * k, 2 * (d - 1))
        pts["B"] = ExponentPoint(
            xb, Fraction((d - 2) * (d - 2 * k), 2 * d * (d - 1)))
        pts["D"] = ExponentPoint(xb, 0)
        pts["E"] = ExponentPoint(
            Fraction(d * d + 2 * k * d - 4, 2 * (d + 2) * (d - 1)),
            Fraction((d - 2) * (d + 2 - 2 * k), 2 * (d + 2) * (d - 1)),
        )
        pts["F"] = ExponentPoint(Fraction(d - 2 + 2 * k, 2 * d), 0)
    if 2 * k < d - 2:
        pts["G"] = ExponentPoint(
            Fraction((d + 2 * k) * (d - 2), 2 * d * (d - 1)),
            Fraction(d - 2 * k - 2, 2 * (d - 1)),
        )
    return pts


def _in_p_alpha(dims: DimensionPair, p: ExponentPoint) -> bool:
    # Oblique strip: x - y >= 2k/d, x strictly right of the B-threshold,
    # y strictly below the dual threshold.  Boundary semantics are exactly the
    # closed/open mix of the defining inequalities.
    d, k = dims.d, dims.k
    return (
        p.x - p.y >= Fraction(2 * k, d)
        and p.x > Fraction(d - 2 + 2 * k, 2 * (d - 1))
        and p.y < Fraction(d - 2 * k, 2 * (d - 1))
    )


def _in_t_kd(dims: DimensionPair, p: ExponentPoint) -> bool:
    d, k = dims.d, dims.k
    if not Fraction(1, 2) <= p.x:
        return False
    if not p.x < Fraction(d - 2 + 2 * k, 2 * (d - 1)):
        return False
    return 0 <= p.y <= Fraction(d - 2, d) * (1 - p.x)


def _in_pentagon(dims: DimensionPair, p: ExponentPoint) -> bool:
    d, k = dims.d, dims.k
    return (
        p.x - p.y >= Fraction(2 * k, d + 2)
        and d * p.x - p.y >= Fraction(d - 2 + 2 * k, 2)
        and d * p.y - p.x <= Fraction(d - 2 * k, 2)
    )


def _on_gap_line(dims: DimensionPair, p: ExponentPoint) -> bool:
    d, k = dims.d, dims.k
    if p.x - p.y != Fraction(2 * k, d):
        return False
    return 0 < p.x < 1 and 0 < p.y < 1


def carleman_range(dims: DimensionPair, p: ExponentPoint) -> bool:
    """Exact membership in the sharp admissible segment.

    The segment lives on the open gap line ``x - y = 2k/d`` and is cut out by

        (d + 2k)(d - 2) / (2 d (d - 1))  <=  x  <=  (d + 2k) / (2 (d - 1)),

    intersected with the open Lebesgue square ``0 < y, x < 1``.  For
    ``(d-2)/2 <= k < d/2`` the two x-cuts are implied by the open square, and
    for ``k >= d/2`` the line misses the square entirely, so the set is empty;
    both of these come out of the same conjunction with no special-casing.
    """
    if not _on_gap_line(dims, p):
        return False
    lo, hi = _range_cuts(dims.d, dims.k)
    return lo <= p.x <= hi


def _range_cuts(d: int, k: int) -> tuple[Fraction, Fraction]:
    """`carleman_range`'s two x-cuts at (d, k)."""
    return (Fraction((d + 2 * k) * (d - 2), 2 * d * (d - 1)),
            Fraction(d + 2 * k, 2 * (d - 1)))


def _range_length(d: int, k: int) -> Fraction:
    """The x-extent of `carleman_range` at (d, k): its cuts clipped to the
    open gap line's 2k/d < x < 1, and 0 where nothing is left."""
    lo, hi = _range_cuts(d, k)
    return max(min(hi, Fraction(1)) - max(lo, Fraction(2 * k, d)),
               Fraction(0))


def in_region(region: RegionId, dims: DimensionPair, p: ExponentPoint) -> bool:
    """Exact membership test for any named region.

    Every comparison happens in rational arithmetic; the boundary semantics
    (which edges are included) follow the defining inequalities of each region
    letter for letter.
    """
    if region is RegionId.P_ALPHA:
        return _in_p_alpha(dims, p)
    if region is RegionId.T_KD:
        return _in_t_kd(dims, p)
    if region is RegionId.PENTAGON:
        return _in_pentagon(dims, p)
    if region is RegionId.GAP_LINE:
        return _on_gap_line(dims, p)
    if region is RegionId.CARLEMAN_RANGE:
        return carleman_range(dims, p)
    raise ValueError(f"unknown region {region!r}")


def _point_json(p: ExponentPoint) -> dict:
    return {"x": str(p.x), "y": str(p.y), "xf": float(p.x), "yf": float(p.y)}


def emit_figure_data(dims: DimensionPair) -> dict:
    """Machine-readable description of the admissibility picture for (d, k).

    The returned dict carries the named vertices (exact rationals plus float
    shadows), polygon vertex lists for the interpolation quadrilateral and the
    closure pentagon, the gap-line segment clipped to the square, the
    sharp sub-segment with its endpoint-openness flags, and, for k >= 2,
    what composing k estimates on the (d, 1) range gives in these tables
    (nothing), with the x-extents of the (d, 1) and (d, k) ranges.  It
    contains everything needed to redraw the admissible-range figure
    without redoing any arithmetic.
    """
    d, k = dims.d, dims.k
    pts = special_points(dims)
    out: dict = {
        "d": d,
        "k": k,
        "points": {name: _point_json(p) for name, p in pts.items()},
    }
    out["dual_points"] = {
        name + "'": _point_json(p.dual()) for name, p in pts.items()
    }

    if {"B", "D"} <= pts.keys():
        quad = [pts["A"], pts["B"], pts["D"], pts["C"]]
        out["interpolation_quad"] = [_point_json(q) for q in quad]
        out["interpolation_quad_excluded_edge"] = [
            _point_json(pts["B"]), _point_json(pts["D"])
        ]
    if {"E", "F"} <= pts.keys():
        penta = [
            pts["E"], pts["F"], pts["H"], pts["F"].dual(), pts["E"].dual()
        ]
        out["pentagon"] = [_point_json(q) for q in penta]

    gap = Fraction(2 * k, d)
    if gap < 1:
        seg = [ExponentPoint(gap, 0), ExponentPoint(1, 1 - gap)]
        out["gap_line"] = {
            "segment": [_point_json(s) for s in seg],
            "open_interior_only": True,
        }
        if "G" in pts:
            thick = [pts["G"], pts["G"].dual()]
            openness = {"left_open": False, "right_open": False}
        else:
            thick = seg
            openness = {"left_open": True, "right_open": True}
        out["sharp_segment"] = {
            "segment": [_point_json(s) for s in thick],
            **openness,
        }
    else:
        out["gap_line"] = {"segment": [], "open_interior_only": True}
        out["sharp_segment"] = {"segment": [], "empty": True,
                                "reason": f"2k/d = {gap} >= 1 leaves the square"}
    if k >= 2:
        # k steps of 2/d along x - y = 2/d, each inside the (d, 1) range,
        # need two of its points 2/d apart: for d > 4 its x-extent
        # (d + 2)/(d(d - 1)) is shorter than 2/d, and at d = 3, 4 it is an
        # open interval 1/3 and 1/2 long, against steps of 2/3 and 1/2
        out["composed_k1"] = {
            "segment": [], "empty": True,
            "k1_length": str(_range_length(d, 1)),
            "step": str(Fraction(2, d)),
            "length": str(_range_length(d, k)),
        }
    return out
