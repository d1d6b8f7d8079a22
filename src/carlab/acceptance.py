"""End-to-end acceptance battery, and the one implementation of each check.

Nine numbered criteria exercise the package bottom to top: exact exponent
geometry, symbol and distribution identities, the inversion identity, four
scaling laws, and the decomposition cross-oracle.  Each criterion has a
wall-clock budget; it passes only if its checks hold *and* it finishes
inside the budget.  The check bodies are parameterised functions that the
CLI experiments call too; the criteria fix their parameters and seeds, so a
full run is reproducible bit-for-bit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import regions
from .bessel import MAX_NU
from .bump import CustomCutoff, SymmetricPlateau, inversion_bump
from .identities import (PolyGauss, pair_pullback, sphere_integral,
                         verify_counter_identities, verify_dist_identity,
                         verify_kelvin)
from .normest import (ExponentKind, ScalingFit, certified_lower_bound,
                      estimate_operator_norm, fit_scaling,
                      theoretical_exponent)
from .oscillatory import (LowerBoundParams, Phi5Spec, annulus_radii,
                          frak_s_sample, i_integral, in_resonant_set,
                          j_decomposition, mtilde_radial)
from .spectral import Grid, KnappField, check_lattice_size
from .symbols import SymbolSpec, eval_from_radial


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check, from a criterion or a CLI experiment."""

    id: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    measures: dict[str, float] = field(default_factory=dict)

    @classmethod
    def judge(cls, cid: str, ok: bool, detail: str,
              measures: dict[str, float] | None = None) -> "Verdict":
        """The pass or fail verdict of a check that held (``ok``) or not."""
        return cls(cid, "pass" if ok else "fail", detail, measures or {})

    @property
    def line(self) -> str:
        return f"{self.id} {self.status.upper()}: {self.detail}"


# ---------------------------------------------------------------------------
# witness builders and checks, shared by the criteria and the CLI
# ---------------------------------------------------------------------------


def knapp_witness(family: str, d: int, eps: float, n: int = 128) -> KnappField:
    """A thin-slab frequency bump adapted to one symbol family.

    The box is anisotropic: one axis hugs the radial direction at scale
    ``eps``, the transverse axes ``eta'`` sit at scale ``sqrt(eps)``, and
    the last axis covers the relevant tau window.  Spans shrink with eps, so
    the lattice resolves the slab with the same number of cells at every
    scale and the discretization bias cancels out of scaling fits.

    For ``family="tilde"`` the slab is ``|1 - |eta|^2| <= eps/4`` with
    ``tau`` near 5/4; for ``family="eps"`` it is ``| |xi|^2 - 1 | <= eps/16``
    with ``tau ~ eps``.  Both sit where the family's own cutoffs equal 1
    (up to the fixed tau profile), and both vanish well inside the box, so
    the witness never wraps around the frequency torus.  The cap is read at
    ``|eta'|``, so the witness is a function of (a0, |eta'|, tau), a
    `KnappField`; the cap's shape changes constants, not exponents.

    A d below 3, or one whose radial axis needs a Bessel order past
    `bessel.MAX_NU`, is refused first.  The slab is evaluated on all n
    axis-0 rows across the cap's and tau's supports, once that box's size
    is checked; a nonzero value on the box's boundary, or none at all, is
    refused.  The witness keeps the slab's nonzero rows.
    """
    if family not in ("tilde", "eps"):
        raise ValueError(f"no slab witness for family {family!r}")
    m = d - 3 + d % 2  # the radial dimension, d - 2 or d - 3, odd
    if d < 3 or m - 2 > 2 * MAX_NU:
        raise ValueError(f"slab witnesses need d >= 3 and a radial axis of "
                         f"Bessel order (m - 2)/2 <= {MAX_NU:g}, got d = {d}, "
                         f"m = {m}")
    rt = math.sqrt(eps)
    cart = 2 - d % 2  # the transverse axes kept: [eta1] and rho
    if family == "tilde":
        spans = (3.0 * eps,) + (4.0 * rt,) * cart + (2.0,)
        offs = (1.0,) + (0.0,) * cart + (1.25,)
        cap, window = SymmetricPlateau(0.5), SymmetricPlateau(0.25)
    else:
        spans = (2.0 * eps,) + (2.0 * rt,) * cart + (2.0 * eps,)
        offs = (1.0,) + (0.0,) * cart + (1.1 * eps,)
        cap, window = SymmetricPlateau(1.0 / 8), SymmetricPlateau(0.3)
    grid = Grid((n,) * (cart + 2), tuple(2.0 * math.pi * n / s for s in spans),
                offs)
    freq = grid.freq_axes()
    freq[-2] = np.abs(freq[-2][:n // 2 + 1])  # rho_j = j 2 pi / L
    cuts = [(cap, a / rt) for a in freq[1:-1]] + [
        (window, freq[-1] - 1.25 if family == "tilde"
         else freq[-1] / eps - 1.1)]
    check_lattice_size((n,) + tuple(
        np.count_nonzero(np.abs(t) < cut.support[1]) for cut, t in cuts))
    factors = [cut(t) for cut, t in cuts]
    index = [np.arange(n)] + [np.flatnonzero(f) for f in factors]
    axes = np.meshgrid(*(a[i] for a, i in zip(freq, index)), indexing="ij",
                       sparse=True)
    eta_sq = sum(a ** 2 for a in axes[:-1])
    tau = axes[-1]
    if family == "tilde":
        slab = SymmetricPlateau(1.0 / 8)((1.0 - eta_sq) / eps)
    else:
        slab = SymmetricPlateau(1.0 / 32)((eta_sq + tau ** 2 - 1.0) / eps)
    transverse = np.sqrt(sum(a ** 2 for a in axes[1:-1]))
    vals = slab * cap(transverse / rt) * factors[-1][index[-1]].reshape(
        tau.shape)
    half = n // 2
    for ax, i in enumerate(index):
        at = np.flatnonzero(i == half)
        if at.size and np.any(np.take(vals, at[0], axis=ax)):
            raise ValueError("witness touches the frequency box boundary")
    rows = np.flatnonzero(np.any(vals, axis=tuple(range(1, vals.ndim))))
    if not rows.size:
        raise ValueError("witness is empty on this lattice")
    index[0] = rows
    return KnappField(grid.shape, grid.periods, grid.freq_offsets, d,
                      vals[rows], tuple(index))


def ring_grid(j: int, n_eta0: int = 256, n_tau: int = 64) -> Grid:
    """Frequency box for the j-th ring piece, resolution matched to 2^j.

    The eta axes halve their point count as the ring thickens (``n_eta0`` at
    j = 0), keeping cells-per-thickness constant across j so the lattice
    bias enters every ring estimate as the same factor.  The axes never
    drop below 16 points, so that holds only while ``n_eta0 >= 16 * 2^j``;
    A8's 256 satisfies it for j <= 3.  A thin ring may hold no lattice
    point at all: ``ring_grid(1, 32, 16)`` is not clamped, and the j = 1
    ring holds none of its points.
    """
    n_eta = max(16, n_eta0 >> j)
    shape = (n_eta, n_eta, n_tau)
    check_lattice_size(shape)
    spans = (2.4, 2.4, 4.2)
    periods = tuple(2.0 * math.pi * nn / s for nn, s in zip(shape, spans))
    return Grid(shape, periods, (0.0, 0.0, 0.0))


SYMBOL_TOL = 1e-10
PAIRING_TOL = 1e-5
KNAPP_TOL = 0.15
RING_TOL = 0.2
#: the widest factor the scaled resonant-set minima may span over the scales
BAND_TOL = 2.0
SPHERE_MEASURE_TOL = 1e-8
#: A4's relative L^2 tolerances at n = 128, at s = 1 and at s = 1.25
KELVIN_LAPLACIAN_TOL = 1e-3
KELVIN_FRACTIONAL_TOL = 1e-2
DOUBLING_RATIO = 2.0
LOG_LAW_TOL = 0.15
DRIFT_TOL = 2.0
DECOMPOSITION_TOL = 1e-5
ROUNDTRIP_TOL = 1e-12
PARSEVAL_TOL = 1e-10


def tol_text(tol: float) -> str:
    """``tol`` as the verdict texts print it, in ``%g``: fixed notation
    down to 1e-4 (``0.01``, ``0.001``) and an exponent below it, written
    ``1e-5``, not ``1e-05``."""
    return f"{tol:g}".replace("e-0", "e-")


def geometry_identities(d: int, k: int) -> dict[str, bool]:
    """Whether each exact identity of the exponent square holds at (d, k).

    For 2k < d the ``tables:`` clauses tie `theoretical_exponent` to the
    region tables: on the gap line x - y = 2k/d, ``ME_UPPER`` vanishes at
    `carleman_range`'s lower end lo and the spread exponent ``TILDE_LOWER +
    (x - y)`` at its upper end hi (each checked where a point 1e-6 beyond
    the end is inside the open square, and refused there); lo and hi are
    the x of G and G'; ``ME_KNAPP`` meets ``ME_UPPER`` on T_KD's top edge
    d y = (d - 2)(1 - x), and lies above it below the edge, below above it.
    """
    dims = regions.DimensionPair(d, k)
    pts = regions.special_points(dims)
    # closed forms, restated independently
    holds = {
        "A": pts["A"] == regions.ExponentPoint(Fraction(1, 2),
                                               Fraction(d - 2, 2 * d)),
        "C": pts["C"] == regions.ExponentPoint(Fraction(1, 2), Fraction(0)),
        "H": pts["H"] == regions.ExponentPoint(Fraction(1), Fraction(0)),
    }
    if 2 * k < d:
        E, F = pts["E"], pts["F"]
        holds["E line 1"] = d * E.x - E.y == Fraction(d - 2 + 2 * k, 2)
        holds["E line 2"] = E.x - E.y == Fraction(2 * k, d + 2)
        holds["F"] = F == regions.ExponentPoint(
            Fraction(d - 2 + 2 * k, 2 * d), Fraction(0))
        holds.update(_table_identities(dims, pts.get("G")))
    has_g = "G" in pts
    holds["G exists"] = has_g == (Fraction(k) < Fraction(d - 2, 2))
    if has_g:
        E, F, G = pts["E"], pts["F"], pts["G"]
        holds["G on gap line"] = G.x - G.y == Fraction(2 * k, d)
        holds["G collinear EF"] = ((F.y - E.y) * (G.x - E.x)
                                   == (G.y - E.y) * (F.x - E.x))
        holds["G between"] = min(E.x, F.x) <= G.x <= max(E.x, F.x)
    # the admitted range along the gap line
    g_dual_x = Fraction(d + 2 * k, 2 * (d - 1))
    for i in range(1, 60):
        x = Fraction(i, 60)
        y = x - Fraction(2 * k, d)
        if 0 < y < 1:
            inside = regions.carleman_range(dims, regions.ExponentPoint(x, y))
            holds[f"range at x={x}"] = inside == (
                not has_g or pts["G"].x <= x <= g_dual_x)
    return holds


def _table_identities(dims: regions.DimensionPair,
                      g: regions.ExponentPoint | None) -> dict[str, bool]:
    """`geometry_identities`' ``tables:`` clauses at 2k < d; ``g`` is the
    point G, or None where there is none."""
    d, k = dims.d, dims.k
    gap, step = Fraction(2 * k, d), Fraction(1, 10 ** 6)
    lo = Fraction((d + 2 * k) * (d - 2), 2 * d * (d - 1))
    hi = Fraction(d + 2 * k, 2 * (d - 1))

    def exponent(kind: ExponentKind, x: Fraction, y: Fraction) -> Fraction:
        return theoretical_exponent(kind, d, k, regions.ExponentPoint(x, y))

    def admits(x: Fraction) -> bool:
        return regions.carleman_range(dims, regions.ExponentPoint(x, x - gap))

    holds = {}
    if 0 < lo - step - gap:
        holds["tables: ME_UPPER = 0 at lo"] = (
            admits(lo) and not admits(lo - step)
            and exponent(ExponentKind.ME_UPPER, lo, lo - gap) == 0)
    if hi + step < 1:
        holds["tables: spread = 0 at hi"] = (
            admits(hi) and not admits(hi + step)
            and exponent(ExponentKind.TILDE_LOWER, hi, hi - gap) + gap == 0)
    if g is not None:
        holds["tables: lo, hi = G.x, G'.x"] = (g.x, g.dual().x) == (lo, hi)
    for i in range(1, 8):
        x = Fraction(i, 8)
        edge = Fraction(d - 2, d) * (1 - x)
        signs = []
        for y in (edge - step, edge, edge + step):
            knapp = exponent(ExponentKind.ME_KNAPP, x, y)
            upper = exponent(ExponentKind.ME_UPPER, x, y)
            signs.append((knapp > upper) - (knapp < upper))
        holds[f"tables: Knapp vs Upper at x={x}"] = signs == [1, 0, -1]
    return holds


def _composed_k1_identity(d: int) -> bool:
    """A1's ``tables:`` clause on composing k = 1 estimates at dimension d.

    k >= 2 such steps of 2/d along x - y = 2/d need two points of the
    (d, 1) range 2/d apart.  For d > 4 its ends lo and hi (each
    `carleman_range`'s last point, 1e-6 short of one it refuses) have
    lo + 2/d > hi; for d <= 4 no k >= 2 has 2k < d, so every k >= 2 gap
    line misses the square.  A fact about these tables only: it says
    nothing of estimates off the gap line.
    """
    if d <= 4:
        return not any(2 * k < d for k in range(2, d))
    dims = regions.DimensionPair(d, 1)
    gap, step = Fraction(2, d), Fraction(1, 10 ** 6)
    lo = Fraction((d + 2) * (d - 2), 2 * d * (d - 1))
    hi = Fraction(d + 2, 2 * (d - 1))

    def admits(x: Fraction) -> bool:
        return regions.carleman_range(dims, regions.ExponentPoint(x, x - gap))

    return (admits(lo) and admits(hi) and not admits(lo - step)
            and not admits(hi + step) and lo + gap > hi)


def symbol_errors(d: int, k: int, eps: float, n_pts: int,
                  rng: np.random.Generator) -> tuple[float, float]:
    """Worst relative errors of local + global = full, and of the closed-form
    imaginary part of the ``tilde`` slice, each over ``n_pts`` random points."""
    eta_sq = rng.uniform(0.0, 1.7, n_pts)
    tau = rng.uniform(0.05, 2.4, n_pts) * rng.choice([-1.0, 1.0], n_pts)
    full = eval_from_radial(SymbolSpec("full", d, k), eta_sq, tau)
    recon = (eval_from_radial(SymbolSpec("local", d, k), eta_sq, tau)
             + eval_from_radial(SymbolSpec("global", d, k), eta_sq, tau))
    worst_recon = float((np.abs(full - recon) / np.abs(full)).max())

    tau_pos = rng.uniform(0.55, 1.9, n_pts)
    eta_med = rng.uniform(1.0 - 3.0 * eps, 1.0 + 3.0 * eps, n_pts)
    tilde = eval_from_radial(SymbolSpec("tilde", d, k, eps=eps),
                             eta_med, tau_pos)
    closed = eval_from_radial(SymbolSpec("tilde_im", d, k, eps=eps),
                              eta_med, tau_pos)
    num = np.abs(np.imag(tilde) - closed)
    den = np.maximum(np.abs(np.imag(tilde)), np.abs(closed))
    worst_im = float(np.where(den > 0, num / np.where(den > 0, den, 1.0),
                              0.0).max())
    return worst_recon, worst_im


def distid_cases(rng: np.random.Generator) -> list[dict[str, Any]]:
    """The pullback identity at k in {2, 3}, n in {2, 3, 4}, three radii."""
    return [{"k": k, "n": n, "rho": rho,
             "rel_err": verify_dist_identity(
                 k, rho, PolyGauss.random(n, rng)).rel_err}
            for k in (2, 3) for n in (2, 3, 4) for rho in (0.8, 1.0, 1.3)]


def counter_cases(rng: np.random.Generator) -> list[dict[str, Any]]:
    """Both order-shuffling identities at five random tau per (k, d)."""
    cases = []
    for k, d in ((2, 3), (3, 5)):
        for tau in rng.uniform(0.6, 1.8, 5):
            h = PolyGauss.random(d - 1, rng)
            for kind in ("induc", "rev"):
                res = verify_counter_identities(kind, k, 2.0 ** -5, 2.0 ** -5,
                                                float(tau), h)
                cases.append({"kind": kind, "k": k, "d": d,
                              "tau": float(tau), "rel_err": res.rel_err})
    return cases


def worst_rel_err(cases: Sequence[dict[str, Any]]) -> float:
    """Largest ``rel_err`` over the cases; 0 when there are none."""
    return max([0.0] + [c["rel_err"] for c in cases])


class KelvinCheck(NamedTuple):
    """The inversion identity at one order s, on grids n = 64 and 128."""

    s: float
    tol: float
    cases: list[dict[str, float]]
    rel: float      # relative error at n = 128
    ratio: float    # error at n = 64 over error at n = 128
    ok: bool

    @property
    def detail(self) -> str:
        return (f"rel {self.rel:.2e} (tol {tol_text(self.tol)}), doubling "
                f"ratio {self.ratio:.1f} (>= {tol_text(DOUBLING_RATIO)})")


def kelvin_checks() -> list[KelvinCheck]:
    checks = []
    for s, tol in ((1.0, KELVIN_LAPLACIAN_TOL),
                   (1.25, KELVIN_FRACTIONAL_TOL)):
        sizes = (64, 128)
        results = verify_kelvin(inversion_bump(s), s, sizes)
        cases = [{"s": s, "n": n, "rel_err": r.rel_err}
                 for n, r in zip(sizes, results)]
        coarse, fine = (c["rel_err"] for c in cases)
        ratio = coarse / fine if fine > 0 else math.inf
        checks.append(KelvinCheck(s, tol, cases, fine, ratio,
                                  fine <= tol and ratio >= DOUBLING_RATIO))
    return checks


class SlopeCheck(NamedTuple):
    """A power-law fit judged against an exact exponent within ``tol``."""

    fit: ScalingFit
    theory: float
    tol: float
    uppers: tuple[float, ...] = ()  # each fitted value's upper bound, if any

    @property
    def dev(self) -> float:
        return abs(self.fit.slope - self.theory)

    @property
    def ok(self) -> bool:
        return self.dev <= self.tol

    @property
    def detail(self) -> str:
        return (f"slope {self.fit.slope:+.4f} vs theory {self.theory:+.4f}"
                f" (dev {self.dev:.4f}, tol {self.tol})")

    @property
    def measures(self) -> dict[str, float]:
        """Every fitted number, for a verdict's measures: the slope, theory
        and deviation, the worst log2 residual, each pair's scale and value
        and each local slope, in the fit's order (``_j<i>``), and each
        value's upper bound and the bound's ratio to it, if there are any.
        The measures only report: `ok` reads the slope alone."""
        fit = self.fit
        out = {"slope": fit.slope, "theory": self.theory, "dev": self.dev,
               "max_residual": fit.max_residual}
        for j, (scale, value) in enumerate(fit.pairs):
            out |= {f"scale_j{j}": scale, f"value_j{j}": value}
        for j, slope in enumerate(fit.local_slopes):
            out[f"local_slope_j{j}"] = slope
        for j, ((_, value), upper) in enumerate(zip(fit.pairs, self.uppers)):
            out |= {f"upper_j{j}": upper, f"ratio_j{j}": upper / value}
        return out


class InsufficientOctaves(ValueError):
    """Too few distinct scales to anchor a slope fit or a band."""


def knapp_fit(family: str, d: int, k: int, eps_list: Sequence[float],
              point: regions.ExponentPoint) -> SlopeCheck:
    """Slope fit of thin-slab lower bounds over the distinct scales against
    the Knapp exponent at ``point``.  A point off the open square, too few
    scales (`InsufficientOctaves`) and a bad scale fail before any witness."""
    if not (0 < point.x < 1 and 0 < point.y < 1):
        raise ValueError(f"exponent point {point} needs 0 < x, y < 1")
    scales = sorted(set(float(e) for e in eps_list), reverse=True)
    if len(scales) < 3:
        raise InsufficientOctaves(
            f"insufficient octaves: a slope fit needs at least 3 scales, "
            f"got {len(scales)}")
    p, q = 1.0 / float(point.x), 1.0 / float(point.y)
    specs = [SymbolSpec(family, d, k, eps=eps) for eps in scales]
    vals = [certified_lower_bound(knapp_witness(family, d, eps), spec, p, q)
            for eps, spec in zip(scales, specs)]
    kind = ExponentKind.TILDE_KNAPP if family == "tilde" \
        else ExponentKind.ME_KNAPP
    theory = float(theoretical_exponent(kind, d, k, point))
    return SlopeCheck(fit_scaling(scales, vals), theory, KNAPP_TOL)


def ring_fit(d: int, k: int, eps: float, seed: int = 0) -> SlopeCheck:
    """Slope fit of ring-piece L2 -> L6 norms for j = 0..3 at d = 3, the
    dimension of `ring_grid`; the dimension is checked and all four specs
    are built first, so bad input fails before lattice work."""
    if d != 3:
        raise ValueError(f"ring lattices are 3-d, got d = {d}")
    specs = [SymbolSpec("ring", d, k, eps=eps, j=j) for j in range(4)]
    ests = [estimate_operator_norm(ring_grid(j), spec, 2.0, 6.0, seed=seed,
                                   n_random=1, max_iter=12, tol=1e-3)
            for j, spec in enumerate(specs)]
    return SlopeCheck(fit_scaling([(2.0 ** j) * eps for j in range(4)],
                                  [e.value for e in ests]),
                      float(theoretical_exponent(ExponentKind.L2_RING, d, k)),
                      RING_TOL, tuple(e.upper for e in ests))


def fan_out(fn: Callable[..., Any], *iterables: Iterable[Any],
            threads: int) -> list[Any]:
    """``list(map(fn, *iterables))``, on ``threads`` pool workers above 1.
    At 1 it runs on the calling thread: no worker thread, whose own malloc
    arena would hold its arrays, and no import of the pool machinery."""
    if threads == 1:
        return list(map(fn, *iterables))
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *iterables))


def abs_mtilde(d: int, k: int, t: float, scales: Sequence[float],
               radii: Sequence[np.ndarray], threads: int) -> list[list[float]]:
    """|m~| at time t at each scale's radii, on ``threads`` workers."""
    spec = Phi5Spec(d, k)

    def one(eps: float, ys: np.ndarray) -> list[float]:
        return [abs(mtilde_radial(d, k, eps, spec, float(y), t)) for y in ys]

    return fan_out(one, scales, radii, threads=threads)


class ResonantScan(NamedTuple):
    """|m~| at each scale's resonant window centres, judged as a band."""

    scales: list[float]
    params: list[LowerBoundParams]
    centers: list[np.ndarray]
    values: list[list[float]]   # |m~| at the centres
    mins: list[float]           # the least |m~| in the resonant set, or 0
    ok: bool
    detail: str
    measures: dict[str, float]  # the band, and the least scaled minimum


def resonant_scan(d: int, k: int, scales: Sequence[float], t: float,
                  threads: int) -> ResonantScan:
    """The scaled resonant-set minima ``eps^(k - d/2) min |m~|`` at time t,
    judged as a band over the distinct scales, in their first order.  Fewer
    than 2 (`InsufficientOctaves`) and a non-finite t fail before any
    centre is built, and every scale's centres are built before
    `abs_mtilde` evaluates any, so a scale without a window fails first."""
    scales = list(dict.fromkeys(scales))
    if len(scales) < 2:
        raise InsufficientOctaves(f"insufficient octaves: a band needs at "
                                  f"least 2 scales, got {len(scales)}")
    if not math.isfinite(t):
        raise ValueError(f"need a finite time t, got t={t}")
    params = [LowerBoundParams.make(d, k, eps) for eps in scales]
    centers = [frak_s_sample(p) for p in params]
    values = abs_mtilde(d, k, t, scales, centers, threads)
    mins = [min((v for y, v in zip(ys, vals)
                 if in_resonant_set(p, float(y))), default=0.0)
            for p, ys, vals in zip(params, centers, values)]
    scaled = [eps ** (k - d / 2.0) * low for eps, low in zip(scales, mins)]
    parts = (list(scales), params, centers, values, mins)
    empty = [eps for eps, low in zip(scales, scaled) if not low > 0]
    if empty:
        return ResonantScan(*parts, False, "no positive resonant-set sample "
                            "at eps = " + ", ".join(f"{e:g}" for e in empty),
                            {"min": 0.0})
    band = max(scaled) / min(scaled)
    return ResonantScan(
        *parts, band <= BAND_TOL,
        f"scaled resonant-set minimum spans a factor {band:.3f} band over "
        f"{len(scales)} scales (tol {tol_text(BAND_TOL)})",
        {"band": band, "min": min(scaled)})


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

#: A1's (d, k); the last four add edge cases of the ``tables:`` clauses:
#: 2k = d - 2 (no G), 2k = d - 1, and a large d
_GEOMETRY_PAIRS = ((5, 2), (7, 2), (3, 1), (9, 3), (4, 1), (6, 2), (11, 5),
                   (15, 4))


def _a1_exact_geometry() -> tuple[bool, str]:
    """Rational identities for the exponent square, the exponent tables'
    among them (`geometry_identities`), at eight (d, k) pairs, and at each
    of their d the clause that composing k = 1 reaches no k >= 2
    (`_composed_k1_identity`)."""
    errs = [f"({d},{k}) {name}" for d, k in _GEOMETRY_PAIRS
            for name, holds in geometry_identities(d, k).items() if not holds]
    errs += [f"({d},1) tables: composing k = 1 reaches k >= 2"
             for d, _ in _GEOMETRY_PAIRS if not _composed_k1_identity(d)]
    if regions.special_points(regions.DimensionPair(7, 2))["G"] != \
            regions.ExponentPoint(Fraction(55, 84), Fraction(1, 12)):
        errs.append("(7,2) G value")
    # nothing is admissible once k >= d/2: the gap line leaves the square
    for d, k in ((3, 2), (7, 4), (9, 5)):
        dims = regions.DimensionPair(d, k)
        for i in range(1, 12):
            for jj in range(1, 12):
                pt = regions.ExponentPoint(Fraction(i, 12), Fraction(jj, 12))
                if regions.carleman_range(dims, pt):
                    errs.append(f"({d},{k}) should be empty at {pt}")
    ok = not errs
    detail = ("exact geometry holds at " + ", ".join(
        f"({d},{k})" for d, k in _GEOMETRY_PAIRS)
        + " plus the emptiness and composed k = 1 cases"
        if ok else "failed: " + "; ".join(errs[:4]))
    return ok, detail


def _a2_symbol_identities() -> tuple[bool, str]:
    """Decomposition reconstruction and the imaginary-part closed form."""
    rng = np.random.Generator(np.random.Philox(11))
    n_pts = 10_000
    errs = [symbol_errors(d, k, 2.0 ** -5, n_pts, rng)
            for d, k in ((3, 1), (5, 2), (9, 3))]
    worst_recon = max([0.0] + [e[0] for e in errs])
    worst_im = max([0.0] + [e[1] for e in errs])
    ok = worst_recon <= SYMBOL_TOL and worst_im <= SYMBOL_TOL
    return ok, (f"reconstruction rel {worst_recon:.2e}, imaginary-part rel "
                f"{worst_im:.2e} over {3 * n_pts} points "
                f"(tol {tol_text(SYMBOL_TOL)})")


def _a3_distribution_identities() -> tuple[bool, str]:
    """Pullback pairing identities and the order-shuffling identities."""
    rng = np.random.Generator(np.random.Philox(23))
    worst_half = 0.0
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        phi = PolyGauss.random(n, rng)
        lhs = pair_pullback(1, 1.0, phi)
        rhs = 0.5 * sphere_integral(phi, n)
        worst_half = max(worst_half,
                         abs(lhs - rhs) / max(abs(rhs), 1e-300))
    worst_pull = worst_rel_err(distid_cases(rng))
    worst_counter = worst_rel_err(counter_cases(rng))
    ok = (worst_half <= SPHERE_MEASURE_TOL and worst_pull <= PAIRING_TOL
          and worst_counter <= PAIRING_TOL)
    return ok, (f"sphere-measure constant rel {worst_half:.2e} "
                f"(tol {tol_text(SPHERE_MEASURE_TOL)}); "
                f"pullback rel {worst_pull:.2e}, order-shuffle rel "
                f"{worst_counter:.2e} (tol {tol_text(PAIRING_TOL)})")


def _a4_inversion_identity() -> tuple[bool, str]:
    """Inversion transform commutes with the fractional Laplacian."""
    checks = kelvin_checks()
    return all(c.ok for c in checks), "; ".join(
        f"s={c.s}: {c.detail}" for c in checks)


def knapp_scaling() -> tuple[bool, str, dict[str, float]]:
    """Thin-slab lower-bound slopes for both symbol families at d=3, k=1,
    over eps = 2^-3..2^-6."""
    eps_list = [2.0 ** -m for m in range(3, 7)]
    point = regions.ExponentPoint(Fraction(3, 4), Fraction(1, 4))
    fits = {family: knapp_fit(family, 3, 1, eps_list, point)
            for family in ("tilde", "eps")}
    measures = {f"{family}_{key}": value for family, c in fits.items()
                for key, value in c.measures.items()}
    return all(c.ok for c in fits.values()), "; ".join(
        f"{family}: {c.detail}" for family, c in fits.items()), measures


def _a6_lower_bound_scaling() -> tuple[bool, str, dict[str, float]]:
    """Resonant-set minimum of the witness image: band and slope."""
    d, k = 5, 2
    scan = resonant_scan(d, k, [2.0 ** -m for m in range(4, 9)], 0.0, 1)
    slope = SlopeCheck(fit_scaling(scan.scales, scan.mins), d / 2.0 - k, 0.15)
    return (scan.ok and slope.ok, f"{scan.detail}, {slope.detail}",
            scan.measures | slope.measures)


def _a7_moment_bounds() -> tuple[bool, str]:
    """Log law of the absolute moment; window bounds for the others."""
    spec = Phi5Spec(5, 2)
    prof = CustomCutoff(spec.varphi, spec.support)
    eps_list = [2.0 ** -m for m in range(4, 11)]
    grow, c_eps, big_c = [], [], []
    for eps in eps_list:
        grow.append(i_integral("tilde2_abs", 1.0, 0.0, eps, prof))
        params = LowerBoundParams.make(5, 2, eps)
        r_lo, r_hi = annulus_radii(params)
        ys = np.linspace(r_lo, r_hi, 5)
        taus = (0.5, 1.0, 1.5, 2.0)
        c_eps.append(min(i_integral("1", t, float(y), eps, prof)
                         for y in ys for t in taus))
        big_c.append(max(max(abs(i_integral("2", t, float(y), eps, prof)),
                             abs(i_integral("4", t, float(y), eps, prof)))
                         for y in ys for t in taus))
    slope = float(np.polyfit(np.log(1.0 / np.asarray(eps_list)),
                             np.asarray(grow), 1)[0])
    drift_lo = max(c_eps) / min(c_eps)
    drift_hi = max(big_c) / min(big_c)
    ok = (abs(slope - 1.0) <= LOG_LAW_TOL and min(c_eps) > 0.0
          and drift_lo < DRIFT_TOL and drift_hi < DRIFT_TOL)
    return ok, (f"log-law slope {slope:.3f} "
                f"(tol 1 +- {tol_text(LOG_LAW_TOL)}); lower moment "
                f">= {min(c_eps):.3f} drift {drift_lo:.2f}, upper moments "
                f"<= {max(big_c):.3f} drift {drift_hi:.2f} "
                f"(tol < {tol_text(DRIFT_TOL)})")


def _a8_ring_scaling() -> tuple[bool, str, dict[str, float]]:
    """Ring-piece operator norms against the thickness power law."""
    c = ring_fit(3, 1, 2.0 ** -6)
    return c.ok, c.detail, c.measures


def _a9_decomposition_oracle() -> tuple[bool, str]:
    """Direct radial evaluation against the integrated-by-parts form."""
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    count = 0
    for d, k in ((5, 2), (7, 2)):
        spec = Phi5Spec(d, k)
        for _ in range(25):
            eps = float(2.0 ** -rng.uniform(3.0, 7.0))
            y = float(rng.uniform(1.0, 40.0))
            t = float(rng.uniform(-6.0, 6.0))
            tol = 1e-7 * eps ** (d / 2.0 - k)
            direct = mtilde_radial(d, k, eps, spec, y, t, abs_tol=tol)
            total = j_decomposition(d, k, eps, spec, y, t, abs_tol=tol).total
            worst = max(worst, abs(direct - total) / abs(direct))
            count += 1
    return worst <= DECOMPOSITION_TOL, (
        f"worst rel deviation {worst:.2e} over {count} samples "
        f"(tol {tol_text(DECOMPOSITION_TOL)})")


#: a criterion's outcome: ``(ok, detail)``, or ``(ok, detail, measures)``
#: when it has numbers to report
Outcome = tuple[bool, str] | tuple[bool, str, dict[str, float]]

CRITERIA: dict[str, tuple[str, Callable[[], Outcome], float]] = {
    "A1": ("exact exponent-square geometry", _a1_exact_geometry, 1.0),
    "A2": ("symbol decomposition and imaginary part", _a2_symbol_identities,
           5.0),
    "A3": ("distribution pairing identities", _a3_distribution_identities,
           120.0),
    "A4": ("inversion identity on the grid", _a4_inversion_identity, 120.0),
    "A5": ("thin-slab scaling, both families", knapp_scaling, 600.0),
    "A6": ("resonant-set lower-bound scaling", _a6_lower_bound_scaling,
           900.0),
    "A7": ("moment log law and window bounds", _a7_moment_bounds, 300.0),
    "A8": ("ring-piece norm scaling", _a8_ring_scaling, 600.0),
    "A9": ("radial versus decomposition cross-oracle",
           _a9_decomposition_oracle, 300.0),
}


def check_criterion_ids(ids: Sequence[str]) -> None:
    """Raise `KeyError` naming the first id that is not a criterion."""
    for cid in ids:
        if cid not in CRITERIA:
            raise KeyError(f"unknown criterion {cid!r}; pick from "
                           f"{sorted(CRITERIA)}")


def run_criterion(cid: str) -> Verdict:
    """Execute one criterion by id and time it.

    An unknown id raises `KeyError`.  Whatever the criterion raises becomes
    a fail.  A pass that overruns the criterion's budget is a fail.  The
    measures hold the criterion's own, if it reports any (A5, A6 and A8
    report their fits' `SlopeCheck.measures`), and the wall time,
    ``"seconds"``.
    """
    check_criterion_ids([cid])
    _, fn, budget = CRITERIA[cid]
    start = time.perf_counter()
    measures: dict[str, float] = {}
    try:
        ok, detail, *reported = fn()
        if reported:
            measures = dict(reported[0])
    except Exception as exc:  # noqa: BLE001 - a verdict must always come back
        ok, detail = False, f"error: {exc!r}"
    elapsed = time.perf_counter() - start
    if ok and elapsed >= budget:
        ok = False
        detail += f"; over budget ({elapsed:.1f}s >= {budget:.0f}s)"
    return Verdict.judge(cid, ok, detail, measures | {"seconds": elapsed})
