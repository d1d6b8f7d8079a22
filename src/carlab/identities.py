"""Distribution identities around the degenerate sphere, and point inversion.

Three families of checks live here, each with two genuinely independent
evaluation routes:

* pullbacks of the derivative-of-delta distributions through ``rho^2 -
  |theta|^2``, reduced by radial substitution to one-dimensional derivatives
  of a sphere-average profile, against the order-lowering operator
  ``L = (n - 2 + theta . grad) / (2 |theta|^2)``;
* the order-shuffling pairing identities for the rescaled symbol family,
  evaluated by radial x sphere product quadrature on the support annulus;
* the point-inversion transform ``T_s u = |x|^(2s-d) u(x/|x|^2)`` and its
  exact intertwining with the fractional Laplacian, realised spectrally as
  the multiplier ``|xi|^(2s)`` (constant-free; no Riesz-potential constants
  enter anywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bump import CutoffSpec, Psi0Cutoff, psi
from .quadrature import (QuadratureError, gauss_kronrod_batch, leggauss,
                         panel_offsets)
from .spectral import GridField


# ---------------------------------------------------------------------------
# test functions closed under L
# ---------------------------------------------------------------------------


class PolyGauss:
    """``sum_j p_j(theta) |theta|^(-2j) exp(-c |theta|^2)`` on R^n.

    Polynomials are dicts mapping exponent multi-indices to coefficients.
    The family is closed under the order-lowering operator: since
    ``theta . grad`` scales a monomial by its total degree,

        L (p |theta|^(-2j) e) = ((n-2-2j) p + theta.grad p)/2 |theta|^(-2(j+1)) e
                                 - c p |theta|^(-2j) e,

    so `apply_L` is exact symbolic arithmetic, to any order.  Terms with
    j > 0 blow up at the origin; all pairings used here evaluate on annuli.
    With c = 0 the Gaussian factor degenerates to 1 (useful for pointwise
    checks, not for integrable pairings).
    """

    def __init__(self, n: int, c: float,
                 terms: Mapping[int, Mapping[tuple, float]]):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = int(n)
        self.c = float(c)
        clean: dict[int, dict[tuple, float]] = {}
        for j, poly in terms.items():
            kept = {tuple(int(b) for b in beta): float(co)
                    for beta, co in poly.items() if co != 0.0}
            for beta in kept:
                if len(beta) != self.n or min(beta) < 0:
                    raise ValueError(f"bad multi-index {beta} for n={n}")
            if kept:
                clean[int(j)] = kept
        self.terms = clean

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "PolyGauss":
        """One to three random monomials, each of degree at most 3 per
        axis and 4 in total (a heavier draw becomes the constant), plus a
        positive constant, times a random Gaussian."""
        poly: dict[tuple, float] = {}
        for _ in range(int(rng.integers(1, 4))):
            beta = tuple(int(b) for b in rng.integers(0, 4, n))
            if sum(beta) > 4:
                beta = (0,) * n
            poly[beta] = poly.get(beta, 0.0) + float(rng.uniform(-1.5, 1.5))
        poly[(0,) * n] = poly.get((0,) * n, 0.0) + float(rng.uniform(0.5, 1.0))
        return cls(n, float(rng.uniform(0.5, 1.5)), {0: poly})

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        out = np.zeros_like(r2)
        for j, poly in self.terms.items():
            acc = np.zeros_like(r2)
            for beta, co in poly.items():
                mono = np.full_like(r2, co)
                for axis, power in enumerate(beta):
                    if power:
                        mono = mono * pts[..., axis] ** power
                acc += mono
            if j:
                acc = acc / r2 ** j
            out += acc
        return out * np.exp(-self.c * r2)

    def sphere_average(self, r, nodes: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
        """``sum_k weights_k phi(r nodes_k)`` at radii r, with r factored out.

        On the sphere each term is ``co r^(|beta|-2j) w^beta exp(-c r^2)``, so
        the rule enters only through the moments ``M_beta = sum_k weights_k
        nodes_k^beta``, taken once per call.
        """
        r = np.asarray(r, dtype=float)
        by_power: dict[int, float] = {}
        for j, poly in self.terms.items():
            for beta, co in poly.items():
                mono = weights
                for axis, power in enumerate(beta):
                    if power:
                        mono = mono * nodes[:, axis] ** power
                e = sum(beta) - 2 * j
                by_power[e] = by_power.get(e, 0.0) + co * float(np.sum(mono))
        out = np.zeros_like(r)
        for e, co in by_power.items():
            out = out + co * r ** e
        return out * np.exp(-self.c * r * r)

    def apply_L(self) -> "PolyGauss":
        new: dict[int, dict[tuple, float]] = {}

        def add(j, beta, co):
            if co:
                new.setdefault(j, {})
                new[j][beta] = new[j].get(beta, 0.0) + co

        for j, poly in self.terms.items():
            for beta, co in poly.items():
                deg = sum(beta)
                add(j + 1, beta, co * (self.n - 2 + deg - 2 * j) / 2.0)
                add(j, beta, -self.c * co)
        return PolyGauss(self.n, self.c, new)


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------


def sphere_nodes(n: int, level: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature nodes/weights on S^(n-1), n in {2, 3, 4}.

    Weights sum to the surface area.  The rules are exact for polynomial
    integrands of degree < 2*level (trigonometric degree < 2*level on the
    azimuth), which covers every polynomial-times-radial function used here.
    """
    if level < 2:
        raise ValueError("level >= 2")
    if n == 2:
        m = 2 * level
        ang = 2.0 * np.pi * np.arange(m) / m
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return pts, np.full(m, 2.0 * np.pi / m)
    if n == 3:
        u, wu = leggauss(level)  # u = cos(polar)
        m = 2 * level
        ang = 2.0 * np.pi * np.arange(m) / m
        su = np.sqrt(1.0 - u ** 2)
        pts = np.stack(np.broadcast_arrays(
            su[:, None] * np.cos(ang)[None, :],
            su[:, None] * np.sin(ang)[None, :],
            u[:, None] * np.ones(m)[None, :]), axis=-1).reshape(-1, 3)
        w = (wu[:, None] * np.full(m, 2.0 * np.pi / m)[None, :]).ravel()
        return pts, w
    if n == 4:
        t, wt = leggauss(level)
        chi = 0.5 * np.pi * (t + 1.0)                        # [0, pi]
        wchi = wt * (0.5 * np.pi) * np.sin(chi) ** 2
        u, wu = leggauss(level)  # u = cos(theta)
        m = 2 * level
        ang = 2.0 * np.pi * np.arange(m) / m
        wphi = np.full(m, 2.0 * np.pi / m)
        sc, cc = np.sin(chi), np.cos(chi)
        su = np.sqrt(1.0 - u ** 2)
        x1 = cc[:, None, None] * np.ones((1, level, m))
        x2 = sc[:, None, None] * u[None, :, None] * np.ones(m)[None, None, :]
        x3 = sc[:, None, None] * su[None, :, None] * np.cos(ang)[None, None, :]
        x4 = sc[:, None, None] * su[None, :, None] * np.sin(ang)[None, None, :]
        pts = np.stack([x1, x2, x3, x4], axis=-1).reshape(-1, 4)
        w = (wchi[:, None, None] * wu[None, :, None]
             * wphi[None, None, :]).ravel()
        return pts, w
    raise ValueError(f"sphere quadrature implemented for n in {{2,3,4}}, got {n}")


def sphere_integral(fn: Callable[[np.ndarray], np.ndarray], n: int,
                    level: int = 12) -> float:
    pts, w = sphere_nodes(n, level)
    return float(np.real(np.asarray(fn(pts)) @ w))


# ---------------------------------------------------------------------------
# pullback pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingResult:
    """Two-route evaluation of one pairing, with its discrepancy.

    For scalar pairings ``abs_err = |lhs - rhs|`` exactly.  For field
    comparisons (`verify_kelvin`) ``lhs``/``rhs`` are the two L^2 norms and
    ``abs_err`` the L^2 distance, which bounds ``|lhs - rhs|`` from above.
    """

    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float

    @staticmethod
    def from_pair(lhs, rhs) -> "PairingResult":
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        return PairingResult(lhs, rhs, abs_err,
                             abs_err / scale if scale > 0 else 0.0)


_FD_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _fd_derivative(g: Callable[[float], float], order: int, h: float) -> float:
    """Central difference of the given order with one Richardson sweep."""
    if order == 0:
        return g(0.0)
    if order not in _FD_STENCILS:
        raise ValueError(f"finite differences implemented to order 3, got {order}")

    def diff(step: float) -> float:
        return sum(co * g(idx * step) for idx, co in _FD_STENCILS[order]) \
            / step ** order

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


#: Sphere rule level of the pairings, and the finite-difference step of the
#: pullback pairings.
_SPHERE_LEVEL = 12
_PULLBACK_STEP = 1e-3


def pair_pullback(k: int, rho: float, phi: PolyGauss) -> float:
    """Pair the order-k delta pullback through ``rho^2 - |theta|^2`` with phi,
    a test function on R^n, ``n = phi.n``.

    Radial substitution turns the pairing into a pure 1-D object: with
    ``Phi(r) = r^(n-1) int_{S^(n-1)} phi(r w) dsigma(w)``,

        pairing = (-1)^(k-1) (d/du)^(k-1) [ Phi(sqrt(rho^2-u))
                                            / (2 sqrt(rho^2-u)) ] at u=0.

    The u-derivative is taken by Richardson-extrapolated central differences
    on the composite, which is analytic in u near 0.
    """
    if k < 1 or rho <= 0:
        raise ValueError("need k >= 1 and rho > 0")
    n = phi.n
    nodes, weights = sphere_nodes(n, _SPHERE_LEVEL)

    def profile(r: float) -> float:
        avg = phi.sphere_average(r, nodes, weights)
        return r ** (n - 1) * float(np.real(avg))

    def composite(u: float) -> float:
        r = math.sqrt(rho * rho - u)
        return profile(r) / (2.0 * r)

    value = _fd_derivative(composite, k - 1, _PULLBACK_STEP)
    return (-1.0) ** (k - 1) * value


def verify_dist_identity(k: int, rho: float,
                         phi: PolyGauss) -> PairingResult:
    """Order-k pullback pairing against the order-1 pairing with L^(k-1) phi."""
    lhs = pair_pullback(k, rho, phi)
    g = phi
    for _ in range(k - 1):
        g = g.apply_L()
    rhs = pair_pullback(1, rho, g)
    return PairingResult.from_pair(lhs, rhs)


# ---------------------------------------------------------------------------
# order-shuffling identities for the rescaled family
# ---------------------------------------------------------------------------


def _radial_slice(r: np.ndarray, power: int, cutoff: CutoffSpec, delta: float,
                  eps: float, tau: float) -> np.ndarray:
    a = r * r - 1.0 + eps * eps * tau * tau
    den = (a + 2j * eps * tau) ** power
    return cutoff((1.0 - r * r) / delta) * psi(tau) / den


#: Absolute GK tolerance and panel cap of the order-shuffling pairings.
_COUNTER_TOL = 1e-10
_COUNTER_PANELS = 4096


def _pair_batch(terms, d: int, delta: float, eps: float,
                tau: float) -> np.ndarray:
    """Integrate several annulus pairings in one adaptive pass.

    Each term is (power, cutoff, func); the integral runs over the radial
    support of the cutoff, with the sphere factor from ``func.sphere_average``
    on a product rule (the integrands are radial x smooth, so the product
    rule is exact in the angular variable for polynomial test functions).
    """
    nodes, weights = sphere_nodes(d - 1, _SPHERE_LEVEL)
    lo = math.sqrt(max(0.0, 1.0 - 2.0 * delta))
    hi = math.sqrt(1.0 + 2.0 * delta)
    cuts = [1.0 - eps * eps * tau * tau, 1.0 - delta, 1.0, 1.0 + delta]
    breaks = sorted({math.sqrt(c) for c in cuts if lo * lo < c < hi * hi})

    def integrand(r: np.ndarray) -> np.ndarray:
        rows = []
        for power, cutoff, func in terms:
            avg = func.sphere_average(r, nodes, weights)
            rows.append(_radial_slice(r, power, cutoff, delta, eps, tau)
                        * r ** (d - 2) * avg)
        return np.stack(rows, axis=0)

    vals, _ = gauss_kronrod_batch(integrand, lo, hi, abs_tol=_COUNTER_TOL,
                                  breakpoints=tuple(breaks),
                                  max_panels=_COUNTER_PANELS)
    return vals


def verify_counter_identities(kind: str, k: int, eps: float, delta: float,
                              tau: float, h: PolyGauss) -> PairingResult:
    """Check one of the two order-shuffling pairing identities.

    ``kind="induc"``: the order-k pairing against the plateau cutoff
    ``psi0`` at scale ``delta`` expands into order-1 pairings with
    derivative cutoffs and powers of L applied to the test function, with
    coefficients ``(-1)^l / (delta^l (k-1-l)! l!)``.

    ``kind="rev"``: the order-1 pairing against ``L^(k-1) h`` re-sums into
    higher-order pairings with coefficients ``(k-1)! / (delta^l l!)``.

    The test function lives on R^(d-1) with d inferred from it; both sides
    are evaluated by the same radial x sphere quadrature but on entirely
    different integrands, so agreement is a genuine two-route check.
    """
    if kind not in ("induc", "rev"):
        raise ValueError(f"kind must be 'induc' or 'rev', got {kind!r}")
    if k < 1:
        raise ValueError("need k >= 1")
    if not 0 < delta < 0.5:
        raise ValueError("need 0 < delta < 1/2")
    zeta = Psi0Cutoff()
    d = h.n + 1
    l_pow: list[PolyGauss] = [h]
    for _ in range(k - 1):
        l_pow.append(l_pow[-1].apply_L())

    if kind == "induc":
        terms = [(k, zeta, h)]
        coeffs = [1.0]
        for ell in range(k):
            terms.append((1, zeta.derivative(ell), l_pow[k - 1 - ell]))
            coeffs.append((-1.0) ** ell
                          / (delta ** ell
                             * math.factorial(k - 1 - ell)
                             * math.factorial(ell)))
    else:
        terms = [(1, zeta, l_pow[k - 1])]
        coeffs = [1.0]
        for ell in range(k):
            terms.append((k - ell, zeta.derivative(ell), h))
            coeffs.append(math.factorial(k - 1)
                          / (delta ** ell * math.factorial(ell)))

    vals = _pair_batch(terms, d, delta, eps, tau)
    lhs = vals[0]
    rhs = sum(c * v for c, v in zip(coeffs[1:], vals[1:]))
    return PairingResult.from_pair(lhs, rhs)


# ---------------------------------------------------------------------------
# point inversion and the fractional Laplacian
# ---------------------------------------------------------------------------


def eval_field_at_points(field: GridField,
                         points: np.ndarray) -> np.ndarray:
    """The field's function f at arbitrary points, by trigonometric
    interpolation on its shifted frequency lattice.

    Sums the frequency modes whose magnitude exceeds 1e-15 times the peak
    (the discarded mass is bounded by that times the mode count), chunked
    to keep the phase matrices small.  At a lattice point x this is the
    space sample there times ``exp(i sigma . x)``.
    """
    F = field.to_freq()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    coeffs = F.values
    peak = np.abs(coeffs).max()
    if peak == 0.0:
        return np.zeros(points.shape[0], dtype=complex)
    idx = np.nonzero(np.abs(coeffs) > 1e-15 * peak)
    axes = F.freq_axes()
    xi = np.stack([axes[a][idx[a]] for a in range(F.d)], axis=-1)
    sel = coeffs[idx]
    scale = 1.0
    for length in F.periods:
        scale /= length
    out = np.zeros(points.shape[0], dtype=complex)
    chunk = max(1, int(4e6) // max(1, points.shape[0]))
    for start in range(0, sel.size, chunk):
        xs = xi[start:start + chunk]
        cs = sel[start:start + chunk]
        out += np.exp(1j * points @ xs.T) @ cs
    return out * scale


def _period_breakpoints(lo: float, hi: float, freq: float,
                        periods: float) -> tuple[float, ...]:
    """Interior breakpoints of ``[lo, hi]``, ``periods`` periods of
    ``sin(freq * x)`` apart; none when ``freq`` is 0.

    Starting an adaptive quadrature of an oscillatory integrand from panels
    of about the oscillation period spares it the bisection rounds that
    would find them blindly (QUADPACK's QAWO places panels the same way).
    """
    if freq == 0.0:
        return ()
    step = periods * 2.0 * np.pi / freq
    return tuple(np.arange(lo + step, hi - 0.5 * step, step))


def _sinc_panels(rho: np.ndarray, t: np.ndarray,
                 weight: np.ndarray) -> np.ndarray:
    """``4 pi sin(rho t) / (rho t) * weight`` for radii ``rho`` (R,) and
    quadrature nodes ``t`` laid out as `gauss_kronrod_batch` hands them over.

    The d = 3 sphere transform, by angle addition over each node's split
    ``t = mid + off`` (`panel_offsets`): two trig calls per (radius, panel)
    and 30 per (radius, distinct offset row) instead of 15 per (radius,
    panel).  ``4 pi / rho`` and ``weight / t`` are folded into factors, so no
    ``rho`` and no ``t`` may be 0; interior GK nodes of an interval that
    starts at 0 or beyond never are.
    """
    mid, off, row = panel_offsets(t)
    scale = (4.0 * np.pi / rho)[:, None]
    arg = np.multiply.outer(rho, mid)
    sin_mid = scale * np.sin(arg)
    cos_mid = scale * np.cos(arg)
    arg = np.multiply.outer(rho, off)                     # (R, U, 15)
    out = np.take(np.cos(arg), row, axis=1)
    out *= sin_mid[:, :, None]
    term = np.take(np.sin(arg), row, axis=1)
    term *= cos_mid[:, :, None]
    out += term
    out *= (weight / t).reshape(mid.size, -1)
    return out.reshape(rho.size, -1)


def _radial_hat(profile, support: tuple[float, float],
                rho: np.ndarray) -> np.ndarray:
    """Continuum Fourier transform of a radial profile on R^3, at radii
    ``rho > 0``.

    ``profile`` is a plain callable of t, sampled at the GK nodes: the
    profile itself, or the `radial_fractional_at` integrand that reads a
    cutoff jet, so no derivative is taken here.  Processes ``rho`` in
    chunks: the quadrature is vectorized over the chunk, and high radii need
    thousands of oscillation panels, so one monolithic (rho, node) array
    could run to gigabytes.  Each chunk's integral over t starts from panels
    two periods ``2 * 2 pi / rho_max`` wide, ``rho_max`` the chunk's largest
    radius, and refines adaptively from there.  Of starting widths from half
    a period to four, two periods needed the fewest kernel evaluations on
    A4's oracle.  The kernel shares its trig calls across each panel's
    nodes (`_sinc_panels`); a chunk's panels come in few widths, so
    its distinct offset rows are few (8.5% of the panels on A4's
    oracle).  ``support[0] > 0`` keeps t off 0 there.
    """
    lo, hi = support
    out = np.empty(rho.shape)
    for start in range(0, rho.size, 512):
        part = rho[start:start + 512]

        def inner(t: np.ndarray) -> np.ndarray:
            base = np.asarray(profile(t), dtype=float) * t ** 2
            return _sinc_panels(part, t, base)

        brk = _period_breakpoints(lo, hi, float(part.max()), 2.0)
        vals, _ = gauss_kronrod_batch(inner, lo, hi, abs_tol=1e-13,
                                      rel_tol=1e-10, breakpoints=brk,
                                      max_panels=16384)
        out[start:start + 512] = vals
    return out


def _radial_laplacian_terms(d: int, m: int) -> dict[tuple[int, int], float]:
    """Term table for ``(-Delta)^m`` applied to a radial profile.

    Keys ``(i, p)`` mean ``coeff * t**p * profile^(i)(t)``; built by iterating
    ``-(f'' + (d-1)/r f')`` on the symbolic term list.
    """
    terms: dict[tuple[int, int], float] = {(0, 0): 1.0}
    for _ in range(m):
        new: dict[tuple[int, int], float] = {}
        for (i, p), c in terms.items():
            for key, inc in (((i, p - 2), -c * p * (p - 2 + d)),
                             ((i + 1, p - 1), -c * (2 * p + d - 1)),
                             ((i + 2, p), -c)):
                if inc != 0.0:
                    new[key] = new.get(key, 0.0) + inc
        terms = {k: v for k, v in new.items() if v != 0.0}
    return terms


def radial_fractional_at(profile: CutoffSpec, support: tuple[float, float],
                         d: int, s: float, radii, *, rel_tol: float = 1e-9,
                         rho_cap: float = 2048.0) -> np.ndarray:
    """``(-Delta)^s u`` at the given radii for radial ``u = profile(|x|)``
    on R^d; implemented for d = 3, and any other d is rejected before any
    quadrature.

    Pure continuum evaluation by nested radial quadrature: the spectral
    profile of u first, then the inverse transform with the ``rho^(2s)``
    weight, extended over frequency octaves until the last octave is
    negligible.  Shares nothing with the grid machinery, so it serves as an
    independent oracle for the spectral route.

    High-frequency octaves are delicate: the spectral profile there is
    computed by cancellation, so its absolute roundoff (~1e-16) times the
    ``rho^(2s+d-1)`` weight would swamp the true, rapidly decaying signal.
    Tail octaves instead integrate ``rho^(2s+d-1-2m)`` against the transform
    of ``(-Delta)^m u`` -- the same function, but with the amplification
    factor removed.  Its integrand reads all the orders it needs from one
    ``profile.jet(t, 2m)`` per node set, so the profile must be a
    `CutoffSpec` with analytic derivatives up to order ``2m``; any other
    profile is rejected before any quadrature.

    Both quadratures start from panels sized by their kernel's oscillation
    period (`_period_breakpoints`): the outer one over rho from panels one
    period ``2 pi / max(radii)`` wide, the inner one over t in
    `_radial_hat` from panels two periods ``2 * 2 pi / rho_max`` wide,
    ``rho_max`` the largest radius of each 512-radius chunk.  Both kernels
    share their trig calls across each panel's nodes (`_sinc_panels`).

    The inner transforms, which cost the most, depend on ``radii`` only
    through the outer panels, so one call over many radii costs little more
    than a call over a few: `verify_kelvin` makes one call over all its
    lattices' radii.
    """
    if d != 3:
        raise ValueError(f"the radial oracle is implemented for d = 3, "
                         f"got d={d}")
    m = math.ceil(s + (d - 1) / 2.0)  # residual power in (-2, 0]
    if not (isinstance(profile, CutoffSpec) and profile.max_order >= 2 * m):
        raise ValueError(f"the profile must be a CutoffSpec with derivatives "
                         f"up to order {2 * m}")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    rmax = float(radii.max())
    terms = _radial_laplacian_terms(d, m)

    def shifted(t: np.ndarray) -> np.ndarray:
        jet = profile.jet(t, 2 * m)
        out = np.zeros_like(np.asarray(t, dtype=float))
        for (i, p), c in terms.items():
            out = out + c * t ** p * jet[i]
        return out

    def outer(fn, power: float):
        def kernel(rho: np.ndarray) -> np.ndarray:
            weight = rho ** power * _radial_hat(fn, support, rho)
            return _sinc_panels(radii, rho, weight)
        return kernel

    head = outer(profile, 2.0 * s + d - 1)
    tail = outer(shifted, 2.0 * s + d - 1 - 2 * m)

    total = np.zeros(radii.shape)
    edge = 0.0
    width = 64.0
    while True:
        hi = edge + width
        # pre-split so each panel sees at most ~one oscillation period
        brk = _period_breakpoints(edge, hi, rmax, 1.0)
        # Tail octaves that are pure roundoff get an absolute floor tied to
        # the running total so they cannot exhaust the panel budget.
        floor = max(1e-13, rel_tol * float(np.max(np.abs(total))))
        seg, _ = gauss_kronrod_batch(head if edge == 0.0 else tail, edge, hi,
                                     abs_tol=floor, rel_tol=1e-9,
                                     breakpoints=brk, max_panels=16384)
        total = total + seg
        scale = float(np.max(np.abs(total)))
        if edge > 0.0 and float(np.max(np.abs(seg))) <= rel_tol * scale:
            break
        edge = hi
        if edge >= rho_cap:
            raise QuadratureError(
                f"spectral tail of the radial profile not negligible by "
                f"rho={rho_cap}")
    return total / (2.0 * np.pi) ** d


def fractional_laplacian(values: np.ndarray, periods: Sequence[float],
                         s: float) -> np.ndarray:
    """``(-Delta)^s`` of the real space samples ``values`` of an unmodulated
    periodic lattice with box lengths ``periods``, on the half spectrum:
    ``rfftn``, times ``|xi|^(2s)`` on the half lattice, then ``irfftn``'s
    own sequence with its ``ifft``s in place (the cell volume cancels).
    The ``|xi|^2`` sum is raised to its power and multiplied in place, and
    ``values`` is dropped after ``rfftn``: a caller that passes a temporary
    frees it before the inverse, which allocates only its real output.
    """
    if s <= 0:
        raise ValueError("need s > 0")
    shape = values.shape
    ints = ([np.fft.fftfreq(n, 1.0 / n) for n in shape[:-1]]
            + [np.fft.rfftfreq(shape[-1], 1.0 / shape[-1])])
    xi = np.meshgrid(*((2.0 * np.pi / L) * k for k, L in zip(ints, periods)),
                     indexing="ij", sparse=True)
    coeffs = np.fft.rfftn(values)
    del values
    power = sum(x ** 2 for x in xi)
    power **= s
    coeffs *= power
    del power
    for ax in range(len(shape) - 1):
        np.fft.ifft(coeffs, axis=ax, out=coeffs)
    return np.fft.irfft(coeffs, n=shape[-1], axis=-1)


#: period of the inversion checks' d = 3 lattices, the box `inversion_bump` fits
KELVIN_PERIOD = 5.0


def _lattice_radii(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n^3 lattice's radius table ``r = sqrt(h^2 arange(3 (n//2)^2 + 1))``
    and the sums ``K`` of each point's squared centred indices, so that the
    point's radius is ``r[K]``; exact for the period `KELVIN_PERIOD`."""
    h = KELVIN_PERIOD / n
    c = (np.arange(n) + n // 2) % n - n // 2
    K = sum(np.meshgrid(*[c * c] * 3, indexing="ij", sparse=True))
    return np.sqrt(h * h * np.arange(3 * (n // 2) ** 2 + 1)), K


def _kelvin_samples(u: CutoffSpec, s: float, n: int,
                    support: tuple[float, float]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The spectral side of `verify_kelvin` on the n^3 lattice, at its
    sample points, and the points' radii.

    ``T_s u`` is radial, so it is evaluated once per entry of the radius
    table (`_lattice_radii`) and gathered; the sample mask and the seed-0
    draw read the same table.  The full-size arrays live only inside this
    call, so none is held while the oracle runs.
    """
    r, K = _lattice_radii(n)
    # The inversion transform is supported where 1/r lies in the profile's
    # annulus; outside a slightly padded version of that shell it is
    # exactly 0, so it is evaluated on the shell only.
    shell = (r >= 0.9 / support[1]) & (r <= 1.1 / support[0])
    t_tab = np.zeros(r.shape)
    t_tab[shell] = (r[shell] ** (2.0 * s - 3)
                    * np.asarray(u(1.0 / r[shell]), dtype=float))
    # a temporary, so that fractional_laplacian frees it before the inverse
    lhs = fractional_laplacian(t_tab[K], (KELVIN_PERIOD,) * 3, s)

    flat = np.flatnonzero(((r >= 0.7) & (r <= 1.4))[K])
    if flat.size == 0:
        raise ValueError("no lattice point has radius in [0.7, 1.4]")
    if s != 1.0 and flat.size > 400:
        rng = np.random.Generator(np.random.Philox(0))
        flat = np.sort(rng.choice(flat, size=400, replace=False))
    return lhs.ravel()[flat], r[K.ravel()[flat]]


def verify_kelvin(u: CutoffSpec, s: float,
                  sizes: Sequence[int]) -> list[PairingResult]:
    """Compare ``(-Delta)^s T_s u`` with ``|x|^(-d-2s) ((-Delta)^s u) o inv``
    on each n^3 lattice, n in ``sizes``; one `PairingResult` per lattice.

    ``u`` is a radial profile whose ``support`` is an annulus around 1 and
    whose inversion transform fits inside the half-period (u itself is
    never sampled, so its own outer radius is unconstrained).  The left
    side is computed on the real half-spectrum (`fractional_laplacian`)
    from lattice samples of ``T_s u`` taken once per radius.  The right
    side, at the lattice points with radius in [0.7, 1.4], needs
    ``(-Delta)^s u`` at the off-lattice inverted radii.  For s = 1 it uses
    the exact radial Laplacian ``-(u'' + (d-1) u'/r)`` from the profile's
    derivatives.  Otherwise it uses the continuum radial-quadrature oracle
    `radial_fractional_at` to relative tolerance 1e-6, on 400 of each
    lattice's points drawn with seed 0.  One oracle call serves all the
    lattices: it runs once, over the union of their inverted radii, after
    each lattice's spectral side is reduced to its sample points.  Either
    way the right side never touches the grid transform, so this is a
    genuine two-route comparison, reported in relative L^2.
    """
    d = 3
    if not 0.0 < s < d:
        raise ValueError("need 0 < s < d")
    support = (max(u.support[0], 1e-9), u.support[1])
    if not (0.0 < support[0] < support[1] < math.inf
            and 1.0 / support[0] < KELVIN_PERIOD / 2.0):
        raise ValueError("the profile's inversion transform (outer radius "
                         "1/support[0]) must fit inside the half-period")
    samples = [_kelvin_samples(u, s, n, support) for n in sizes]
    r_all = np.concatenate([r_pts for _, r_pts in samples])
    inv_norm = 1.0 / r_all
    if s == 1.0:
        lap = -(u(inv_norm, 2) + (d - 1) / inv_norm * u(inv_norm, 1))
    else:
        lap = radial_fractional_at(u, support, d, s, inv_norm,
                                   rel_tol=1e-6, rho_cap=4096.0)
    rhs_all = r_all ** (-d - 2.0 * s) * lap

    results = []
    cuts = np.cumsum([r_pts.size for _, r_pts in samples])[:-1]
    for (lhs_vals, _), rhs_vals in zip(samples, np.split(rhs_all, cuts)):
        dist = float(np.linalg.norm(lhs_vals - rhs_vals))
        nl = float(np.linalg.norm(lhs_vals))
        nr = float(np.linalg.norm(rhs_vals))
        results.append(PairingResult(lhs=nl, rhs=nr, abs_err=dist,
                                     rel_err=dist / nr if nr > 0 else 0.0))
    return results
