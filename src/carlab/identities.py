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
  the constant-free multiplier ``|xi|^(2s)`` on an even-n lattice (the
  radial, hence axis-even, field is held on its first octant and
  transformed by real DCT-Is), against a real-space oracle that carries
  the one-dimensional singular-integral constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bump import CutoffSpec, Psi0Cutoff, psi
from .quadrature import gauss_kronrod_batch, leggauss
from .spectral import GridField, _dct1


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


#: radii per quadrature batch of `radial_fractional_at`
_ORACLE_RADII = 64


def _oracle_order(d: int, s: float) -> tuple[int, float]:
    """``(m, s - m)``, ``m = floor(s)``, for a (d, s) the oracle handles."""
    m = math.floor(s)
    if d != 3 or not 0.0 < s < 3.0 or s - m in (0.0, 0.5):
        raise ValueError(f"the radial oracle needs d = 3 and 0 < s < 3 with "
                         f"s - floor(s) not 0 or 1/2; got d={d}, s={s}")
    return m, s - m


def radial_fractional_at(profile: CutoffSpec, support: tuple[float, float],
                         d: int, s: float, radii, *,
                         rel_tol: float = 1e-9) -> np.ndarray:
    """``(-Delta)^s u`` at the given radii for radial ``u = profile(|x|)``
    on R^d, in real space, for a (d, s) that `_oracle_order` admits and a
    `CutoffSpec` with derivatives to order ``n = 2m + 2``, ``m = floor(s)``;
    all else is refused before any quadrature.  Write ``sigma = s - m``.

    In R^3 the Fourier transform of a radial u is the sine transform of
    ``V(r) = r u(|r|)``, so ``(-Delta)^s u(r) = (-d^2/dr^2)^s V(r) / r``.
    With ``W = (-1)^m V^(2m)``, the one-dimensional singular integral of W
    (Di Nezza, Palatucci and Valdinoci 2012), integrated by parts twice, is

        c int_0^(r + support[1]) (W''(r+h) + W''(r-h)) h^(1-2 sigma) dh,

    ``c = 4^sigma Gamma(1/2+sigma) / (2 sqrt(pi) Gamma(1-sigma) (1-2 sigma))``
    and ``W''(x) = (-1)^m sign(x) (|x| u^(n) + n u^(n-1))(|x|)``, read from
    the profile's jet on the support: no cancellation, no tail and no
    Fourier transform.  ``h = v^(1/(1-sigma))`` makes the weight linear in
    v.  Each radius's h-range splits at the three points inside
    ``(0, r + support[1])`` where ``r +- h`` crosses ``+-support``, and
    its k-th segment maps linearly in v onto ``[k, k + 1]``, its Jacobian
    carried into the integrand.  Ascending batches of `_ORACLE_RADII`
    radii then share one `gauss_kronrod_batch` over ``[0, 4]`` with
    breakpoints at the integers, so every radius's support crossings sit
    on panel ends; no value depends on the radii's order.
    """
    m, sigma = _oracle_order(d, s)
    n = 2 * m + 2
    if not (isinstance(profile, CutoffSpec) and profile.max_order >= n):
        raise ValueError(f"the profile must be a CutoffSpec with derivatives "
                         f"up to order {n}")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    lo, hi = support
    p = 1.0 / (1.0 - sigma)
    c = (4.0 ** sigma * math.gamma(0.5 + sigma) / (2.0 * math.sqrt(math.pi)
         * math.gamma(1.0 - sigma) * (1.0 - 2.0 * sigma)))

    order = np.argsort(radii, kind="stable")
    out = np.empty(radii.shape)
    for start in range(0, radii.size, _ORACLE_RADII):
        batch = order[start:start + _ORACLE_RADII]
        r = radii[batch][:, None]
        # h-ends of each radius's four segments: the crossings are the
        # three largest of these five, each clipped into [0, r + hi]
        cross = np.sort(np.clip(np.hstack([hi - r, lo - r, r - lo, r - hi,
                                           r + lo]), 0.0, r + hi), axis=1)
        ends = np.hstack([np.zeros_like(r), cross[:, 2:], r + hi])
        ends **= 1.0 - sigma
        jacs = np.diff(ends, axis=1)

        def integrand(z: np.ndarray) -> np.ndarray:
            # z in [k, k + 1] is segment k, linear in v; V^(n) = (-1)^m W''
            # at r + h and r - h, 0 off +-support
            k = np.minimum(z.astype(int), 3)
            jac = jacs[:, k]
            v = ends[:, k] + (z - k) * jac
            h = v ** p
            x = np.stack([r + h, r - h])
            t = np.abs(x)
            on = np.flatnonzero((t >= lo) & (t <= hi))
            t_on = t.ravel()[on]
            jet = profile.jet(t_on, n)
            odd = np.zeros(x.size)
            odd[on] = np.sign(x.ravel()[on]) * (t_on * jet[n]
                                                + n * jet[n - 1])
            odd = odd.reshape(x.shape)
            return p * v * jac * (odd[0] + odd[1])

        vals, _ = gauss_kronrod_batch(
            integrand, 0.0, 4.0, abs_tol=1e-13, rel_tol=rel_tol,
            breakpoints=(1.0, 2.0, 3.0), max_panels=16384)
        out[batch] = (-1.0) ** m * c * vals / r[:, 0]
    return out


def fractional_laplacian(values: np.ndarray, periods: Sequence[float],
                         s: float) -> np.ndarray:
    """``(-Delta)^s`` of a real periodic lattice field that is even in every
    axis, given and returned on its first octant: ``n_i / 2 + 1`` samples
    per axis of a lattice with even ``n_i`` points over box length
    ``periods[i]``, octant index k standing for lattice indices k and
    ``n_i - k``.

    The DFT of an axis-even sequence is the DCT-I of its first half, so
    the transform is one DCT-I per axis, times ``|xi|^(2s) / prod n_i`` on
    the octant's frequencies ``2 pi k / periods[i]``, then one DCT-I per
    axis again (the cell volume cancels).  Each DCT-I's input is dropped
    once its output exists, the first one included, so a caller that
    passes a temporary frees it there; the multiplier exists only between
    the two passes.
    """
    if s <= 0:
        raise ValueError("need s > 0")
    shape = values.shape
    if min(shape) < 2:
        raise ValueError("need at least 2 samples per axis")
    for ax in range(len(shape)):
        values = _dct1(values, ax)
    xi = np.meshgrid(*((2.0 * np.pi / L) * np.arange(m)
                       for m, L in zip(shape, periods)),
                     indexing="ij", sparse=True)
    power = sum(x ** 2 for x in xi)
    power **= s
    power /= math.prod(2 * (m - 1) for m in shape)
    values *= power
    del power
    for ax in range(len(shape)):
        values = _dct1(values, ax)
    return values


#: period of the inversion checks' d = 3 lattices, the box `inversion_bump` fits
KELVIN_PERIOD = 5.0


def _lattice_radii(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n^3 lattice's radius table ``r = sqrt(h^2 arange(3 (n//2)^2 + 1))``
    and each axis index's octant index ``a = |c|``, c its centred index, so
    that point (i0, i1, i2) has radius ``r[a[i0]^2 + a[i1]^2 + a[i2]^2]``;
    exact for the period `KELVIN_PERIOD`."""
    h = KELVIN_PERIOD / n
    i = np.arange(n)
    return (np.sqrt(h * h * np.arange(3 * (n // 2) ** 2 + 1)),
            np.minimum(i, n - i))


def _kelvin_samples(u: CutoffSpec, s: float, n: int,
                    support: tuple[float, float]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The spectral side of `verify_kelvin` on the n^3 lattice, even n, at
    its sample points, and the points' radii.

    ``T_s u`` is radial, so it is even in every axis: it is evaluated once
    per entry of the radius table (`_lattice_radii`) and gathered onto the
    lattice's first octant, ``(n/2 + 1)^3`` points, which
    `fractional_laplacian` transforms.  The sample mask is read one axis-0
    plane at a time, giving the lattice's C-order flat indices, and the
    seed-0 draw picks from those; each sample then reads the octant at
    ``(|c0|, |c1|, |c2|)``.  No n^3 array is formed, and the octant field
    goes to the transform as a temporary.
    """
    r, a = _lattice_radii(n)
    a2 = a * a
    sampled = (r >= 0.7) & (r <= 1.4)
    plane = a2[:, None] + a2  # K on an axis-0 plane, less its own a0^2
    flat = np.concatenate([np.flatnonzero(sampled[plane + k]) + i * n * n
                           for i, k in enumerate(a2)])
    if s != 1.0 and flat.size > 400:
        rng = np.random.Generator(np.random.Philox(0))
        flat = np.sort(rng.choice(flat, size=400, replace=False))
    octant = [a[i] for i in np.unravel_index(flat, (n,) * 3)]
    radii = r[sum(k * k for k in octant)]
    m = n // 2 + 1
    cells = np.ravel_multi_index(octant, (m,) * 3)
    del flat, octant
    # The inversion transform is supported where 1/r lies in the profile's
    # annulus; outside a slightly padded version of that shell it is
    # exactly 0, so it is evaluated on the shell only.
    shell = (r >= 0.9 / support[1]) & (r <= 1.1 / support[0])
    t_tab = np.zeros(r.shape)
    t_tab[shell] = (r[shell] ** (2.0 * s - 3)
                    * np.asarray(u(1.0 / r[shell]), dtype=float))
    k2 = a2[:m]
    # popped, the field is held by the transform alone
    field = [t_tab[k2[:, None, None] + k2[:, None] + k2]]
    lhs = fractional_laplacian(field.pop(), (KELVIN_PERIOD,) * 3, s)
    return lhs.ravel()[cells], radii


def _kelvin_rhs(u: CutoffSpec, s: float, support: tuple[float, float],
                radii: np.ndarray) -> np.ndarray:
    """The right side ``|x|^(-d-2s) ((-Delta)^s u)(x/|x|^2)`` of
    `verify_kelvin` on R^3 at points of the given radii: computed once per
    distinct radius, in either branch, and gathered back."""
    d = 3
    r, back = np.unique(radii, return_inverse=True)
    inv_norm = 1.0 / r
    if s == 1.0:
        lap = -(u(inv_norm, 2) + (d - 1) / inv_norm * u(inv_norm, 1))
    else:
        lap = radial_fractional_at(u, support, d, s, inv_norm)
    return (r ** (-d - 2.0 * s) * lap)[back]


def verify_kelvin(u: CutoffSpec, s: float,
                  sizes: Sequence[int]) -> list[PairingResult]:
    """Compare ``(-Delta)^s T_s u`` with ``|x|^(-d-2s) ((-Delta)^s u) o inv``
    on each n^3 lattice, n in ``sizes``; one `PairingResult` per lattice.

    ``u`` is a radial profile whose ``support`` is an annulus around 1 and
    whose inversion transform fits inside the half-period (u itself is
    never sampled, so its own outer radius is unconstrained).  Each n must
    be even and at least 4.  ``T_s u`` is radial, so even in every axis,
    and the left side is computed on each lattice's first octant by real
    DCT-Is (`fractional_laplacian`) from samples of ``T_s u`` taken once
    per radius (`_kelvin_samples`); no n^3 array is formed.  The right
    side, at the lattice points with radius in [0.7, 1.4] (at s != 1, 400
    of each lattice's points drawn with seed 0), needs ``(-Delta)^s u`` at
    the off-lattice inverted radii; `_kelvin_rhs` computes it once per
    distinct radius of all the lattices together and gathers it back.  For
    s = 1 that is the exact radial Laplacian ``-(u'' + (d-1) u'/r)`` from
    the profile's derivatives.  Otherwise it is one call of the real-space
    oracle `radial_fractional_at` at its default relative tolerance 1e-9
    (so the batch a radius shares there does not move a lattice's error).
    Either way the right side never touches a Fourier transform, so this is
    a genuine two-route comparison, reported in relative L^2 (``inf`` when
    the right side vanishes and the left does not).
    """
    d = 3
    if not sizes or any(n < 4 or n % 2 for n in sizes):
        raise ValueError(f"sizes must be one or more even lattice sizes "
                         f"n >= 4; got {tuple(sizes)}")
    if s != 1.0:
        _oracle_order(d, s)  # before any lattice work
    support = (max(u.support[0], 1e-9), u.support[1])
    if not (0.0 < support[0] < support[1] < math.inf
            and 1.0 / support[0] < KELVIN_PERIOD / 2.0):
        raise ValueError("the profile's inversion transform (outer radius "
                         "1/support[0]) must fit inside the half-period")
    samples = [_kelvin_samples(u, s, n, support) for n in sizes]
    rhs_all = _kelvin_rhs(u, s, support,
                          np.concatenate([r_pts for _, r_pts in samples]))

    results = []
    cuts = np.cumsum([r_pts.size for _, r_pts in samples])[:-1]
    for (lhs_vals, _), rhs_vals in zip(samples, np.split(rhs_all, cuts)):
        # einsum, not a BLAS norm: see tests/test_no_threaded_blas.py
        diff = lhs_vals - rhs_vals
        dist = math.sqrt(np.einsum("i,i->", diff, diff))
        nr = math.sqrt(np.einsum("i,i->", rhs_vals, rhs_vals))
        nl = math.sqrt(np.einsum("i,i->", lhs_vals, lhs_vals))
        rel = dist / nr if nr > 0 else (math.inf if dist > 0 else 0.0)
        results.append(PairingResult(nl, nr, dist, rel))
    return results
