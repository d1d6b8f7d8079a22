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
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .bessel import sphere_hat
from .bump import CutoffSpec, Psi0Cutoff, eval_cutoff, psi
from .quadrature import QuadratureError, gauss_kronrod_batch
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
    def monomial(cls, n: int, c: float, beta: Sequence[int],
                 coeff: float = 1.0) -> "PolyGauss":
        return cls(n, c, {0: {tuple(beta): coeff}})

    @classmethod
    def gaussian(cls, n: int, c: float = 1.0) -> "PolyGauss":
        return cls.monomial(n, c, (0,) * n)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator,
               max_terms: int = 3, max_degree: int = 3) -> "PolyGauss":
        poly: dict[tuple, float] = {}
        for _ in range(int(rng.integers(1, max_terms + 1))):
            beta = tuple(int(b) for b in rng.integers(0, max_degree + 1, n))
            if sum(beta) > max_degree + 1:
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


class RadialPower:
    """``coeff |theta|^a``; L maps it to ``coeff (n-2+a)/2 |theta|^(a-2)``."""

    def __init__(self, n: int, a: float, coeff: float = 1.0):
        self.n = int(n)
        self.a = float(a)
        self.coeff = float(coeff)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return self.coeff * r2 ** (self.a / 2.0)

    def sphere_average(self, r, nodes: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
        """``sum_k weights_k phi(r nodes_k)``: the rule's area times coeff r^a."""
        r = np.asarray(r, dtype=float)
        return self.coeff * r ** self.a * float(np.sum(weights))

    def apply_L(self) -> "RadialPower":
        return RadialPower(self.n, self.a - 2.0,
                           self.coeff * (self.n - 2 + self.a) / 2.0)


class CustomTest:
    """Arbitrary callable with a caller-supplied image under L (optional)."""

    def __init__(self, n: int, fn: Callable[[np.ndarray], np.ndarray],
                 l_image: "CustomTest | None" = None):
        self.n = int(n)
        self._fn = fn
        self._l_image = l_image

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(pts, dtype=float)))

    def sphere_average(self, r, nodes: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
        """``sum_k weights_k phi(r nodes_k)`` at radii r, by sampling."""
        r = np.asarray(r, dtype=float)
        return self(r[..., None, None] * nodes) @ weights

    def apply_L(self) -> "CustomTest":
        if self._l_image is None:
            raise ValueError("no derivative closure supplied for L")
        return self._l_image


TestFunction = Union[PolyGauss, RadialPower, CustomTest]

_MAX_L_ORDER = 8


def L_apply(phi: TestFunction, m: int, theta) -> np.ndarray:
    """Evaluate ``L^m phi`` at points away from the origin (exact chain)."""
    if not 0 <= m <= _MAX_L_ORDER:
        raise ValueError(f"order m={m} outside [0, {_MAX_L_ORDER}]")
    theta = np.asarray(theta, dtype=float)
    if np.any(np.sum(theta * theta, axis=-1) == 0.0):
        raise ValueError("L is only defined away from the origin")
    g = phi
    for _ in range(m):
        g = g.apply_L()
    return g(theta)


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
        u, wu = np.polynomial.legendre.leggauss(level)       # u = cos(polar)
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
        t, wt = np.polynomial.legendre.leggauss(level)
        chi = 0.5 * np.pi * (t + 1.0)                        # [0, pi]
        wchi = wt * (0.5 * np.pi) * np.sin(chi) ** 2
        u, wu = np.polynomial.legendre.leggauss(level)       # u = cos(theta)
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


def sphere_area(n: int) -> float:
    return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)


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
    quadrature_nodes: int

    @staticmethod
    def from_pair(lhs, rhs, nodes: int) -> "PairingResult":
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        return PairingResult(lhs, rhs, abs_err,
                             abs_err / scale if scale > 0 else 0.0, nodes)


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


def pair_pullback(k: int, rho: float, phi: TestFunction, n: int | None = None,
                  *, level: int = 12, h: float = 1e-3) -> float:
    """Pair the order-k delta pullback through ``rho^2 - |theta|^2`` with phi.

    Radial substitution turns the pairing into a pure 1-D object: with
    ``Phi(r) = r^(n-1) int_{S^(n-1)} phi(r w) dsigma(w)``,

        pairing = (-1)^(k-1) (d/du)^(k-1) [ Phi(sqrt(rho^2-u))
                                            / (2 sqrt(rho^2-u)) ] at u=0.

    The u-derivative is taken by Richardson-extrapolated central differences
    on the composite, which is analytic in u near 0.
    """
    if k < 1 or rho <= 0:
        raise ValueError("need k >= 1 and rho > 0")
    n = n if n is not None else phi.n
    nodes, weights = sphere_nodes(n, level)

    def profile(r: float) -> float:
        avg = phi.sphere_average(r, nodes, weights)
        return r ** (n - 1) * float(np.real(avg))

    def composite(u: float) -> float:
        r = math.sqrt(rho * rho - u)
        return profile(r) / (2.0 * r)

    value = _fd_derivative(composite, k - 1, h)
    return (-1.0) ** (k - 1) * value


def verify_dist_identity(k: int, rho: float, phi: TestFunction,
                         n: int | None = None, *, level: int = 12,
                         h: float = 1e-3) -> PairingResult:
    """Order-k pullback pairing against the order-1 pairing with L^(k-1) phi."""
    n = n if n is not None else phi.n
    lhs = pair_pullback(k, rho, phi, n, level=level, h=h)
    g = phi
    for _ in range(k - 1):
        g = g.apply_L()
    rhs = pair_pullback(1, rho, g, n, level=level, h=h)
    n_nodes = sphere_nodes(n, level)[0].shape[0]
    evals = n_nodes * (5 * 2 + 1)  # stencil evaluations, both routes, bound
    return PairingResult.from_pair(lhs, rhs, evals)


# ---------------------------------------------------------------------------
# order-shuffling identities for the rescaled family
# ---------------------------------------------------------------------------


def _radial_slice(r: np.ndarray, power: int, cutoff: CutoffSpec, delta: float,
                  eps: float, tau: float) -> np.ndarray:
    a = r * r - 1.0 + eps * eps * tau * tau
    den = (a + 2j * eps * tau) ** power
    return eval_cutoff(cutoff, (1.0 - r * r) / delta) * psi(tau) / den


def _pair_batch(terms, d: int, delta: float, eps: float, tau: float,
                level: int, abs_tol: float) -> tuple[np.ndarray, int]:
    """Integrate several annulus pairings in one adaptive pass.

    Each term is (power, cutoff, func); the integral runs over the radial
    support of the cutoff, with the sphere factor from ``func.sphere_average``
    on a product rule (the integrands are radial x smooth, so the product
    rule is exact in the angular variable for polynomial test functions).
    """
    nodes, weights = sphere_nodes(d - 1, level)
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

    tries = [(tuple(breaks), 4096)]
    graded = sorted(set(breaks) | {math.sqrt(1.0 - delta / 2 ** m)
                                   for m in range(1, 6)}
                    | {math.sqrt(1.0 + delta / 2 ** m) for m in range(1, 6)})
    tries.append((tuple(b for b in graded if lo < b < hi), 16384))
    last_exc: QuadratureError | None = None
    for brk, cap in tries:
        try:
            vals, _ = gauss_kronrod_batch(integrand, lo, hi, abs_tol=abs_tol,
                                          breakpoints=brk, max_panels=cap)
            return vals, nodes.shape[0] * cap
        except QuadratureError as exc:
            last_exc = exc
    raise last_exc


def verify_counter_identities(kind: str, k: int, eps: float, delta: float,
                              tau: float, h: TestFunction, *,
                              zeta: CutoffSpec | None = None, level: int = 12,
                              abs_tol: float = 1e-10) -> PairingResult:
    """Check one of the two order-shuffling pairing identities.

    ``kind="induc"``: the order-k pairing against the plateau cutoff at scale
    ``delta`` expands into order-1 pairings with derivative cutoffs and
    powers of L applied to the test function, with coefficients
    ``(-1)^l / (delta^l (k-1-l)! l!)``.

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
    zeta = zeta if zeta is not None else Psi0Cutoff()
    d = h.n + 1
    l_pow: list[TestFunction] = [h]
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

    vals, nodes = _pair_batch(terms, d, delta, eps, tau, level, abs_tol)
    lhs = vals[0]
    rhs = sum(c * v for c, v in zip(coeffs[1:], vals[1:]))
    return PairingResult.from_pair(lhs, rhs, nodes)


# ---------------------------------------------------------------------------
# point inversion and the fractional Laplacian
# ---------------------------------------------------------------------------


def invert_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    return x / r2


def eval_field_at_points(field: GridField, points: np.ndarray,
                         rel_threshold: float = 1e-15) -> np.ndarray:
    """Trigonometric interpolation of a grid field at arbitrary points.

    Sums the frequency modes whose magnitude exceeds ``rel_threshold`` times
    the peak (the discarded mass is bounded by the threshold times the mode
    count), chunked to keep the phase matrices small.
    """
    F = field.to_freq()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    coeffs = F.values
    peak = np.abs(coeffs).max()
    if peak == 0.0:
        return np.zeros(points.shape[0], dtype=complex)
    idx = np.nonzero(np.abs(coeffs) > rel_threshold * peak)
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


def kelvin(u: Union[GridField, Callable[[np.ndarray], np.ndarray]], s: float,
           x: np.ndarray) -> np.ndarray:
    """The transform ``T_s u`` at points x: ``|x|^(2s-d) u(x/|x|^2)``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    d = pts.shape[-1]
    r = np.sqrt(np.sum(pts * pts, axis=-1))
    if np.any(r == 0.0):
        raise ValueError("the inversion is undefined at the origin")
    inv = invert_points(pts)
    if isinstance(u, GridField):
        vals = eval_field_at_points(u, inv)
    else:
        vals = np.asarray(u(inv))
    out = r ** (2.0 * s - d) * vals
    return out[0] if single else out


def _centered_radii(grid: GridField) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for ax, (x, L) in enumerate(zip(grid.space_axes(), grid.periods)):
        xc = np.mod(x + L / 2.0, L) - L / 2.0
        shape = [1] * grid.d
        shape[ax] = -1
        r2 = r2 + xc.reshape(shape) ** 2
    return np.sqrt(r2)


def _centered_coords(grid: GridField, flat_index: np.ndarray) -> np.ndarray:
    idx = np.unravel_index(flat_index, grid.shape)
    cols = []
    for ax, (x, L) in enumerate(zip(grid.space_axes(), grid.periods)):
        cols.append(np.mod(x[idx[ax]] + L / 2.0, L) - L / 2.0)
    return np.stack(cols, axis=-1)


def _sphere_hat_vec(d: int, x: np.ndarray) -> np.ndarray:
    if d == 3:
        out = np.full_like(x, 4.0 * np.pi)
        nz = x != 0
        out[nz] = 4.0 * np.pi * np.sin(x[nz]) / x[nz]
        return out
    return sphere_hat(d, x)


def _radial_hat(profile, support: tuple[float, float], d: int,
                rho: np.ndarray) -> np.ndarray:
    """Continuum Fourier transform of a radial profile, at radii ``rho``.

    ``profile`` is a plain callable of t, sampled at the GK nodes: the
    profile itself, or the `radial_fractional_at` integrand that reads a
    cutoff jet, so no derivative is taken here.  Processes ``rho`` in
    chunks: the quadrature is vectorized over the chunk, and high radii need
    thousands of oscillation panels, so one monolithic (rho, node) array
    could run to gigabytes.
    """
    lo, hi = support
    out = np.empty(rho.shape)
    for start in range(0, rho.size, 512):
        part = rho[start:start + 512]

        def inner(t: np.ndarray) -> np.ndarray:
            base = np.asarray(profile(t), dtype=float) * t ** (d - 1)
            return _sphere_hat_vec(d, np.outer(part, t)) * base[None, :]

        vals, _ = gauss_kronrod_batch(inner, lo, hi, abs_tol=1e-13,
                                      rel_tol=1e-10, max_panels=16384)
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


def radial_fractional_at(profile, support: tuple[float, float], d: int,
                         s: float, radii, *, rel_tol: float = 1e-9,
                         rho_cap: float = 2048.0) -> np.ndarray:
    """``(-Delta)^s u`` at the given radii for radial ``u = profile(|x|)``.

    Pure continuum evaluation by nested radial quadrature: the spectral
    profile of u first, then the inverse transform with the ``rho^(2s)``
    weight, extended over frequency octaves until the last octave is
    negligible.  Shares nothing with the grid machinery, so it serves as an
    independent oracle for the spectral route.

    High-frequency octaves are delicate: the spectral profile there is
    computed by cancellation, so its absolute roundoff (~1e-16) times the
    ``rho^(2s+d-1)`` weight would swamp the true, rapidly decaying signal.
    When the profile is a `CutoffSpec` with analytic derivatives up to order
    ``2m``, tail octaves instead integrate ``rho^(2s+d-1-2m)`` against the
    transform of ``(-Delta)^m u`` -- the same function, but with the
    amplification factor removed.  Its integrand reads all the orders it
    needs from one ``profile.jet(t, 2m)`` per node set.  Other profiles keep
    the direct form, which is fine for spectra that die before the noise
    floor matters.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    rmax = float(radii.max())

    def outer(rho: np.ndarray) -> np.ndarray:
        weight = rho ** (2.0 * s + d - 1) * _radial_hat(profile, support, d,
                                                        rho)
        return _sphere_hat_vec(d, np.outer(radii, rho)) * weight[None, :]

    outer_tail = None
    m = math.ceil(s + (d - 1) / 2.0)  # residual power in (-2, 0]
    if isinstance(profile, CutoffSpec) and profile.max_order >= 2 * m:
        terms = _radial_laplacian_terms(d, m)

        def shifted(t: np.ndarray) -> np.ndarray:
            jet = profile.jet(t, 2 * m)
            out = np.zeros_like(np.asarray(t, dtype=float))
            for (i, p), c in terms.items():
                out = out + c * t ** p * jet[i]
            return out

        def outer_tail(rho: np.ndarray) -> np.ndarray:
            weight = (rho ** (2.0 * s + d - 1 - 2 * m)
                      * _radial_hat(shifted, support, d, rho))
            return _sphere_hat_vec(d, np.outer(radii, rho)) * weight[None, :]

    total = np.zeros(radii.shape)
    edge = 0.0
    width = 64.0
    while True:
        hi = edge + width
        # pre-split so each panel sees at most ~one oscillation period
        step = 2.0 * np.pi / rmax
        brk = tuple(np.arange(edge + step, hi - 0.5 * step, step))
        # Tail octaves that are pure roundoff get an absolute floor tied to
        # the running total so they cannot exhaust the panel budget.
        floor = max(1e-13, rel_tol * float(np.max(np.abs(total))))
        fn = outer if edge == 0.0 or outer_tail is None else outer_tail
        seg, _ = gauss_kronrod_batch(fn, edge, hi, abs_tol=floor,
                                     rel_tol=1e-9, breakpoints=brk,
                                     max_panels=16384)
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


def fractional_laplacian(field: GridField, s: float) -> GridField:
    """Apply ``(-Delta)^s`` spectrally (multiplier ``|xi|^(2s)``)."""
    if s <= 0:
        raise ValueError("need s > 0")
    F = field.to_freq()
    m2 = np.zeros(F.shape)
    for ax, xi in enumerate(F.freq_axes()):
        shape = [1] * F.d
        shape[ax] = -1
        m2 = m2 + xi.reshape(shape) ** 2
    out = F.with_values(m2 ** s * F.values, in_space=False)
    return out.to_space() if field.in_space else out


def kelvin_grid(d: int = 3, n: int = 128, period: float = 5.0) -> GridField:
    """Unmodulated isotropic box for the inversion checks."""
    return GridField(np.zeros((n,) * d, dtype=complex), (period,) * d,
                     (0.0,) * d, in_space=True)


def verify_kelvin(u: CutoffSpec | Callable[[np.ndarray], np.ndarray],
                  s: float, grid: GridField, *,
                  support: tuple[float, float] | None = None,
                  annulus: tuple[float, float] = (0.7, 1.4),
                  n_sample: int = 400, seed: int = 0,
                  oracle_rel_tol: float = 1e-6) -> PairingResult:
    """Compare ``(-Delta)^s T_s u`` with ``|x|^(-d-2s) ((-Delta)^s u) o inv``.

    ``u`` is a radial profile supported in an annulus around 1 whose
    inversion transform fits inside the half-period (u itself is never
    sampled, so its own outer radius is unconstrained).  The left side is
    computed spectrally from lattice samples of ``T_s u``.  The right side,
    at lattice points inside ``annulus``, needs ``(-Delta)^s u`` at the
    off-lattice inverted radii: for s = 1 and a profile with analytic
    derivatives this uses the exact radial Laplacian ``-(B'' + (d-1) B'/r)``;
    otherwise the continuum radial-quadrature oracle `radial_fractional_at`
    (to ``oracle_rel_tol``), restricted to ``n_sample`` of the points.
    Either way the right side never touches the grid transform, so this is a
    genuine two-route comparison, reported in relative L^2.
    """
    if not 0.0 < s < grid.d:
        raise ValueError("need 0 < s < d")
    d = grid.d
    profile = u
    analytic = u if isinstance(u, CutoffSpec) and s == 1.0 else None
    if support is None:
        if isinstance(u, CutoffSpec) and np.isfinite(u.support[1]):
            support = (max(u.support[0], 1e-9), u.support[1])
        else:
            support = (0.5, 2.0)
    half = min(grid.periods) / 2.0
    if not (0.0 < support[0] < support[1] < math.inf
            and 1.0 / support[0] < half):
        raise ValueError("the profile's inversion transform (outer radius "
                         "1/support[0]) must fit inside the half-period")
    radii = _centered_radii(grid)
    # The inversion transform is supported where 1/r lies in the profile's
    # annulus; outside a slightly padded version of that set it is exactly 0.
    r_min = 0.9 / support[1]
    safe = np.where(radii >= r_min, radii, 1.0)
    t_vals = np.where(radii >= r_min,
                      safe ** (2.0 * s - d)
                      * np.asarray(profile(1.0 / safe), dtype=float), 0.0)
    lhs_field = fractional_laplacian(grid.with_values(t_vals), s)

    mask = (radii >= annulus[0]) & (radii <= annulus[1])
    flat = np.flatnonzero(mask.ravel())
    if flat.size == 0:
        raise ValueError("annulus contains no lattice points")
    if analytic is None and flat.size > n_sample:
        rng = np.random.Generator(np.random.Philox(seed))
        flat = np.sort(rng.choice(flat, size=n_sample, replace=False))
    pts = _centered_coords(grid, flat)
    r_pts = np.sqrt(np.sum(pts * pts, axis=-1))
    inv_norm = 1.0 / r_pts

    if analytic is not None:
        lap = -(analytic(inv_norm, 2)
                + (d - 1) / inv_norm * analytic(inv_norm, 1))
        rhs_vals = r_pts ** (-d - 2.0 * s) * lap
    else:
        w_at = radial_fractional_at(profile, support, d, s, inv_norm,
                                    rel_tol=oracle_rel_tol, rho_cap=4096.0)
        rhs_vals = r_pts ** (-d - 2.0 * s) * w_at

    lhs_vals = np.real(lhs_field.values.ravel()[flat])
    dist = float(np.linalg.norm(lhs_vals - rhs_vals))
    nl = float(np.linalg.norm(lhs_vals))
    nr = float(np.linalg.norm(rhs_vals))
    return PairingResult(lhs=nl, rhs=nr, abs_err=dist,
                         rel_err=dist / nr if nr > 0 else 0.0,
                         quadrature_nodes=int(flat.size))
