"""Bessel functions J_nu for integer and half-integer order, 0 <= nu <= 16.

Two regimes, chosen per point, each a fixed-coefficient Horner polynomial:

* r < 12: the ascending series u_nu(r) = sum_m a_m (r^2/4)^m (DLMF 10.2.2),
  cut after the last term that can still reach 1e-17 of a_0 = u_nu(0) at the
  batch's largest r.  The largest term at r = 12 is ~4e3 a_0, so the
  alternating cancellation is what limits it.
* r >= 12: the Hankel expansions (DLMF 10.17.3), truncated at s = 10, seed
  (J_0, J_1) for integer orders and the closed forms seed (J_1/2, J_3/2);
  upward recurrence J_{nu+1} = (2 nu / r) J_nu - J_{nu-1} reaches the rest.
  Upward recurrence is only unstable once nu exceeds r; with nu <= 16 and
  r >= 12 the seeds' error grows by a factor of about 3.

Measured against scipy.special.jv at every order 0, 1/2, ..., 16: J_nu is
within 6.5e-13 absolute on [0, 12); on [12, 1e4] it is within 7.2e-15 at
half-integer orders and 3.2e-12 at integer ones, whose Hankel truncation
error peaks at r = 12; the error of u_nu is at most 2.4e-11 u_nu(0).

`bessel_ju` returns r^-nu J_nu(r), the form every radial Fourier transform
here actually consumes; its series has no r^nu prefactor, so r = 0 is regular.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SERIES_CUT = 12.0
MAX_NU = 16.0
_SERIES_TERMS = 60


def _hankel_coefs(nu: float) -> tuple[list[float], list[float]]:
    """P and 8r Q of the order-nu Hankel expansion as polynomials in
    z = (1/(8r))^2, lowest power first, truncated at s = 10.

    At the worst point r = 12 the terms are still shrinking at s = 10 and the
    first omitted one is ~1e-11, which bounds the truncation error of these
    alternating expansions.
    """
    mu = 4.0 * nu * nu
    term_p, term_q = 1.0, mu - 1.0
    p, q = [term_p], [term_q]
    sign = -1.0
    for s in range(1, 11):
        k1 = 2 * s - 1
        k2 = 2 * s
        term_p = term_p * (mu - (2 * k1 - 1) ** 2) * (mu - (2 * k2 - 1) ** 2) \
            / (k1 * k2)
        term_q = term_q * (mu - (2 * k2 - 1) ** 2) * (mu - (2 * k2 + 1) ** 2) \
            / (k2 * (k2 + 1))
        p.append(sign * term_p)
        q.append(sign * term_q)
        sign = -sign
    return p, q


# rows P_0, 8r Q_0, P_1, 8r Q_1; highest power of z first, for Horner's rule
_HANKEL = np.array([*_hankel_coefs(0.0), *_hankel_coefs(1.0)]).T[::-1, :, None]


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if nu < 0 or nu > MAX_NU or round(2 * nu) != 2 * nu:
        raise ValueError(f"order must be integer or half-integer in [0, {MAX_NU}], got {nu}")
    return nu


def _radii(r) -> tuple[np.ndarray, bool]:
    """r as a 1-D float array, and whether it came in as a scalar."""
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    return r_arr, scalar


@functools.lru_cache(maxsize=None)
def _series_coefs(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """a_m of u_nu = sum a_m (r^2/4)^m, and |a_m / a_0|."""
    a = [math.exp(-math.lgamma(nu + 1.0) - nu * math.log(2.0))]
    for m in range(1, _SERIES_TERMS):
        a.append(-a[-1] / (m * (m + nu)))
    a = np.array(a)
    return a, np.abs(a / a[0])


def _series_ju(nu: float, r: np.ndarray) -> np.ndarray:
    """r^-nu J_nu(r) by the ascending series, r < _SERIES_CUT."""
    x = 0.25 * r * r
    a, rel = _series_coefs(nu)
    reach = rel * float(np.max(x)) ** np.arange(_SERIES_TERMS)
    top = np.flatnonzero(reach >= 1e-17)[-1]
    out = np.full_like(x, a[top])
    for c in a[:top][::-1]:
        out *= x
        out += c
    return out


def _hankel_pair(r: np.ndarray):
    """(J_0, J_1) by the Hankel expansions, r >= 12.

    J_1's phase r - 3 pi/4 is J_0's rotated by -pi/2, so one cos and one sin
    of r - pi/4 serve both.
    """
    inv8r = 0.125 / r
    z = inv8r * inv8r
    acc = _HANKEL[0] * z
    for c in _HANKEL[1:-1]:
        acc += c
        acc *= z
    acc += _HANKEL[-1]
    p0, q0, p1, q1 = acc
    pref = np.sqrt(2.0 / (math.pi * r))
    omega = r - 0.25 * math.pi
    cos, sin = pref * np.cos(omega), pref * np.sin(omega)
    return p0 * cos - q0 * inv8r * sin, p1 * sin + q1 * inv8r * cos


def _seed_pair(nu_frac: float, r: np.ndarray):
    """(J_a, J_{a+1}) at the lowest orders of the parity class, r >= 12."""
    if nu_frac == 0.0:
        return _hankel_pair(r)
    pref = np.sqrt(2.0 / (math.pi * r))
    sin = np.sin(r)
    return pref * sin, pref * (sin / r - np.cos(r))


def _recur_j(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu(r), r >= 12: seed pair, then upward recurrence."""
    frac = nu - math.floor(nu)
    j_lo, j_hi = _seed_pair(frac, r)
    a = frac
    for _ in range(int(nu - frac)):  # steps above the seed order
        j_lo, j_hi = j_hi, (2.0 * (a + 1.0) / r) * j_hi - j_lo
        a += 1.0
    return j_lo


def bessel_j(nu: float, r) -> np.ndarray:
    """J_nu(r) for scalar order nu, vectorised over r >= 0."""
    nu = _check_nu(nu)
    r_arr, scalar = _radii(r)
    out = np.empty_like(r_arr)
    small = r_arr < _SERIES_CUT
    if np.any(small):
        rs = r_arr[small]
        with np.errstate(under="ignore"):
            out[small] = _series_ju(nu, rs) * rs ** nu
    big = ~small
    if np.any(big):
        out[big] = _recur_j(nu, r_arr[big])
    return float(out[0]) if scalar else out


def bessel_ju(nu: float, r) -> np.ndarray:
    """u_nu(r) = r^-nu J_nu(r), regular at r = 0 (value 1 / (2^nu Gamma(nu+1)))."""
    nu = _check_nu(nu)
    r_arr, scalar = _radii(r)
    out = np.empty_like(r_arr)
    small = r_arr < _SERIES_CUT
    if np.any(small):
        out[small] = _series_ju(nu, r_arr[small])
    big = ~small
    if np.any(big):
        rb = r_arr[big]
        with np.errstate(under="ignore"):
            out[big] = _recur_j(nu, rb) * np.exp(-nu * np.log(rb))
    return float(out[0]) if scalar else out


def sphere_hat(n: int, r) -> np.ndarray:
    """Fourier transform of the round unit-sphere measure in R^n at radius r.

    Equals (2 pi)^(n/2) u_{(n-2)/2}(r); at r = 0 this is the total surface
    area 2 pi^(n/2) / Gamma(n/2).  At n = 1 the sphere is {-1, 1}: 2 cos r.
    """
    if n == 1:
        return 2.0 * np.cos(r)
    nu = 0.5 * (n - 2)
    pref = (2.0 * math.pi) ** (0.5 * n)
    return pref * bessel_ju(nu, r)
