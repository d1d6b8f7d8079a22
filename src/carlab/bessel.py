"""Bessel functions J_nu for integer and half-integer order, 0 <= nu <= 16.

Two regimes, chosen per point:

* r < 12: ascending power series with lgamma-stabilised coefficients.  The
  largest term at r = 12 is ~4e3, so the alternating cancellation costs at
  most ~1e-12 absolute -- inside the 1e-10 budget with room to spare.
* r >= 12: Hankel asymptotic expansions seed J at the two lowest orders of the
  parity class (J_0, J_1 for integers; closed forms for J_1/2, J_3/2), then
  upward recurrence J_{nu+1} = (2 nu / r) J_nu - J_{nu-1}.  Upward recurrence
  is only unstable once nu exceeds r; with nu <= 16 and r >= 12 the dominant
  (Neumann) solution grows by an O(1) factor, so the seeds' ~1e-15 error stays
  ~1e-14.

`bessel_ju` returns r^-nu J_nu(r), the form every radial Fourier transform
here actually consumes; its series has no r^nu prefactor, so r = 0 is regular.
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_CUT = 12.0
MAX_NU = 16.0


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if nu < 0 or nu > MAX_NU or round(2 * nu) != 2 * nu:
        raise ValueError(f"order must be integer or half-integer in [0, {MAX_NU}], got {nu}")
    return nu


def _series_ju(nu: float, r: np.ndarray) -> np.ndarray:
    """r^-nu J_nu(r) by the ascending series, r < _SERIES_CUT."""
    x = 0.25 * r * r
    out = np.zeros_like(r)
    term = np.full_like(r, math.exp(-math.lgamma(nu + 1.0) - nu * math.log(2.0)))
    out += term
    for m in range(1, 60):
        term = term * (-x) / (m * (m + nu))
        out += term
        if np.all(np.abs(term) <= 1e-18 * (1.0 + np.abs(out))):
            break
    return out


def _hankel_j01(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu for nu in {0, 1} by the Hankel asymptotic expansion, r >= 12.

    The divergent tails are truncated at s = 10: at the worst point r = 12 the
    terms are still shrinking there and the first omitted one is ~1e-11, which
    bounds the truncation error of these alternating expansions.
    """
    mu = 4.0 * nu * nu
    inv8r = 1.0 / (8.0 * r)
    p = np.ones_like(r)
    q = (mu - 1.0) * inv8r
    term_p = np.ones_like(r)
    term_q = q.copy()
    sign = -1.0
    for s in range(1, 11):
        k1 = 2 * s - 1
        k2 = 2 * s
        term_p = term_p * (mu - (2 * k1 - 1) ** 2) * (mu - (2 * k2 - 1) ** 2) \
            * inv8r * inv8r / (k1 * k2)
        term_q = term_q * (mu - (2 * k2 - 1) ** 2) * (mu - (2 * k2 + 1) ** 2) \
            * inv8r * inv8r / (k2 * (k2 + 1))
        p = p + sign * term_p
        q = q + sign * term_q
        sign = -sign
        if np.all(np.abs(term_p) <= 1e-17) and np.all(np.abs(term_q) <= 1e-17):
            break
    omega = r - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * r)) * (p * np.cos(omega) - q * np.sin(omega))


def _seed_pair(nu_frac: float, r: np.ndarray):
    """(J_a, J_{a+1}) at the lowest orders of the parity class, r >= 12."""
    if nu_frac == 0.0:
        return _hankel_j01(0.0, r), _hankel_j01(1.0, r)
    pref = np.sqrt(2.0 / (math.pi * r))
    j_half = pref * np.sin(r)
    j_3half = pref * (np.sin(r) / r - np.cos(r))
    return j_half, j_3half


def bessel_j(nu: float, r) -> np.ndarray:
    """J_nu(r) for scalar order nu, vectorised over r >= 0."""
    nu = _check_nu(nu)
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    out = np.empty_like(r_arr)

    small = r_arr < _SERIES_CUT
    if np.any(small):
        rs = r_arr[small]
        with np.errstate(under="ignore"):
            out[small] = _series_ju(nu, rs) * rs ** nu
    big = ~small
    if np.any(big):
        rb = r_arr[big]
        frac = nu - math.floor(nu)
        j_lo, j_hi = _seed_pair(frac, rb)
        target = int(math.floor(nu - frac + 0.5))  # steps above the seed order
        a = frac
        for _ in range(target):
            j_lo, j_hi = j_hi, (2.0 * (a + 1.0) / rb) * j_hi - j_lo
            a += 1.0
        out[big] = j_lo
    return float(out[0]) if scalar else out


def bessel_ju(nu: float, r) -> np.ndarray:
    """u_nu(r) = r^-nu J_nu(r), regular at r = 0 (value 1 / (2^nu Gamma(nu+1)))."""
    nu = _check_nu(nu)
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    out = np.empty_like(r_arr)
    small = r_arr < _SERIES_CUT
    if np.any(small):
        out[small] = _series_ju(nu, r_arr[small])
    big = ~small
    if np.any(big):
        rb = r_arr[big]
        with np.errstate(under="ignore"):
            out[big] = bessel_j(nu, rb) * np.exp(-nu * np.log(rb))
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
