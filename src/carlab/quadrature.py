"""Batched Gauss-Kronrod 7-15 panels with global-adaptive refinement."""

from __future__ import annotations

import functools

import numpy as np

# 15-point Kronrod extension of 7-point Gauss, nonnegative abscissae
# (Gauss points are the alternating entries 1, 3, 5, 7), to 17 significant
# digits, enough for every double to round-trip.
_XGK = np.array([
    0.99145537112081264, 0.94910791234275852, 0.86486442335976907,
    0.74153118559939444, 0.58608723546769113, 0.40584515137739717,
    0.20778495500789847, 0.0,
])
_WGK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927667, 0.38183005050511894,
    0.41795918367346939,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # (15,)
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])              # (15,)
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WGAUSS = np.concatenate([_WG[:-1], _WG[::-1]])            # (7,)


class QuadratureError(RuntimeError):
    pass


def _panel_eval(f, lo, hi):
    """Evaluate K15/G7 on each panel.  lo, hi: (P,).  Returns (vals, errs): (M | (), P)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()  # (P*15,)
    fv = np.asarray(f(nodes))
    fv = fv.reshape(fv.shape[:-1] + (len(lo), 15))
    # einsum, not tensordot: see tests/test_no_threaded_blas.py
    k15 = np.einsum("...k,k->...", fv, _WK) * half
    g7 = np.einsum("...k,k->...", fv[..., _GAUSS_IDX], _WGAUSS) * half
    return k15, np.abs(k15 - g7)


def gauss_kronrod_batch(f, a: float, b: float, abs_tol: float = 1e-10,
                        breakpoints=(), max_panels: int = 4096,
                        rel_tol: float = 0.0):
    """Adaptively integrate a batched integrand over [a, b].

    ``f`` maps a node vector (N,) to an array (..., N) of integrand components
    evaluated at every node; all components share the panel subdivision.
    Returns (values, error_bounds) with the node axis integrated away.  The
    tolerance is enforced per component: error <= abs_tol + rel_tol * scale,
    where the scale is the L1 mass of the component's panel contributions (a
    cancellation-proof magnitude, as in the classic adaptive codes).
    """
    if not b > a:
        raise ValueError("need b > a")

    def _within(tot_err, vals):
        bound = abs_tol
        if rel_tol > 0.0:
            bound = bound + rel_tol * np.abs(vals).sum(axis=-1)
        return np.all(tot_err <= bound)

    pts = [a] + sorted(p for p in set(float(p) for p in breakpoints) if a < p < b) + [b]
    lo = np.array(pts[:-1])
    hi = np.array(pts[1:])
    vals, errs = _panel_eval(f, lo, hi)
    while True:
        tot_err = errs.sum(axis=-1)
        if _within(tot_err, vals):
            return vals.sum(axis=-1), tot_err
        if len(lo) >= max_panels:
            raise QuadratureError(
                f"tolerance (abs {abs_tol}, rel {rel_tol}) not reached with "
                f"{max_panels} panels (worst error {float(np.max(tot_err)):.3e})"
            )
        # split the panels carrying the largest per-component error share
        score = errs.reshape(-1, len(lo)).max(axis=0)
        n_split = max(1, min(len(lo), max_panels - len(lo), len(lo) // 4 + 1))
        order = np.argsort(score)[::-1][:n_split]
        keep = np.ones(len(lo), bool)
        keep[order] = False
        mids = 0.5 * (lo[order] + hi[order])
        new_lo = np.concatenate([lo[keep], lo[order], mids])
        new_hi = np.concatenate([hi[keep], mids, hi[order]])
        sub_vals, sub_errs = _panel_eval(f, np.concatenate([lo[order], mids]),
                                         np.concatenate([mids, hi[order]]))
        vals = np.concatenate([vals[..., keep], sub_vals], axis=-1)
        errs = np.concatenate([errs[..., keep], sub_errs], axis=-1)
        lo, hi = new_lo, new_hi


@functools.cache
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.polynomial.legendre.leggauss(n)``, built once per process
    (an eigenvalue solve and a Newton step); read-only, being shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_rule(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
