"""Fourier multiplier families around a sphere-times-origin degeneracy.

The model symbol is ``(|xi|^2 + 2 i xi_d - 1)^(-k)`` on R^d, written in the
split variables ``xi = (eta, tau)`` with ``eta`` the first ``d - 1``
coordinates.  It degenerates on ``{|eta| = 1, tau = 0}``, and everything else
in this module is some smooth localisation of it:

* ``eps``      -- dyadic slice at distance ``|tau| ~ eps`` from the degeneracy,
* ``local``    -- the sum of all dyadic slices below the fixed scale ``eps0``,
* ``global``   -- the complementary smooth part (model minus ``local``),
* ``tilde``    -- the anisotropic rescaling ``tau -> eps tau`` of a slice,
* ``tilde_gen``-- the rescaled slice with a general radial window ``zeta`` at
                  width ``delta``,
* ``ring``     -- the ``tilde_gen`` instance ring-localised at ``|1 - |eta|^2|
                  ~ 2^j eps``,
* ``tilde_im`` -- closed form for the imaginary part of ``tilde``,
* ``full``     -- the model symbol itself (negative ``k`` gives the positive
                  power, handy for composition checks).

All evaluators are radial in ``eta``: they reduce to functions of
``(|eta|^2, tau)`` and broadcast over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bump import (
    CutoffSpec,
    PsiCutoff,
    Psi0Cutoff,
    psi,
    psi0,
)

DEFAULT_EPS0 = 2.0 ** -5

_FAMILIES = ("full", "local", "global", "eps", "tilde", "tilde_im",
             "tilde_gen", "ring")

_EPS_FAMILIES = ("eps", "tilde", "tilde_im", "tilde_gen", "ring")


class SingularFrequencyError(ValueError):
    """A requested frequency sits exactly on the degenerate set."""


def _is_dyadic(x: float) -> bool:
    if not (x > 0 and math.isfinite(x)):
        return False
    return math.frexp(x)[0] == 0.5


@dataclass(frozen=True, eq=False)
class SymbolSpec:
    """Which multiplier to evaluate, with all of its scales pinned down.

    Only the fields relevant for ``family`` need to be set; validation rejects
    inconsistent combinations eagerly so grid runs fail fast.
    """

    family: str
    d: int
    k: int = 1
    eps: Optional[float] = None
    eps0: float = DEFAULT_EPS0
    delta: Optional[float] = None
    j: Optional[int] = None
    zeta: Optional[CutoffSpec] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {_FAMILIES}")
        if self.d < 2:
            raise ValueError(f"dimension d={self.d} < 2")
        if self.family == "full":
            if self.k == 0:
                raise ValueError("k = 0 makes the model symbol trivial")
        elif self.k < 1:
            raise ValueError(f"k={self.k} must be a positive integer")
        if not _is_dyadic(self.eps0) or self.eps0 > DEFAULT_EPS0:
            raise ValueError(f"eps0={self.eps0} must be dyadic and <= {DEFAULT_EPS0}")
        if self.family in _EPS_FAMILIES:
            if self.eps is None or not _is_dyadic(self.eps) or self.eps > 0.25:
                raise ValueError(
                    f"family {self.family!r} needs dyadic eps in (0, 1/4], got {self.eps}"
                )
        if self.family == "tilde_gen":
            if self.zeta is None or not isinstance(self.zeta, CutoffSpec):
                raise ValueError("tilde_gen needs a CutoffSpec window zeta")
            if self.delta is None or not 0 < self.delta < 0.5:
                raise ValueError(f"tilde_gen needs delta in (0, 1/2), got {self.delta}")
        if self.family == "ring":
            if self.j is None or self.j < 0:
                raise ValueError(f"ring needs an integer j >= 0, got {self.j}")
            if 2 ** self.j > 1.0 / (4.0 * self.eps):
                raise ValueError(
                    f"ring scale 2^{self.j} exceeds 1/(4 eps) = {1.0 / (4 * self.eps)}"
                )

    def ring_window(self) -> tuple[CutoffSpec, float]:
        """Resolved (zeta, delta) for the ring family.

        By default the innermost ring (j = 0) takes the low-pass profile and
        outer rings take the annulus profile, so the radial supports actually
        live at distance ~ 2^j eps as intended.
        """
        if self.family != "ring":
            raise ValueError("ring_window only applies to the ring family")
        zeta = self.zeta
        if zeta is None:
            zeta = Psi0Cutoff() if self.j == 0 else PsiCutoff()
        return zeta, (2.0 ** self.j) * self.eps


# ---------------------------------------------------------------------------
# scalar cores: everything is a function of (|eta|^2, tau)

def _full_core(k: int, eta_sq, tau):
    w = (np.asarray(eta_sq) + np.asarray(tau) ** 2 - 1.0) + 2.0j * np.asarray(tau)
    if k > 0 and np.any(w == 0):
        raise SingularFrequencyError(
            "model symbol evaluated on {|eta| = 1, tau = 0}; offset the grid "
            "frequencies by half a cell (see spectral.default_grid)"
        )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return w ** (-k)


def _dyadic_windows(t, eps0: float, weight=None):
    """Sum of psi(t / 2^nu) [times ``weight``] over dyadic 2^nu <= eps0, t != 0.

    At most three windows are nonzero at any t, so the sum runs per point.
    """
    acc = np.zeros(t.shape, dtype=float if weight is None else complex)
    nu_hi = round(math.log2(eps0))
    nu_c = np.floor(np.log2(np.abs(t))).astype(int)
    for off in (-1, 0, 1):
        nu = nu_c + off
        ok = nu <= nu_hi
        window = psi(t[ok] / np.ldexp(1.0, nu[ok]))
        acc[ok] += window if weight is None else window * weight[ok]
    return acc


def _theta(tau, eps0: float):
    """Theta(tau) = sum of the live annulus windows; 0 at tau = 0 exactly."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape, dtype=float)
    nz = tau != 0
    out[nz] = _dyadic_windows(tau[nz], eps0)
    return out


def _eps_core(k: int, eps: float, eps0: float, eta_sq, tau):
    cut = psi0((1.0 - np.asarray(eta_sq)) / eps0) * psi(np.asarray(tau) / eps)
    w = (np.asarray(eta_sq) + np.asarray(tau) ** 2 - 1.0) + 2.0j * np.asarray(tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = w ** (-k)
        return np.where(cut != 0.0, cut * val, 0.0 + 0.0j)


def _local_core(k: int, eps0: float, eta_sq, tau):
    eta_sq_b, tau_b = np.broadcast_arrays(np.asarray(eta_sq, dtype=float),
                                          np.asarray(tau, dtype=float))
    out = np.zeros(tau_b.shape, dtype=complex)
    cut_eta = np.asarray(psi0((1.0 - eta_sq_b) / eps0))  # psi0 unwraps 0-d
    nz = (tau_b != 0) & (cut_eta != 0)
    if not np.any(nz):
        return out
    t = tau_b[nz]
    es = eta_sq_b[nz]
    w = (es + t * t - 1.0) + 2.0j * t  # tau != 0 keeps this off the zero set
    out[nz] = cut_eta[nz] * _dyadic_windows(t, eps0, w ** (-k))
    return out


def _global_core(k: int, eps0: float, eta_sq, tau):
    eta_sq_b, tau_b = np.broadcast_arrays(np.asarray(eta_sq, dtype=float),
                                          np.asarray(tau, dtype=float))
    chi = psi0((1.0 - eta_sq_b) / eps0) * _theta(tau_b, eps0)
    rest = 1.0 - chi
    w = (eta_sq_b + tau_b * tau_b - 1.0) + 2.0j * tau_b
    bad = (w == 0) & (rest != 0)
    if np.any(bad):
        raise SingularFrequencyError(
            "smooth far part requested on the degenerate set; offset the grid "
            "frequencies by half a cell (see spectral.default_grid)"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        val = w ** (-k)
        return np.where(rest != 0.0, rest * val, 0.0 + 0.0j)


def _scaled_denom(eps: float, eta_sq, tau):
    tau = np.asarray(tau)
    return (np.asarray(eta_sq) - 1.0 + (eps * tau) ** 2) + 2.0j * eps * tau


def _tilde_gen_core(k: int, eps: float, zeta: CutoffSpec, delta: float,
                    eta_sq, tau):
    cut = zeta((1.0 - np.asarray(eta_sq)) / delta)
    cut = cut * psi(np.asarray(tau))
    w = _scaled_denom(eps, eta_sq, tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = w ** (-k)
        return np.where(cut != 0.0, cut * val, 0.0 + 0.0j)


def _im_mtilde_core(k: int, eps: float, eps0: float, eta_sq, tau):
    """Alternating-binomial closed form of Im(tilde slice), fully real."""
    eta_sq = np.asarray(eta_sq, dtype=float)
    tau = np.asarray(tau, dtype=float)
    cut = psi0((1.0 - eta_sq) / eps0) * psi(tau)
    a = eta_sq - 1.0 + (eps * tau) ** 2
    b = 2.0 * eps * tau
    mod2 = a * a + b * b
    acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    for l in range(1, (k + 1) // 2 + 1):
        term = math.comb(k, 2 * l - 1) * (-1.0) ** l
        acc = acc + term * a ** (k - 2 * l + 1) * b ** (2 * l - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = acc / mod2 ** k
        return np.where(cut != 0.0, cut * val, 0.0)


def eval_from_radial(spec: SymbolSpec, eta_sq, tau):
    """Evaluate any family as a function of (|eta|^2, tau), broadcasting."""
    if spec.family == "full":
        return _full_core(spec.k, eta_sq, tau)
    if spec.family == "eps":
        return _eps_core(spec.k, spec.eps, spec.eps0, eta_sq, tau)
    if spec.family == "local":
        return _local_core(spec.k, spec.eps0, eta_sq, tau)
    if spec.family == "global":
        return _global_core(spec.k, spec.eps0, eta_sq, tau)
    if spec.family == "tilde":
        return _tilde_gen_core(spec.k, spec.eps, Psi0Cutoff(), spec.eps0,
                               eta_sq, tau)
    if spec.family == "tilde_im":
        return _im_mtilde_core(spec.k, spec.eps, spec.eps0, eta_sq, tau)
    if spec.family == "tilde_gen":
        return _tilde_gen_core(spec.k, spec.eps, spec.zeta, spec.delta,
                               eta_sq, tau)
    if spec.family == "ring":
        zeta, delta = spec.ring_window()
        return _tilde_gen_core(spec.k, spec.eps, zeta, delta, eta_sq, tau)
    raise AssertionError("unreachable")


def eval_symbol(spec: SymbolSpec, xi):
    """Evaluate at explicit frequency points ``xi`` of shape (..., d)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != spec.d:
        raise ValueError(f"points have {xi.shape[-1]} coordinates, spec.d = {spec.d}")
    eta_sq = np.sum(xi[..., : spec.d - 1] ** 2, axis=-1)
    tau = xi[..., spec.d - 1]
    out = eval_from_radial(spec, eta_sq, tau)
    if xi.ndim == 1:
        return complex(out) if np.iscomplexobj(out) else float(out)
    return out


def symbol_on_axes(spec: SymbolSpec, axes: Sequence[np.ndarray]):
    """Evaluate on the tensor grid spanned by 1-D frequency axes.

    Broadcasting keeps the |eta|^2 intermediate at the reduced shape, so this
    is the memory-sensible entry point for grid application.
    """
    if len(axes) != spec.d:
        raise ValueError(f"got {len(axes)} axes for d = {spec.d}")
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    eta_sq = 0.0
    for g in grids[:-1]:
        eta_sq = eta_sq + g.astype(float) ** 2
    tau = grids[-1].astype(float)
    return eval_from_radial(spec, eta_sq, tau)


def eval_im_mtilde(d: int, k: int, eps: float, eps0: float, eta, tau):
    """Imaginary part of the rescaled slice, via the closed alternating sum.

    ``eta`` carries coordinates in its last axis (length d - 1); the result
    broadcasts against ``tau``.  This is the independent route used to
    cross-check Im(eval_symbol(tilde)).
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != d - 1:
        raise ValueError(f"eta needs {d - 1} coordinates, got {eta.shape[-1]}")
    eta_sq = np.sum(eta ** 2, axis=-1)
    spec = SymbolSpec(family="tilde_im", d=d, k=k, eps=eps, eps0=eps0)
    out = _im_mtilde_core(spec.k, spec.eps, spec.eps0, eta_sq, tau)
    if out.ndim == 0:
        return float(out)
    return out


def eval_phi_eps_ell(eps: float, ell: int, rho, tau,
                     eps0: float = DEFAULT_EPS0, tau_order: int = 0):
    """The order-one building brick with a differentiated radial window.

    Returns ``psi0^(ell)(eps0^-1 (1 - rho^2)) psi(tau) / (rho^2 - 1 +
    eps^2 tau^2 + 2 i eps tau)``, optionally differentiated up to twice in
    ``tau`` (the range the uniform resolvent bounds need).
    """
    if tau_order not in (0, 1, 2):
        raise ValueError(f"tau_order must be 0, 1 or 2, got {tau_order}")
    rho = np.asarray(rho, dtype=float)
    tau = np.asarray(tau, dtype=float)
    scalar = rho.ndim == 0 and tau.ndim == 0
    cut_rho = psi0((1.0 - rho ** 2) / eps0, ell)
    denom = (rho ** 2 - 1.0 + (eps * tau) ** 2) + 2.0j * eps * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / denom
        if tau_order >= 1:
            du = 2.0 * eps * eps * tau + 2.0j * eps
            w1 = -du * w * w
        if tau_order == 2:
            w2 = -2.0 * eps * eps * w * w + 2.0 * du * du * w * w * w
    psis = [psi(tau, i) for i in range(tau_order + 1)]
    wders = [w]
    if tau_order >= 1:
        wders.append(w1)
    if tau_order == 2:
        wders.append(w2)
    acc = 0.0 + 0.0j
    with np.errstate(invalid="ignore"):
        for i in range(tau_order + 1):
            term = np.where(np.asarray(psis[i]) != 0.0,
                            psis[i] * wders[tau_order - i], 0.0 + 0.0j)
            acc = acc + math.comb(tau_order, i) * term
    out = cut_rho * acc
    if scalar:
        return complex(out)
    return out
