"""Fourier multiplier families around a sphere-times-origin degeneracy.

The model symbol is ``(|xi|^2 + 2 i xi_d - 1)^(-k)`` on R^d, written in the
split variables ``xi = (eta, tau)`` with ``eta`` the first ``d - 1``
coordinates.  It degenerates on ``{|eta| = 1, tau = 0}``, and everything else
in this module is some smooth localisation of it:

* ``eps``      -- dyadic slice at distance ``|tau| ~ eps`` from the degeneracy,
* ``local``    -- the sum of all dyadic slices below the fixed scale ``EPS0``,
* ``global``   -- the complementary smooth part (model minus ``local``),
* ``tilde``    -- the anisotropic rescaling ``tau -> eps tau`` of a slice,
* ``ring``     -- the rescaled slice ring-localised at ``|1 - |eta|^2| ~ 2^j
                  eps``,
* ``tilde_im`` -- closed form for the imaginary part of ``tilde``,
* ``full``     -- the model symbol itself.

All evaluators are radial in ``eta``: they reduce to functions of
``(|eta|^2, tau)`` and broadcast over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bump import CutoffSpec, Psi0Cutoff, PsiCutoff, psi, psi0

#: The fixed scale of the ``local``/``global`` split and of the eta cutoff
#: ``psi0((1 - |eta|^2) / EPS0)``.
EPS0 = 2.0 ** -5

_FAMILIES = ("full", "local", "global", "eps", "tilde", "tilde_im", "ring")

_EPS_FAMILIES = ("eps", "tilde", "tilde_im", "ring")


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
    j: Optional[int] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {_FAMILIES}")
        if self.d < 2:
            raise ValueError(f"dimension d={self.d} < 2")
        if self.k < 1:
            raise ValueError(f"k={self.k} must be a positive integer")
        if self.family in _EPS_FAMILIES:
            if self.eps is None or not _is_dyadic(self.eps) or self.eps > 0.25:
                raise ValueError(
                    f"family {self.family!r} needs dyadic eps in (0, 1/4], got {self.eps}"
                )
        if self.family == "ring":
            if self.j is None or self.j < 0:
                raise ValueError(f"ring needs an integer j >= 0, got {self.j}")
            if 2 ** self.j > 1.0 / (4.0 * self.eps):
                raise ValueError(
                    f"ring scale 2^{self.j} exceeds 1/(4 eps) = {1.0 / (4 * self.eps)}"
                )

    def ring_window(self) -> tuple[CutoffSpec, float]:
        """The ring family's radial window ``zeta`` and its width ``delta``.

        The innermost ring (j = 0) takes the low-pass profile and outer rings
        take the annulus profile, so the radial supports live at distance
        ~ 2^j eps; the width is ``2^j eps``.
        """
        if self.family != "ring":
            raise ValueError("ring_window only applies to the ring family")
        zeta = Psi0Cutoff() if self.j == 0 else PsiCutoff()
        return zeta, (2.0 ** self.j) * self.eps


# ---------------------------------------------------------------------------
# scalar cores: everything is a function of (|eta|^2, tau)

def _model_w(eta_sq, tau):
    """The model denominator ``|xi|^2 + 2 i tau - 1`` at (|eta|^2, tau)."""
    return (eta_sq + tau * tau - 1.0) + 2.0j * tau


def _dyadic_windows(t, weight=None):
    """Sum of psi(t / 2^nu) [times ``weight``] over dyadic 2^nu <= EPS0, t != 0.

    At most three windows are nonzero at any t, so the sum runs per point.
    """
    acc = np.zeros(t.shape, dtype=float if weight is None else complex)
    nu_hi = round(math.log2(EPS0))
    nu_c = np.floor(np.log2(np.abs(t))).astype(int)
    for off in (-1, 0, 1):
        nu = nu_c + off
        ok = nu <= nu_hi
        window = psi(t[ok] / np.ldexp(1.0, nu[ok]))
        acc[ok] += window if weight is None else window * weight[ok]
    return acc


def _theta(tau):
    """Theta(tau) = sum of the live annulus windows; 0 at tau = 0 exactly."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape, dtype=float)
    nz = tau != 0
    out[nz] = _dyadic_windows(tau[nz])
    return out


def _on_cutoff(k: int, cut, denom, eta_sq, tau):
    """``cut * denom(eta_sq, tau) ** -k`` where ``cut`` is nonzero, else 0,
    all three broadcast; ``denom`` runs there only, and a zero of it there
    is refused."""
    cut, eta_sq, tau = np.broadcast_arrays(cut, eta_sq, tau)
    live = cut != 0.0
    out = np.zeros(cut.shape, dtype=complex)
    w = denom(eta_sq[live], tau[live])
    if np.any(w == 0):
        raise SingularFrequencyError(
            "symbol evaluated on {|eta| = 1, tau = 0} where its cutoff is "
            "nonzero; offset the grid frequencies by half a cell (see "
            "spectral.default_grid)")
    out[live] = cut[live] * w ** (-k)
    return out


def _local_core(k: int, eta_sq, tau):
    eta_sq_b, tau_b = np.broadcast_arrays(np.asarray(eta_sq, dtype=float),
                                          np.asarray(tau, dtype=float))
    out = np.zeros(tau_b.shape, dtype=complex)
    cut_eta = np.asarray(psi0((1.0 - eta_sq_b) / EPS0))  # psi0 unwraps 0-d
    nz = (tau_b != 0) & (cut_eta != 0)
    if not np.any(nz):
        return out
    t = tau_b[nz]
    w = _model_w(eta_sq_b[nz], t)  # tau != 0 keeps this off the zero set
    out[nz] = cut_eta[nz] * _dyadic_windows(t, w ** (-k))
    return out


def _global_core(k: int, eta_sq, tau):
    """The model symbol on the cut ``1 - psi0((1 - |eta|^2) / EPS0)
    Theta(tau)``, which is what ``local`` leaves."""
    rest = 1.0 - psi0((1.0 - np.asarray(eta_sq, dtype=float)) / EPS0) \
        * _theta(tau)
    return _on_cutoff(k, rest, _model_w, eta_sq, tau)


def _tilde_core(k: int, eps: float, zeta: CutoffSpec, delta: float,
                eta_sq, tau):
    cut = zeta((1.0 - np.asarray(eta_sq)) / delta)
    cut = cut * psi(np.asarray(tau))
    return _on_cutoff(
        k, cut, lambda es, t: (es - 1.0 + (eps * t) ** 2) + 2.0j * eps * t,
        eta_sq, tau)


def _im_mtilde_core(k: int, eps: float, eta_sq, tau):
    """Alternating-binomial closed form of Im(tilde slice), fully real."""
    eta_sq = np.asarray(eta_sq, dtype=float)
    tau = np.asarray(tau, dtype=float)
    cut = psi0((1.0 - eta_sq) / EPS0) * psi(tau)
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
        return _on_cutoff(spec.k, 1.0, _model_w, eta_sq, tau)
    if spec.family == "local":
        return _local_core(spec.k, eta_sq, tau)
    if spec.family == "global":
        return _global_core(spec.k, eta_sq, tau)
    if spec.family == "eps":
        # the tilde slice at tau / eps: eps is dyadic, so eps (tau / eps) = tau
        return _tilde_core(spec.k, spec.eps, Psi0Cutoff(), EPS0, eta_sq,
                           np.asarray(tau) / spec.eps)
    if spec.family == "tilde":
        return _tilde_core(spec.k, spec.eps, Psi0Cutoff(), EPS0, eta_sq, tau)
    if spec.family == "tilde_im":
        return _im_mtilde_core(spec.k, spec.eps, eta_sq, tau)
    if spec.family == "ring":
        zeta, delta = spec.ring_window()
        return _tilde_core(spec.k, spec.eps, zeta, delta, eta_sq, tau)
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


def eval_im_mtilde(d: int, k: int, eps: float, eta, tau):
    """Imaginary part of the rescaled slice, via the closed alternating sum.

    ``eta`` carries coordinates in its last axis (length d - 1); the result
    broadcasts against ``tau``.  This is the independent route used to
    cross-check Im(eval_symbol(tilde)).
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != d - 1:
        raise ValueError(f"eta needs {d - 1} coordinates, got {eta.shape[-1]}")
    eta_sq = np.sum(eta ** 2, axis=-1)
    spec = SymbolSpec(family="tilde_im", d=d, k=k, eps=eps)
    out = _im_mtilde_core(spec.k, spec.eps, eta_sq, tau)
    if out.ndim == 0:
        return float(out)
    return out
