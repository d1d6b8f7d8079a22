"""Operator-norm lower bounds, power iteration, scaling fits."""
import ast
import hashlib
import inspect
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carlab
from carlab.acceptance import KNAPP_TOL, SlopeCheck, knapp_witness, ring_grid
from carlab.normest import (_BLOCK, ExponentKind, NormEstimate, _live_lines,
                            _noise_lines, _on_lines, _power_in_place,
                            _radial_norm, _space_pass, certified_lower_bound,
                            dualize, estimate_operator_norm, fit_scaling,
                            power_method, theoretical_exponent)
from carlab.regions import ExponentPoint
from carlab.spectral import (Grid, KnappField, Lattice, default_grid, lp_norm,
                             sample_lp_norm, sample_symbol)
from carlab.symbols import (SingularFrequencyError, SymbolSpec,
                            eval_from_radial, symbol_on_axes)
from fields import dense_live_lines, field_on, start_lines, unfold

RNG = np.random.Generator(np.random.Philox(77))

#: every ``np.fft`` entry point the lattice passes call, directly or
#: through `spectral._dct1`, and the whole-block ones they used to call
_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft")


def _run_lengths(index) -> list[int]:
    """The lengths of the runs of consecutive numbers in the ascending
    ``index``."""
    starts = np.flatnonzero(np.diff(index, prepend=-2) != 1)
    return np.diff(np.append(starts, len(index))).tolist()


def pt(x, y) -> ExponentPoint:
    return ExponentPoint(Fraction(x), Fraction(y))


# ---------------------------------------------------------------------------
# predicted exponents


def test_me_upper_example():
    got = theoretical_exponent(ExponentKind.ME_UPPER, 3, 1, pt("2/3", "1/6"))
    assert got == pytest.approx(1.0 / 3.0)


def test_me_knapp_diagonal_is_minus_k():
    for k in (1, 2, 3):
        got = theoretical_exponent(ExponentKind.ME_KNAPP, 5, k,
                                   pt("3/5", "3/5"))
        assert got == pytest.approx(-float(k))


def test_tilde_lower_sup_norm_path():
    got = theoretical_exponent(ExponentKind.TILDE_LOWER, 5, 2, pt("1/2", 0))
    assert got == pytest.approx(0.5)


def test_tilde_knapp_quarter():
    got = theoretical_exponent(ExponentKind.TILDE_KNAPP, 3, 1,
                               pt("3/4", "1/4"))
    assert got == pytest.approx(-0.25)


def test_l2_ring_exponent():
    for k in (1, 2):
        got = theoretical_exponent(ExponentKind.L2_RING, 3, k,
                                   pt("1/2", "1/2"))
        assert got == pytest.approx(0.5 - k)


# ---------------------------------------------------------------------------
# certified bounds


def _record(grid: Grid, d: int, coef, index) -> KnappField:
    """The witness record with ``coef`` on the hull ``index`` of ``grid``."""
    return KnappField(grid.shape, grid.periods, grid.freq_offsets, d,
                      np.asarray(coef, complex),
                      tuple(np.asarray(i) for i in index))


#: a d = 3 lattice (a0, rho, tau) with half-cell offsets off the radial axis
_HALF_CELL = Grid((32, 32, 32), (2.0 * np.pi * 32 / 7.0,) * 3,
                  (7.0 / 64, 0.0, 7.0 / 64))


def test_single_mode_gives_symbol_modulus():
    # one coefficient, at rho_j != 0: the field is cos(rho_j x') times a
    # plane wave, and both of its modes carry the same symbol value
    coef = np.zeros((1, 1, 1), complex)
    coef[0, 0, 0] = 2.0
    f = _record(_HALF_CELL, 3, coef, ([3], [7], [5]))
    spec = SymbolSpec("full", 3, 1)
    m = symbol_on_axes(spec, _HALF_CELL.freq_axes())
    est = certified_lower_bound(f, spec, 2.0, 2.0)
    assert est == pytest.approx(abs(m[3, 7, 5]), rel=1e-10)


def test_witness_scale_invariance():
    eps = 2.0 ** -4
    w = knapp_witness("tilde", 3, eps, n=32)
    spec = SymbolSpec("tilde", 3, 1, eps=eps)
    a = certified_lower_bound(w, spec, 1.5, 3.0)
    b = certified_lower_bound(replace(w, coef=17.0 * w.coef), spec, 1.5, 3.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_zero_witness_rejected(monkeypatch):
    # an all-zero witness, before any evaluation or transform
    import carlab.normest as normest

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated or transformed an all-zero field")
    monkeypatch.setattr(normest, "eval_from_radial", refuse)
    monkeypatch.setattr(normest, "_radial_norm", refuse)
    f = _record(_HALF_CELL, 3, np.zeros((2, 3, 1)),
                (np.arange(2), np.arange(3), [4]))
    with pytest.raises(ValueError, match="identically zero"):
        certified_lower_bound(f, SymbolSpec("full", 3, 1), 2.0, 2.0)


def test_a_symbol_of_another_dimension_is_refused_before_evaluation(
        monkeypatch):
    import carlab.normest as normest

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated or transformed")
    monkeypatch.setattr(normest, "eval_from_radial", refuse)
    monkeypatch.setattr(normest, "_radial_norm", refuse)
    w = knapp_witness("eps", 3, 2.0 ** -4, n=32)
    with pytest.raises(ValueError, match="symbol has d = 4, the witness d = 3"):
        certified_lower_bound(w, SymbolSpec("eps", 4, 1, eps=2.0 ** -4),
                              2.0, 4.0)


def _dense_bound(field, symbol, p, q):
    """The quotient from the symbol on the whole box and two dense norms."""
    m = sample_symbol(field, symbol)
    F = field.to_freq()
    out = F.with_values(m * F.values, in_space=False)
    return lp_norm(out, q) / lp_norm(field, p)


def _wrapped_field():
    """Zero offsets, support on both ends of every index range: the FFT
    ends of a0 and tau, and rho's 0 and n/2."""
    g = default_grid(3, n=32)
    rng = np.random.Generator(np.random.Philox(21))
    hull = (5, 3, 2)
    return _record(g, 3, rng.standard_normal(hull)
                   + 1j * rng.standard_normal(hull),
                   ([0, 1, 2, 29, 31], [0, 3, 16], [1, 31]))


def _random_field(n):
    """Random coefficients on the whole (a0, rho, tau) box."""
    rng = np.random.Generator(np.random.Philox(22))
    half = 7.0 / (2 * n)
    g = Grid((n,) * 3, (2.0 * np.pi * n / 7.0,) * 3, (half, 0.0, half))
    hull = (n, n // 2 + 1, n)
    return _record(g, 3, rng.standard_normal(hull)
                   + 1j * rng.standard_normal(hull), map(np.arange, hull))


_BOUND_CASES = {
    **{f"{family}_2^-{m}": (knapp_witness(family, 3, 2.0 ** -m, n=64),
                            SymbolSpec(family, 3, 1, eps=2.0 ** -m))
       for family in ("tilde", "eps") for m in (3, 6)},
    "wrapped": (_wrapped_field(), SymbolSpec("full", 3, 1)),
    "full_support": (_random_field(16), SymbolSpec("full", 3, 2)),
}


@pytest.mark.parametrize("p, q", [(4.0 / 3.0, 4.0), (2.0, 6.0)])
@pytest.mark.parametrize("case", sorted(_BOUND_CASES))
def test_hull_bound_matches_the_dense_formula(case, p, q):
    # the radial axis folds the Cartesian one of the even field
    field, symbol = _BOUND_CASES[case]
    want = _dense_bound(unfold(field), symbol, p, q)
    assert certified_lower_bound(field, symbol, p, q) == \
        pytest.approx(want, rel=1e-13, abs=0.0)


def _singular_lattice():
    # spacing 1/2 with zero offsets: (a0, rho, tau) = (1, 0, 0) is the
    # lattice point [2, 0, 0], on the degenerate set of the model symbol
    return default_grid(3, n=16, freq_span=8.0)


def test_a_hull_on_the_degenerate_set_is_refused_with_the_rebuild_hint():
    # the hull {2, 3} x {0} x {0, 1} holds [2, 0, 0]
    f = _record(_singular_lattice(), 3, np.ones((2, 1, 2)),
                ([2, 3], [0], [0, 1]))
    with pytest.raises(SingularFrequencyError,
                       match="offset the grid frequencies by half a cell"):
        certified_lower_bound(f, SymbolSpec("full", 3, 1), 2.0, 4.0)


def test_a_hull_off_the_degenerate_set_gets_a_finite_bound():
    # the symbol is evaluated on the hull alone
    f = _record(_singular_lattice(), 3, np.ones((3, 1, 3)),
                ([3, 4, 5], [0], [1, 2, 3]))
    bound = certified_lower_bound(f, SymbolSpec("full", 3, 1), 2.0, 4.0)
    assert np.isfinite(bound) and bound > 0.0


@pytest.mark.parametrize("d", [25, 35])
def test_high_d_knapp_bound_matches_a_scipy_sphere_transform(d, monkeypatch):
    # the radial axis of a d-dimensional witness runs through sphere_hat at
    # Bessel order up to 16; scipy's J_nu is the independent oracle
    import carlab.normest as normest
    special = pytest.importorskip("scipy.special")

    def scipy_sphere_hat(n, r):
        nu = 0.5 * (n - 2)
        r = np.asarray(r, dtype=float)
        safe = np.where(r > 0.0, r, 1.0)
        u = np.where(r > 0.0, special.jv(nu, safe) / safe ** nu,
                     1.0 / (2.0 ** nu * math.gamma(nu + 1.0)))
        return (2.0 * math.pi) ** (0.5 * n) * u

    eps = 2.0 ** -4
    field = knapp_witness("tilde", d, eps, n=32)
    spec = SymbolSpec("tilde", d, 1, eps=eps)
    ours = certified_lower_bound(field, spec, 4.0 / 3.0, 4.0)
    monkeypatch.setattr(normest, "sphere_hat", scipy_sphere_hat)
    want = certified_lower_bound(field, spec, 4.0 / 3.0, 4.0)
    assert ours == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("family", ["tilde", "eps"])
def test_a_witness_bound_makes_one_full_lattice_pass_per_norm(family,
                                                             monkeypatch):
    import carlab.normest as normest
    eps = 2.0 ** -4
    field = knapp_witness(family, 3, eps, n=64)
    full = math.prod(field.shape)
    calls = []
    for name in _FFT_NAMES:
        def counted(a, *args, _fn=getattr(normest.np.fft, name), _name=name,
                    **kwargs):
            calls.append((_name, np.size(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(normest.np.fft, name, counted)
    certified_lower_bound(field, SymbolSpec(family, 3, 1, eps=eps), 1.5, 4.0)
    # per norm: one (a0, τ) cross-section per radius, and nothing else: its
    # τ stage on the runs of a0-rows that hold a live entry, then its a0
    # stage whole
    n_a0, n_tau = field.shape[0], field.shape[-1]
    runs = _run_lengths(field.index[0])
    assert sum(runs) < n_a0
    assert calls == ([("ifft", r * n_tau) for r in runs]
                     + [("ifft", n_a0 * n_tau)]) * 66
    assert max(size for _, size in calls) < full


# ---------------------------------------------------------------------------
# power iteration


def test_power_method_hits_sup_norm_at_p2():
    g = default_grid(2, n=32, for_full_symbol=True)
    spec = SymbolSpec("full", 2, 1)
    target = float(np.abs(symbol_on_axes(spec, g.freq_axes())).max())
    est = estimate_operator_norm(g, spec, 2.0, 2.0, n_random=2, tol=1e-8,
                                 max_iter=200)
    assert est.value == pytest.approx(target, rel=1e-3)
    assert est.value <= target * (1 + 1e-9)


def test_power_method_value_is_history_max():
    g = default_grid(2, n=32)
    f = field_on(g, RNG.standard_normal(g.shape) + 0j, in_space=True)
    est = power_method(f, *start_lines(f, SymbolSpec("full", 2, 1)), 4.0,
                       max_iter=8)
    assert isinstance(est, NormEstimate)
    assert est.value == max(est.history)


_RECORD_CASES = {
    "plane": (default_grid(2, 16), SymbolSpec("full", 2, 1)),
    "ring_j2": (ring_grid(2, 32, 16),
                SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=2)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_RECORD_CASES)),
       q=st.floats(1.0, 8.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_power_method_record_is_consistent(case, q, seed):
    grid, spec = _RECORD_CASES[case]
    rng = np.random.Generator(np.random.Philox(seed))
    init = field_on(grid, rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape),
                          in_space=True)
    est = power_method(init, *start_lines(init, spec), q)
    assert est.iterations == len(est.history)
    assert est.value == max(est.history, default=0.0)
    assert all(np.isfinite(h) for h in est.history)
    if not est.aborted:
        assert est.history and all(h > 0.0 for h in est.history)


def test_bad_exponents_are_refused_before_any_sampling(monkeypatch):
    import carlab.normest as normest

    def refuse(*args, **kwargs):
        raise AssertionError("symbol sampled")

    g = default_grid(2, n=16)
    spec = SymbolSpec("full", 2, 1)
    monkeypatch.setattr(normest, "eval_from_radial", refuse)
    with pytest.raises(ValueError, match="p = 2 only"):
        estimate_operator_norm(g, spec, 3.0, 3.0)
    with pytest.raises(ValueError, match="p = 2 only"):
        estimate_operator_norm(g, spec, 1.5, 4.0)
    with pytest.raises(ValueError, match="1 < p, q < infinity"):
        estimate_operator_norm(g, spec, 2.0, np.inf)
    with pytest.raises(ValueError, match="1 < p, q < infinity"):
        estimate_operator_norm(g, spec, 2.0, 1.0)


def test_degenerate_init_reports_zero():
    g = default_grid(2, n=32, freq_span=0.4)
    vals = np.zeros(g.shape, complex)
    vals[1, 1] = 1.0  # single mode far from the tilde tau-window
    f = field_on(g, vals, in_space=False)
    est = power_method(f, *start_lines(f, SymbolSpec("tilde", 2, 1,
                                                     eps=2.0 ** -5)),
                       2.0, max_iter=6)
    assert est.value == 0.0
    assert est.aborted


def test_power_beats_any_explicit_init():
    g = default_grid(2, n=32)
    f = field_on(g, RNG.standard_normal(g.shape)
                    + 1j * RNG.standard_normal(g.shape), in_space=True)
    spec = SymbolSpec("full", 2, 1)
    base = _dense_bound(f, spec, 2.0, 6.0)
    # the first quotient of a run from f is f's one-shot bound
    est = power_method(f, *start_lines(f, spec), 6.0)
    assert est.value >= base * (1 - 1e-12)


def test_imaginary_part_never_dominates():
    # lower bounds for the Im-part operator stay below the full-symbol norm
    g = default_grid(3, n=32)
    d, k, eps = 3, 1, 2.0 ** -5
    full_spec = SymbolSpec("tilde", d, k, eps=eps)

    def im_symbol(e1, e2, tau):
        from carlab.symbols import eval_from_radial
        spec = SymbolSpec("tilde_im", d, k, eps=eps)
        return eval_from_radial(spec, e1 * e1 + e2 * e2, tau) + 0j

    rng = np.random.Generator(np.random.Philox(9))
    f = field_on(g, rng.standard_normal(g.shape) + 0j, in_space=True)
    im_val = _dense_bound(f, im_symbol, 2.0, 4.0)
    full_val = power_method(f, *start_lines(f, full_spec), 4.0)
    assert im_val <= full_val.value * (1 + 1e-9)


def _dualize_reference(values, r):
    # the two-step form: phase(h) * |h|^(r - 1), zero where h is
    mags = np.abs(values)
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(mags > 0, values / mags, 0.0)
    return phase * mags ** (r - 1.0)


def _power_method_oracle(init, symbol, q, *, max_iter=24, tol=1e-4):
    """The p = 2 iteration on `GridField`s, three transforms per step."""
    m = sample_symbol(init, symbol)
    mc = np.conj(m)
    F = init.to_freq()
    history = []
    aborted = False
    fvals = F.values
    for _ in range(max_iter):
        f_space = F.with_values(fvals, in_space=False).to_space()
        nf = lp_norm(f_space, 2.0)
        if not np.isfinite(nf) or nf == 0.0:
            aborted = True
            break
        g = F.with_values(m * fvals / nf, in_space=False).to_space()
        s = lp_norm(g, q)
        if not np.isfinite(s):
            aborted = True
            break
        history.append(s)
        if len(history) > 1 and abs(history[-1] - history[-2]) <= tol * s:
            break
        u = g.with_values(_dualize_reference(g.values, q),
                          in_space=True).to_freq()
        fvals = mc * u.values
    return NormEstimate(value=max(history) if history else 0.0,
                        iterations=len(history), history=tuple(history),
                        aborted=aborted)


def _lines_symbol(axis):
    """A 3-d symbol that is zero on every line along ``axis`` whose other
    two coordinates lie outside a disc, and nowhere else."""
    def symbol(*xi):
        a, b = (x for i, x in enumerate(xi) if i != axis)
        disc = a * a + b * b < 1.5 ** 2
        return disc * np.exp(1j * xi[axis]) / (1.0 + sum(x * x for x in xi))
    return symbol


def _one_line_symbol():
    """A real array: the full symbol's modulus on the τ-line ``[5]`` only."""
    grid = default_grid(2, 32, for_full_symbol=True)
    full = sample_symbol(grid, SymbolSpec("full", 2, 1))
    m = np.zeros(grid.shape)
    m[5] = np.abs(full[5])
    return grid, m


_ORACLE_CASES = {
    "zero_offset": (default_grid(2, 32), SymbolSpec("full", 2, 1)),
    # supports that are cylinders along a first, a middle and the last
    # axis (only the last prunes the τ-lines, to a disc); one live line
    "lines_axis0": (default_grid(3, 16), _lines_symbol(0)),
    "lines_axis1": (default_grid(3, 16), _lines_symbol(1)),
    "lines_tau": (default_grid(3, 16), _lines_symbol(2)),
    "one_line": _one_line_symbol(),
    "half_cell": (default_grid(2, 32, for_full_symbol=True),
                  SymbolSpec("full", 2, 1)),
    # ring_grid(1, 32, 16) has no lattice point inside its ring
    **{f"ring_j{j}": (ring_grid(j, 32, 16),
                      SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=j))
       for j in (0, 2, 3)},
}


def _starts(grid, spec):
    """The symbol start estimate_operator_norm uses, and the transform of
    seeded space-side noise on the symbol's live lines, the start that a
    run takes from the noise."""
    rng = np.random.Generator(np.random.Philox(31))
    noise = rng.standard_normal(grid.shape) \
        + 1j * rng.standard_normal(grid.shape)
    m = sample_symbol(grid, spec)
    on_live = np.any(m != 0, axis=-1, keepdims=True)
    F = field_on(grid, noise).to_freq()
    return {"symbol": field_on(grid, np.conj(m), in_space=False),
            "noise": F.with_values(F.values * on_live)}


def _tau_lines(m):
    """The ``(n_tau, L)`` τ-lines of a whole array ``m``."""
    return m.reshape(-1, m.shape[-1]).T


@pytest.mark.parametrize("case, n_live", [("half_cell", 32), ("ring_j0", 32)])
def test_the_tau_lines_are_pruned_to_their_nonzero_lines(case, n_live):
    grid, spec = _ORACLE_CASES[case]
    m = sample_symbol(grid, spec)
    live, mk = _live_lines(grid, spec)
    lines = _tau_lines(m)
    assert live.size == n_live
    assert np.all(np.diff(live) > 0)  # ascending line numbers
    dead = np.setdiff1d(np.arange(lines.shape[1]), live)
    assert np.all(lines[:, dead] == 0)
    assert np.all(np.any(lines[:, live] != 0, axis=0))
    assert mk.flags.c_contiguous
    np.testing.assert_array_equal(mk, lines[:, live])


def _tilde_grid():
    # a box that the tilde symbol's eta cutoff crosses on few lines
    return Grid((16, 8, 32), (40.0, 20.0, 9.0), (0.9, 0.05, 0.3))


# two ring specs, whose live |eta|^2 each hold several τ-lines, and a tilde
# and an eps spec, on a lattice of 128 distinct |eta|^2; every case's live
# τ-lines hold zeros
_LIVE_CASES = {
    "ring_j0": _ORACLE_CASES["ring_j0"],
    "ring_j2": _ORACLE_CASES["ring_j2"],
    "tilde": (_tilde_grid(), SymbolSpec("tilde", 3, 1, eps=2.0 ** -3)),
    "eps": (_tilde_grid(), SymbolSpec("eps", 3, 1, eps=2.0 ** -2)),
}


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("case", sorted(_LIVE_CASES))
def test_block_sampled_live_lines_match_the_dense_ones(case, rows,
                                                       monkeypatch):
    # a block holds ``rows`` distinct |eta|^2; blocks of 3 leave a short
    # last block on the tilde and eps lattice
    import carlab.normest as normest
    grid, symbol = _LIVE_CASES[case]
    want = dense_live_lines(np.asarray(sample_symbol(grid, symbol)))
    assert np.any(want[1] == 0)
    if rows is not None:
        monkeypatch.setattr(normest, "_BLOCK", rows * grid.shape[-1])
    live, mk = _live_lines(grid, symbol)
    np.testing.assert_array_equal(live, want[0])
    assert mk.dtype == want[1].dtype and mk.flags.c_contiguous
    np.testing.assert_array_equal(mk, want[1])
    assert live.size < np.prod(grid.shape) // grid.shape[-1]


# `_noise_lines` takes any live lines: a ring and a tilde spec, two
# callables and a precomputed array; the axis-1 callable's live τ-lines hold
# zeros, and blocks of 3 rows leave a short last block on every lattice
_NOISE_CASES = {
    "ring_j0": _ORACLE_CASES["ring_j0"],
    "tilde": _LIVE_CASES["tilde"],
    "callable_axis1": _ORACLE_CASES["lines_axis1"],
    "callable_tau": _ORACLE_CASES["lines_tau"],
    "array_one_line": _ORACLE_CASES["one_line"],
}


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("case", sorted(_NOISE_CASES))
def test_noise_lines_are_the_full_draw_on_the_support(case, rows,
                                                      monkeypatch):
    # each start is the one full draw of real parts, then of imaginary
    # parts, times the support, on the live τ-lines; two in a row continue
    # one stream
    import carlab.normest as normest
    grid, symbol = _NOISE_CASES[case]
    m = np.asarray(sample_symbol(grid, symbol))
    live, mk = dense_live_lines(m)
    support = m != 0
    rng = np.random.Generator(np.random.Philox(5))
    want = []
    for _ in range(2):
        noise = np.empty(grid.shape, complex)
        noise.real = rng.standard_normal(grid.shape)
        noise.imag = rng.standard_normal(grid.shape)
        want.append(_on_lines(noise * support, live))
    if rows is not None:
        monkeypatch.setattr(normest, "_BLOCK",
                            rows * math.prod(grid.shape[1:]))
    rng = np.random.Generator(np.random.Philox(5))
    for w in want:
        got = _noise_lines(rng, grid.shape, live, mk)
        assert got.shape == w.shape
        assert np.all(got == w)


def test_restarts_on_one_lattice_share_its_live_lines(monkeypatch):
    import carlab.normest as normest
    grid = ring_grid(0, 64, 16)
    spec = SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=0)
    m = sample_symbol(grid, spec)
    est = estimate_operator_norm(grid, spec, 2.0, 6.0, n_random=2,
                                 max_iter=6, tol=1e-3)
    # the same runs one by one, each finding its own live lines
    rng = np.random.Generator(np.random.Philox(0))
    starts = [field_on(grid, np.conj(m), in_space=False)]
    for _ in range(2):
        noise = rng.standard_normal(grid.shape) \
            + 1j * rng.standard_normal(grid.shape)
        starts.append(field_on(grid, noise * (m != 0), in_space=False))
    history = sum((power_method(f, *start_lines(f, m), 6.0, max_iter=6,
                                tol=1e-3).history for f in starts), ())
    assert est.history == history
    found = []
    monkeypatch.setattr(normest, "_live_lines",
                        lambda *a: found.append(a) or _live_lines(*a))
    estimate_operator_norm(grid, spec, 2.0, 6.0, n_random=2, max_iter=2,
                           tol=1e-3)
    assert len(found) == 1


def test_ring_estimate_is_bit_identical_on_rerun():
    grid = ring_grid(0, 64, 16)
    spec = SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=0)
    histories = [estimate_operator_norm(grid, spec, 2.0, 6.0, n_random=1,
                                        max_iter=12, tol=1e-3).history
                 for _ in range(2)]
    assert histories[0] == histories[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, q", [(2.0, 6.0), (2.0, 2.0)])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_power_method_matches_the_grid_field_oracle(case, p, q):
    grid, spec = _ORACLE_CASES[case]
    for name, init in _starts(grid, spec).items():
        got = power_method(grid, *start_lines(init, spec), q, tol=1e-9)
        want = _power_method_oracle(init, spec, q, tol=1e-9)
        assert (got.iterations, got.aborted) == \
            (want.iterations, want.aborted), name
        np.testing.assert_allclose(got.history, want.history, rtol=1e-12,
                                   atol=0.0, err_msg=name)


# symbol starts whose every iterate is real and even in each η axis: A8's
# rings on a coarser lattice, and a ring on a zero-offset d = 2 lattice
_QUADRANT_CASES = {
    **{f"ring_j{j}": (ring_grid(j, 64, 16),
                      SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=j))
       for j in range(4)},
    "ring_d2": (Grid((256, 32), (400.0, 40.0), (0.0, 0.0)),
                SymbolSpec("ring", 2, 1, eps=2.0 ** -4, j=0)),
}


def _dct1_calls(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes `normest` hands the DCT-I, recorded from now on."""
    import carlab.normest as normest
    calls = []

    def spy(values, axis, _fn=normest._dct1):
        calls.append(values.shape)
        return _fn(values, axis)
    monkeypatch.setattr(normest, "_dct1", spy)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("case", sorted(_QUADRANT_CASES))
def test_a_symbol_start_runs_on_the_real_quadrants(case, q, monkeypatch):
    # each cross-section's transforms are DCT-Is on its n_i / 2 + 1 quadrant
    # indices per axis, and the run is the complex oracle's
    grid, spec = _QUADRANT_CASES[case]
    init = _starts(grid, spec)["symbol"]
    calls = _dct1_calls(monkeypatch)
    got = power_method(grid, *start_lines(init, spec), q, tol=1e-9)
    want = _power_method_oracle(init, spec, q, tol=1e-9)
    half = [n // 2 + 1 for n in grid.shape[:-1]]
    assert calls and all(
        max(np.subtract(shape[1:], half)) <= 0 for shape in calls)
    assert (got.iterations, got.aborted) == (want.iterations, want.aborted)
    np.testing.assert_allclose(got.history, want.history, rtol=1e-12,
                               atol=0.0)


@dataclass(frozen=True)
class _AnyLengths(Lattice):
    """A lattice whose axis lengths go unchecked, so one can be odd."""

    shape: tuple[int, ...]
    periods: tuple[float, ...]
    freq_offsets: tuple[float, ...]


def test_other_starts_stay_on_the_complex_lattice(monkeypatch):
    # a Gaussian start is neither even nor Hermitian; a half-cell offset
    # takes the symbol off the index negation, on the half_cell lattice and
    # on the d = 2 ring's lattice shifted along η alone; and an odd η axis
    # has no quadrant of n / 2 + 1 indices, though its symbol start is
    # exactly even and Hermitian
    grid, spec = _QUADRANT_CASES["ring_j0"]
    live = _live_lines(grid, spec)
    rng = np.random.Generator(np.random.Philox(3))
    runs = [(grid, live, _noise_lines(rng, grid.shape, *live))]
    grid_d2, ring_d2 = _QUADRANT_CASES["ring_d2"]
    odd = _AnyLengths((255, 32), grid_d2.periods, (0.0, 0.0))
    for lattice, symbol in (
            _ORACLE_CASES["half_cell"],
            (replace(grid_d2, freq_offsets=(math.pi / 400.0, 0.0)), ring_d2),
            (odd, ring_d2)):
        numbers, mk = _live_lines(lattice, symbol)
        runs.append((lattice, (numbers, mk), np.conj(mk)))
    neg = -numbers % 255
    mirror = np.searchsorted(numbers, neg)
    assert np.array_equal(numbers[mirror], neg)
    assert np.array_equal(mk[:, mirror], mk)
    assert np.array_equal(mk[-np.arange(32) % 32], np.conj(mk))
    calls = _dct1_calls(monkeypatch)
    for lattice, live, lines in runs:
        assert live[0].size
        est = power_method(lattice, live, lines, 6.0, max_iter=4)
        assert est.iterations > 1 and not est.aborted
    assert calls == []


# lattices of several blocks of cross-sections
_BLOCKED_CASES = {
    "ring_j0": _ORACLE_CASES["ring_j0"],
    "half_cell": (default_grid(2, 128, for_full_symbol=True),
                  SymbolSpec("full", 2, 1)),
}


@pytest.mark.parametrize("case", sorted(_BLOCKED_CASES))
def test_power_method_at_p2_makes_no_full_size_transform_from_a_frequency_start(
        case, monkeypatch):
    # at p = 2 the iterate stays on the frequency side between steps: its
    # τ transforms (along axis 0) see its live lines and nothing else, and a
    # step transforms blocks of cross-sections, so no other transform sees
    # the whole lattice (the half-cell lattice's lines are all live)
    grid, spec = _BLOCKED_CASES[case]
    starts = {name: start_lines(init, spec)
              for name, init in _starts(grid, spec).items()}
    calls = []
    for name in _FFT_NAMES:
        def counted(a, *args, _fn=getattr(np.fft, name), **kwargs):
            calls.append((kwargs.get("axis"), np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    for name, (live, lines) in starts.items():
        calls.clear()
        tau_lines = lines.shape
        est = power_method(grid, live, lines, 6.0, max_iter=200, tol=1e-6)
        assert 2 < est.iterations < 200
        blocks = [math.prod(shape) for axis, shape in calls if axis != 0]
        assert {shape for axis, shape in calls if axis == 0} == {tau_lines}
        assert len(blocks) > 2 * est.iterations  # several blocks per step
        assert max(blocks) < math.prod(grid.shape), name


@pytest.mark.parametrize("p, q, per_step", [(2.0, 6.0, 2)])
def test_a_capped_run_ends_on_its_last_quotient(p, q, per_step, monkeypatch):
    # the pull-back after the max_iter-th quotient would feed no quotient,
    # so a capped run skips it.  A step transforms τ on the live lines, and
    # each block of cross-sections ``per_step`` stages, one per axis, the
    # first on the runs of lines holding a live entry; a pull-back runs as
    # many forward, the last on the pencils holding a live output, and τ
    # back.  The last step makes no forward call, and none is full-size
    grid, spec = _ORACLE_CASES["ring_j0"]
    init = _starts(grid, spec)["noise"]
    longer = power_method(grid, *start_lines(init, spec), q, max_iter=25,
                          tol=1e-9)
    live, lines = start_lines(init, spec)
    others = grid.shape[:-1]
    assert len(others) == per_step
    first = len(_run_lengths(np.unique(live[0] // others[-1])))
    last = len(_run_lengths(np.unique(live[0] % others[-1])))
    n_blocks = -(-grid.shape[-1] // (_BLOCK // math.prod(others)))
    assert n_blocks > 1 and first > 1 and last > 1
    calls = {name: [] for name in _FFT_NAMES}
    for name in calls:
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name,
                    **kwargs):
            calls[_name].append(np.size(a) == math.prod(grid.shape))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    capped = power_method(grid, live, lines, q, max_iter=24, tol=1e-9)
    assert capped.iterations == 24
    assert not any(sum(c) for c in calls.values())
    inverse = 1 + n_blocks * (first + per_step - 1)
    forward = n_blocks * (per_step - 1 + last) + 1
    assert {name: len(c) for name, c in calls.items()} == {
        **dict.fromkeys(_FFT_NAMES, 0), "ifft": 24 * inverse,
        "fft": 23 * forward}
    assert capped.history == longer.history[:24]


def test_restarts_are_built_one_at_a_time():
    # each restart field is built just before its run and dropped after it,
    # so more restarts do not raise the peak
    grid = ring_grid(0, 64, 16)
    spec = SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=0)
    field_mb = 16 * math.prod(grid.shape) / 2 ** 20

    def peak_mb(n_random):
        tracemalloc.start()
        try:
            estimate_operator_norm(grid, spec, 2.0, 6.0, n_random=n_random,
                                   max_iter=4, tol=1e-3)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    peak_mb(1)  # lazy set-up such as FFT plans is not part of the peak
    assert peak_mb(3) <= peak_mb(1) + 0.5 * field_mb


def _traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak, above what it found."""
    run()  # lazy set-up such as FFT plans is not part of the peak
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_a_p2_run_holds_no_full_size_array_of_its_own():
    # a step runs one block of cross-sections at a time: the run's own
    # arrays are a block and the block's scratch, beside the compact lines
    # it is handed
    grid = ring_grid(0, 64, 16)
    m = sample_symbol(grid, SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=0))
    live, lines = start_lines(field_on(grid, np.conj(m), in_space=False), m)
    peak = _traced_peak(lambda: power_method(grid, live, lines.copy(), 6.0,
                                             max_iter=4, tol=1e-9))
    assert peak <= 0.25 * 16 * math.prod(grid.shape)


def test_a_ring_estimate_holds_no_full_size_array():
    # the symbol is sampled on the distinct |eta|^2, a block at a time,
    # straight into its live lines, the starts are built on those lines,
    # and the runs hold no full-size array of their own
    grid = ring_grid(0, 64, 16)
    spec = SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=0)
    peak = _traced_peak(lambda: estimate_operator_norm(
        grid, spec, 2.0, 6.0, n_random=1, max_iter=4, tol=1e-3))
    assert peak <= 0.25 * 16 * math.prod(grid.shape)


@pytest.mark.parametrize("family", ["tilde", "eps"])
def test_a_witness_bound_holds_no_full_size_array(family):
    # each norm forms one (a0, τ) cross-section per radius, a block of
    # them at a time, so no array of its own is lattice-sized
    eps = 2.0 ** -4
    field = knapp_witness(family, 3, eps, n=64)
    spec = SymbolSpec(family, 3, 1, eps=eps)
    peak = _traced_peak(
        lambda: certified_lower_bound(field, spec, 4.0 / 3.0, 4.0))
    assert peak <= 0.75 * 16 * math.prod(field.shape)


@pytest.mark.parametrize("family", ["tilde", "eps"])
def test_a_witness_holds_no_full_size_array(family):
    # the slab is evaluated on all rows across its factors' supports and
    # kept on its nonzero rows
    peak = _traced_peak(lambda: knapp_witness(family, 3, 2.0 ** -4, n=64))
    assert peak <= 0.5 * 16 * 64 ** 3


@pytest.mark.parametrize("shape, hull, array", [
    # the (a0, eta1, tau) cross-section at d = 4, 2^30 elements
    ((2 ** 10, 2 ** 10, 16, 2 ** 10), (1, 1, 2, 2), "1x1024x1024x1024"),
    # the cross-sections' rows: 8193 radii of the hull's 2^14 (a0, tau)
    # entries, though each cross-section has 2^14 elements only
    ((2 ** 7, 2 ** 14, 2 ** 7), (2 ** 7, 1, 2 ** 7), "8193x16384"),
    # the (a0, tau) cross-section at d = 3, 2^28 elements
    ((2 ** 14, 4, 2 ** 14), (1, 1, 2), "1x16384x16384")])
def test_a_hull_whose_norm_arrays_are_too_large_is_refused_before_sampling(
        monkeypatch, shape, hull, array):
    import carlab.normest as normest
    zeros = np.zeros

    def refuse(*args, **kwargs):
        raise AssertionError("symbol evaluated")

    def small_zeros(shape, *args, **kwargs):
        assert math.prod(np.atleast_1d(shape)) < 2 ** 20, "array allocated"
        return zeros(shape, *args, **kwargs)
    monkeypatch.setattr(normest, "eval_from_radial", refuse)
    monkeypatch.setattr(np, "zeros", small_zeros)
    d = len(shape)  # a one-dimensional radial axis
    field = _record(Grid(shape, (1.0,) * d, (0.0,) * d), d, np.ones(hull),
                    map(np.arange, hull))
    with pytest.raises(ValueError, match=f"a {array} complex array .* GiB"):
        certified_lower_bound(field, SymbolSpec("full", d, 1), 2.0, 4.0)


def _hull(rng, n, wrapped):
    """Ascending indices into range(n); ``wrapped`` takes both ends."""
    if wrapped:
        k = int(rng.integers(1, n // 4 + 1))
        return np.union1d(np.arange(k), np.arange(n - k, n))
    return np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                              replace=False))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(8, 16, 32), (16, 8, 8), (4, 64, 8),
                              (8, 4, 16, 8), (4, 8, 32, 4), (8, 8, 4, 16)]),
       wrapped=st.lists(st.booleans(), min_size=4, max_size=4),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       r=st.sampled_from([4.0 / 3.0, 2.0, 4.0, 6.0]))
def test_hull_norm_matches_the_dense_norm(shape, wrapped, seed, r):
    # at d = 3, 4 the radial axis is one Cartesian axis folded: rho_j for
    # j = 0..n/2 holds the lattice indices j and n - j
    rng = np.random.Generator(np.random.Philox(seed))
    index = [_hull(rng, n, w) for n, w in zip(shape, wrapped)]
    index[-2] = _hull(rng, shape[-2] // 2 + 1, False)
    hull = tuple(len(i) for i in index)
    coef = rng.standard_normal(hull) + 1j * rng.standard_normal(hull)
    periods = tuple(rng.uniform(1.0, 9.0, len(shape)))
    field = _record(Grid(shape, periods, (0.0,) * len(shape)),
                    len(shape), coef, index)
    before = coef.copy()
    assert _radial_norm(field, coef, r) == \
        pytest.approx(lp_norm(unfold(field), r), rel=1e-13, abs=0.0)
    np.testing.assert_array_equal(coef, before)


@pytest.mark.parametrize("r", [4.0 / 3.0, 2.0, 4.0])
@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_the_radial_kernel_norms_a_gaussian_to_its_closed_form(d, r):
    # F = exp(-|xi|^2 / 2) has the space side (2 pi)^(-d/2) exp(-|x|^2 / 2),
    # of L^r norm (2 pi)^(-d/2) (2 pi / r)^(d / (2 r)).  Each axis has the
    # same spacing on both sides: 32 points reach |xi| = 7.1 on the
    # Cartesian axes, and 64 reach 10 on the radial one, where the weight
    # rho^(m-1) lifts the tail
    shape = (32,) * (2 - d % 2) + (64, 32)
    grid = Grid(shape, tuple(math.sqrt(2.0 * math.pi * n) for n in shape),
                (0.0,) * len(shape))
    index = [np.arange(n) for n in shape]
    index[-2] = np.arange(33)
    xi = np.meshgrid(*(a[i] for a, i in zip(grid.freq_axes(), index)),
                     indexing="ij", sparse=True)
    field = _record(grid, d, np.exp(-0.5 * sum(a ** 2 for a in xi)), index)
    want = (2.0 * math.pi) ** (-0.5 * d) \
        * (2.0 * math.pi / r) ** (0.5 * d / r)
    assert _radial_norm(field, field.coef, r) == \
        pytest.approx(want, rel=1e-10, abs=0.0)


def test_a_lattice_of_one_axis_is_refused_before_sampling(monkeypatch):
    # the lines run along τ, the last axis, and `_space_pass` sums over the
    # cross-sections of the axes before it: one axis leaves none
    import carlab.normest as normest

    def refuse(*args, **kwargs):
        raise AssertionError("symbol sampled")
    monkeypatch.setattr(normest, "eval_from_radial", refuse)
    grid = Grid((64,), (10.0,), (0.0,))
    field = KnappField(grid.shape, grid.periods, grid.freq_offsets, 3,
                       np.ones(3, complex), (np.arange(3),))
    spec = SymbolSpec("full", 3, 1)
    with pytest.raises(ValueError, match=r"got shape \(64,\)"):
        estimate_operator_norm(grid, spec, 2.0, 4.0)
    with pytest.raises(ValueError, match=r"got shape \(64,\)"):
        certified_lower_bound(field, spec, 2.0, 4.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"max_iter": 0}, "max_iter"),
    ({"n_random": -1}, "n_random"),
    ({"tol": -1e-3}, "tol"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
])
def test_bad_iteration_settings_are_refused_before_sampling(kwargs, match,
                                                            monkeypatch):
    # max_iter = 0 would certify 0.0, n_random = -1 would run as 0, and a
    # negative seed would fail in Philox only after the symbol start's run
    import carlab.normest as normest

    def refuse(*args, **kw):
        raise AssertionError("symbol sampled")
    monkeypatch.setattr(normest, "eval_from_radial", refuse)
    with pytest.raises(ValueError, match=match):
        estimate_operator_norm(ring_grid(3), SymbolSpec(
            "ring", 3, 1, eps=2.0 ** -6, j=3), 2.0, 4.0, **kwargs)


def test_power_method_refuses_a_run_of_no_iterations():
    grid = default_grid(2, n=32, for_full_symbol=True)
    spec = SymbolSpec("full", 2, 1)
    init = _starts(grid, spec)["symbol"]
    with pytest.raises(ValueError, match="max_iter"):
        power_method(grid, *start_lines(init, spec), 4.0, max_iter=0)


def test_the_ring_symbols_live_on_the_fewest_lines_along_tau():
    # A8's symbols degenerate on {|eta| = 1, tau = 0}, so their support
    # meets few τ-lines: 2,236 against 9,982 along each eta axis at j = 0
    for j in range(4):
        m = sample_symbol(ring_grid(j),
                          SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=j))
        nonzero = m != 0
        del m
        counts = [np.count_nonzero(np.any(nonzero, axis=a))
                  for a in range(nonzero.ndim)]
        assert counts[-1] <= 1.1 * min(counts), (j, counts)


@pytest.mark.parametrize("family, d, n, scales", [
    (family, d, n, scales) for family in ("tilde", "eps")
    for d, n, scales in ((3, 128, range(3, 7)), (5, 32, range(4, 8)),
                         (7, 8, range(4, 8)))])
def test_knapp_hulls_hold_the_fewest_lines_along_tau(family, d, n, scales):
    # A5's witnesses (d = 3) and d = 5, 7 ones on their (a0, rho, tau)
    # lattices: a slab widest along τ, the last axis of each cross-section;
    # a hull holds prod(hull) / len(axis) lines along an axis
    for m in scales:
        index = knapp_witness(family, d, 2.0 ** -m, n=n).index
        size = math.prod(map(len, index))
        counts = [size // len(i) for i in index]
        assert counts[-1] <= 1.1 * min(counts), (m, counts)


@st.composite
def _space_passes(draw):
    """A cross-section shape and a count of them across block edges."""
    others = draw(st.sampled_from([(1,), (3,), (5, 8), (48,), (64, 64),
                                   (_BLOCK + 3,), (4, 6, 8)]))
    per_block = max(1, _BLOCK // math.prod(others))
    n_axis = draw(st.one_of(
        st.integers(min_value=1, max_value=64),
        st.builds(lambda k, off: max(1, k * per_block + off),
                  st.integers(min_value=1, max_value=3),
                  st.integers(min_value=-3, max_value=3))))
    return others, n_axis


@settings(max_examples=40, deadline=None)
@given(shape=_space_passes(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       q=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
       box=st.booleans(), chunk=st.sampled_from([2 ** 16, 7]))
def test_block_q_pass_matches_the_dense_pass(shape, seed, q, box, chunk):
    # a box of live lines is one more live pattern; a chunk of 7 splits
    # every block's scratch with a short last chunk
    others, n_axis = shape
    rng = np.random.Generator(np.random.Philox(seed))
    live = np.flatnonzero(rng.random(math.prod(others)) < 0.3)
    if box:
        live = np.ravel_multi_index(np.ix_(*(
            np.flatnonzero(rng.random(n) < 0.5) for n in others)),
            others).ravel()
    lines = rng.standard_normal((n_axis, live.size)) \
        + 1j * rng.standard_normal((n_axis, live.size))
    lines[rng.random(n_axis) < 0.25] = 0.0  # cross-sections of exact zeros
    # the dense pass: the whole lattice, transformed over the other axes
    axes = tuple(range(1, 1 + len(others)))
    full = np.zeros((n_axis,) + others, complex)
    full.reshape(n_axis, -1)[:, live] = lines
    g = np.fft.ifftn(full, axes=axes)
    mags = np.abs(g)
    with np.errstate(divide="ignore"):
        dual = g * np.where(mags > 0, mags ** (q - 2.0), 0.0)
    want = np.fft.fftn(dual, axes=axes).reshape(n_axis, -1)[:, live]
    kept, got = lines.copy(), lines.copy()
    with mock.patch("carlab.normest._CHUNK", chunk):
        total = _space_pass(kept, live, others, q, pull_back=False)
        assert _space_pass(got, live, others, q, pull_back=True) == total
    assert total == pytest.approx(np.sum(mags ** q), rel=1e-13, abs=0.0)
    np.testing.assert_array_equal(kept, lines)
    # the forward transform mixes each cross-section: its rounding is
    # relative to the largest output, not to each entry
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max(initial=0.0))


def _unpruned_space_pass(lines, live, others, q, pull_back):
    """`_space_pass` on the complex lattice with whole-block ``ifftn`` and
    ``fftn``: its blocks, chunks, modulus and sums, and no pruned stage."""
    import carlab.normest as normest
    n_axis = lines.shape[0]
    b = normest._block_rows((n_axis,) + others)
    buf = np.empty((b,) + others, complex)
    sq = np.empty(min(buf.size, normest._CHUNK))
    w = np.empty_like(sq)
    axes = tuple(range(1, buf.ndim))
    total = 0.0
    for t in range(0, n_axis, b):
        rows = lines[t:t + b]
        block = buf[:len(rows)]
        flat = block.reshape(len(rows), -1)
        flat.fill(0.0)
        flat[:, live] = rows
        np.fft.ifftn(block, axes=axes, out=block)
        g = block.reshape(-1)
        for c in range(0, g.size, sq.size):
            gc = g[c:c + sq.size]
            s, wc = sq[:gc.size], w[:gc.size]
            np.multiply(gc.real, gc.real, out=s)
            np.multiply(gc.imag, gc.imag, out=wc)
            s += wc
            np.copyto(wc, s)
            _power_in_place(wc, 0.5 * q - 1.0)
            if pull_back:
                gc.real *= wc
                gc.imag *= wc
            s *= wc
            total += np.sum(s)
        if pull_back:
            np.fft.fftn(block, axes=axes, out=block)
            rows[...] = flat[:, live]
    return float(total)


@settings(max_examples=60, deadline=None)
@given(shape=_space_passes(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       q=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
       density=st.sampled_from([0.0, 0.02, 0.3, 1.0]), box=st.booleans(),
       chunk=st.sampled_from([2 ** 16, 7]))
def test_pruned_stages_are_bit_identical_to_whole_block_transforms(
        shape, seed, q, density, box, chunk):
    # a density of 0 leaves no live entry and no run; a box of live lines
    # leaves runs with gaps along every axis
    others, n_axis = shape
    rng = np.random.Generator(np.random.Philox(seed))
    live = np.flatnonzero(rng.random(math.prod(others)) < density)
    if box:
        live = np.ravel_multi_index(np.ix_(*(
            np.flatnonzero(rng.random(n) < 0.5) for n in others)),
            others).ravel()
    lines = rng.standard_normal((n_axis, live.size)) \
        + 1j * rng.standard_normal((n_axis, live.size))
    got, want = lines.copy(), lines.copy()
    with mock.patch("carlab.normest._CHUNK", chunk):
        for pull_back in (False, True):
            total = _space_pass(got, live, others, q, pull_back)
            assert total == _unpruned_space_pass(want, live, others, q,
                                                 pull_back)
    assert np.array_equal(got, want)


@st.composite
def _even_passes(draw):
    """A `_space_passes` shape of even axis lengths, and live entries
    closed under negating their indices."""
    others, n_axis = draw(_space_passes().filter(
        lambda s: all(n % 2 == 0 for n in s[0])))
    index = np.indices(others).reshape(len(others), -1)
    fold = np.ravel_multi_index(
        [np.minimum(i, n - i) for i, n in zip(index, others)],
        [n // 2 + 1 for n in others])
    picked = draw(st.sets(st.sampled_from(np.unique(fold).tolist()),
                          max_size=40))
    return others, n_axis, fold, np.flatnonzero(np.isin(fold, list(picked)))


@settings(max_examples=40, deadline=None)
@given(case=_even_passes(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       q=st.sampled_from([2.0, 3.0, 6.0]),
       chunk=st.sampled_from([2 ** 16, 7]))
def test_the_quadrant_pass_matches_the_complex_pass(case, seed, q, chunk):
    # real lines even under index negation: the quadrant pass sums the
    # same terms, and pulls back real lines that stay exactly even.  q < 2
    # is left out: there ``|g|^(q-1)`` is not Lipschitz at the zeros of g,
    # where the two passes' roundoff differs
    others, n_axis, fold, live = case
    rng = np.random.Generator(np.random.Philox(seed))
    values = rng.standard_normal((n_axis, fold.max() + 1))
    lines = values[:, fold[live]] + 0j
    got, want = lines.copy(), lines.copy()
    with mock.patch("carlab.normest._CHUNK", chunk):
        total = _space_pass(got, live, others, q, True, True)
        assert total == pytest.approx(
            _space_pass(want, live, others, q, True), rel=1e-13, abs=0.0)
    assert np.all(got.imag == 0.0)
    _, first, inverse = np.unique(fold[live], return_index=True,
                                  return_inverse=True)
    assert np.array_equal(got, got[:, first[inverse]])
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-13 * np.abs(want).max(initial=0.0))


def test_a_knapp_fit_runs_on_one_core():
    # no BLAS call in a witness bound, so no OpenBLAS worker burns a second
    # core beside the pass: CPU time stays within its wall time
    code = ("import time\n"
            "from fractions import Fraction\n"
            "from carlab.acceptance import knapp_fit\n"
            "from carlab.regions import ExponentPoint\n"
            "point = ExponentPoint(Fraction(3, 4), Fraction(1, 4))\n"
            "cpu, wall = time.process_time(), time.perf_counter()\n"
            "knapp_fit('eps', 3, 1, [2.0 ** -m for m in range(3, 7)], "
            "point)\n"
            "print(time.process_time() - cpu, time.perf_counter() - wall)\n")
    src = str(pathlib.Path(carlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    cpu, wall = map(float, out.split())
    assert cpu <= 1.2 * wall + 0.05, (cpu, wall)


@pytest.mark.parametrize("fn", [_radial_norm, _space_pass])
def test_the_lattice_pass_makes_no_blas_call(fn):
    # the timing guard above cannot see a worker where the machine has one
    # core; the pass's own code must not reach BLAS by @, dot, matmul or
    # tensordot (comments and docstrings may name them)
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.MatMult)), ast.unparse(node)
        assert not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.MatMult)), ast.unparse(node)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            assert name not in ("dot", "vdot", "matmul", "tensordot"), (
                ast.unparse(node))


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_norm_estimation_never_writes_into_its_inputs(lattice):
    spec = SymbolSpec("full", 2, 1)
    m = np.array(sample_symbol(lattice, spec))  # writable, precomputed
    rng = np.random.Generator(np.random.Philox(12))
    f = field_on(lattice, rng.standard_normal(lattice.shape)
                          + 1j * rng.standard_normal(lattice.shape))
    h = field_on(lattice, rng.standard_normal(lattice.shape) + 0j,
                          in_space=False)
    witnesses = (_wrapped_field(), knapp_witness("eps", 3, 2.0 ** -4, n=32))
    arrays = (f.values, h.values, m, *(w.coef for w in witnesses))
    before = [_digest(a) for a in arrays]
    for w, w_spec in zip(witnesses, (SymbolSpec("full", 3, 1),
                                     SymbolSpec("eps", 3, 1, eps=2.0 ** -4))):
        certified_lower_bound(w, w_spec, 1.5, 4.0)
        certified_lower_bound(w, w_spec, 2.0, 2.0)
    for field in (f, h):
        power_method(lattice, *start_lines(field, spec), 6.0, max_iter=3)
        power_method(lattice, *start_lines(field, m), 3.0, max_iter=3)
    estimate_operator_norm(lattice, spec, 2.0, 2.0, n_random=1, max_iter=3)
    assert [_digest(a) for a in arrays] == before


# ---------------------------------------------------------------------------
# dualize


def test_dualize_zero_and_exponent_guard():
    out = dualize(np.array([0.0 + 0.0j, 2.0j]), 3.0)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(4.0j)
    with pytest.raises(ValueError):
        dualize(np.array([1.0 + 0j]), 0.5)


# ---------------------------------------------------------------------------
# scaling fits


def test_exact_power_law_recovered():
    eps = [2.0 ** -m for m in range(3, 8)]
    vals = [e ** 0.75 for e in eps]
    fit = fit_scaling(eps, vals)
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.max_residual <= 1e-12


def test_noisy_fixture_within_tolerance():
    rng = np.random.Generator(np.random.Philox(123))
    eps = [2.0 ** -m for m in range(3, 9)]
    vals = [3.0 * e ** (1.0 / 3.0) * (1.0 + 0.01 * rng.uniform(-1, 1))
            for e in eps]
    fit = fit_scaling(eps, vals)
    assert abs(fit.slope - 1.0 / 3.0) <= 0.02


def test_one_fit_is_judged_against_the_exponent_each_check_names():
    # below T_KD's top edge at (d, k) = (5, 2) the Knapp and upper
    # exponents part: 9/20 against 1/5, further apart than the tolerance
    eps = [2.0 ** -m for m in range(3, 7)]
    fit = fit_scaling(eps, [e ** 0.45 for e in eps])
    point = pt("3/4", "1/20")
    knapp, upper = (float(theoretical_exponent(kind, 5, 2, point))
                    for kind in (ExponentKind.ME_KNAPP, ExponentKind.ME_UPPER))
    assert (knapp, upper) == (0.45, 0.2)
    at_knapp = SlopeCheck(fit, knapp, KNAPP_TOL)
    at_upper = SlopeCheck(fit, upper, KNAPP_TOL)
    assert at_knapp.ok and at_knapp.dev <= 1e-12
    assert not at_upper.ok and at_upper.dev == pytest.approx(0.25)
    assert "vs theory +0.2000" in at_upper.detail


def test_degenerate_abscissae_rejected():
    with pytest.raises(ValueError):
        fit_scaling([0.5, 0.5, 0.25], [1.0, 1.0, 2.0])


_part = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3),
                  st.floats(min_value=-1e3, max_value=-1e-6))


@settings(max_examples=60, deadline=None)
@given(re=st.lists(_part, min_size=1, max_size=24), data=st.data(),
       r=st.floats(min_value=1.0, max_value=8.0))
def test_dualize_matches_phase_times_power(re, data, r):
    im = data.draw(st.lists(_part, min_size=len(re), max_size=len(re)))
    h = np.array(re) + 1j * np.array(im)
    h[::3] = 0.0  # zeros in every input
    np.testing.assert_allclose(dualize(h, r), _dualize_reference(h, r),
                               rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(re=st.lists(_part, min_size=2, max_size=24), data=st.data(),
       r=st.floats(min_value=1.05, max_value=8.0))
def test_dualize_is_the_norming_map(re, data, r):
    # ||dualize(h, r)||_{r'}^{r'} = ||h||_r^r, with r' = r / (r - 1)
    im = data.draw(st.lists(_part, min_size=len(re), max_size=len(re)))
    h = np.array(re) + 1j * np.array(im)
    h[0] = 1.0 + 1.0j  # at least one nonzero sample
    r_dual = r / (r - 1.0)
    lhs = sample_lp_norm(dualize(h, r), r_dual, 1.0) ** r_dual
    rhs = sample_lp_norm(h, r, 1.0) ** r
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dualize_at_two_is_the_identity():
    h = np.array([0.0, 1.0 - 2.0j, 3.0j])
    np.testing.assert_array_equal(dualize(h, 2.0), h)
