"""Operator-norm lower bounds, power iteration, scaling fits."""
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab.acceptance import ring_grid
from carlab.normest import (ExponentKind, NormEstimate, _live_lines,
                            certified_lower_bound, dualize,
                            estimate_operator_norm, fit_scaling, power_method,
                            theoretical_exponent)
from carlab.regions import ExponentPoint
from carlab.spectral import (apply_multiplier, default_grid, lp_norm,
                             sample_lp_norm, sample_symbol)
from carlab.symbols import SymbolSpec, symbol_on_axes

RNG = np.random.Generator(np.random.Philox(77))


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


def test_single_mode_gives_symbol_modulus():
    g = default_grid(2, n=32, for_full_symbol=True)
    vals = np.zeros(g.shape, complex)
    vals[3, 7] = 2.0
    f = g.with_values(vals, in_space=False)
    spec = SymbolSpec("full", 2, 1)
    m = symbol_on_axes(spec, g.freq_axes())
    est = certified_lower_bound(f, spec, 2.0, 2.0)
    assert est == pytest.approx(abs(m[3, 7]), rel=1e-10)


def test_witness_scale_invariance():
    g = default_grid(2, n=32)
    f = g.with_values(RNG.standard_normal(g.shape)
                      + 1j * RNG.standard_normal(g.shape), in_space=True)
    spec = SymbolSpec("full", 2, 1)
    a = certified_lower_bound(f, spec, 1.5, 3.0)
    b = certified_lower_bound(f.with_values(17.0 * f.values), spec, 1.5, 3.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_zero_witness_rejected():
    g = default_grid(2, n=16)
    f = g.with_values(np.zeros(g.shape, complex), in_space=True)
    with pytest.raises(ValueError):
        certified_lower_bound(f, SymbolSpec("full", 2, 1), 2.0, 2.0)


def test_conjugate_reflected_witness_duality():
    from carlab.spectral import conjugate_reflect
    g = default_grid(2, n=64)
    f = g.with_values(RNG.standard_normal(g.shape)
                      + 1j * RNG.standard_normal(g.shape), in_space=True)
    spec = SymbolSpec("full", 2, 2)

    def conj_symbol(e1, tau):
        return np.conj((e1 * e1 + tau * tau - 1.0 + 2j * tau) ** -2)

    a = certified_lower_bound(f, spec, 1.25, 5.0)
    b = certified_lower_bound(conjugate_reflect(f), conj_symbol, 1.25, 5.0)
    assert a == pytest.approx(b, rel=1e-10)


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
    f = g.with_values(RNG.standard_normal(g.shape) + 0j, in_space=True)
    est = power_method(f, SymbolSpec("full", 2, 1), 1.5, 4.0, max_iter=8)
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
       p=st.floats(1.0, 8.0, exclude_min=True, exclude_max=True),
       q=st.floats(1.0, 8.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_power_method_record_is_consistent(case, p, q, seed):
    grid, spec = _RECORD_CASES[case]
    rng = np.random.Generator(np.random.Philox(seed))
    init = grid.with_values(rng.standard_normal(grid.shape)
                            + 1j * rng.standard_normal(grid.shape),
                            in_space=True)
    est = power_method(init, spec, p, q)
    assert est.iterations == len(est.history)
    assert est.value == max(est.history, default=0.0)
    assert all(np.isfinite(h) for h in est.history)
    if not est.aborted:
        assert est.history and all(h > 0.0 for h in est.history)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1.001, 1.0 + 1e-7])
def test_power_method_near_p_one_keeps_iterating(p):
    # p' = p / (p - 1) is 1001 and 1e7 + 1: the pulled-back iterate is raised
    # to the power p' - 1, which overflows unless it is scaled first
    grid = default_grid(2, 16, for_full_symbol=True)
    rng = np.random.Generator(np.random.Philox(3))
    init = grid.with_values(rng.standard_normal(grid.shape)
                            + 1j * rng.standard_normal(grid.shape))
    est = power_method(init, SymbolSpec("full", 2, 1), p, 3.0)
    assert not est.aborted
    assert est.iterations > 1


def test_degenerate_init_reports_zero():
    g = default_grid(2, n=32, freq_span=0.4)
    vals = np.zeros(g.shape, complex)
    vals[1, 1] = 1.0  # single mode far from the tilde tau-window
    f = g.with_values(vals, in_space=False)
    est = power_method(f, SymbolSpec("tilde", 2, 1, eps=2.0 ** -5), 2.0, 2.0,
                       max_iter=6)
    assert est.value == 0.0
    assert est.aborted


def test_power_beats_any_explicit_init():
    g = default_grid(2, n=32)
    f = g.with_values(RNG.standard_normal(g.shape)
                      + 1j * RNG.standard_normal(g.shape), in_space=True)
    spec = SymbolSpec("full", 2, 1)
    base = certified_lower_bound(f, spec, 2.0, 6.0)
    est = estimate_operator_norm(g, spec, 2.0, 6.0, extra_inits=(f,),
                                 n_random=1)
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
    f = g.with_values(rng.standard_normal(g.shape) + 0j, in_space=True)
    im_val = certified_lower_bound(f, im_symbol, 2.0, 4.0)
    full_val = estimate_operator_norm(g, full_spec, 2.0, 4.0,
                                      extra_inits=(f,), n_random=1)
    assert im_val <= full_val.value * (1 + 1e-9)


def _dualize_reference(values, r):
    # the two-step form: phase(h) * |h|^(r - 1), zero where h is
    mags = np.abs(values)
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(mags > 0, values / mags, 0.0)
    return phase * mags ** (r - 1.0)


def _power_method_oracle(init, symbol, p, q, *, max_iter=24, tol=1e-4):
    """The iteration on modulated `GridField`s, five transforms per step."""
    m = sample_symbol(init, symbol)
    mc = np.conj(m)
    p_dual = p / (p - 1.0)
    F = init.to_freq()
    history = []
    aborted = False
    fvals = F.values
    for _ in range(max_iter):
        f_space = F.with_values(fvals, in_space=False).to_space()
        nf = lp_norm(f_space, p)
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
        v = F.with_values(mc * u.values, in_space=False).to_space()
        fvals = u.with_values(_dualize_reference(v.values, p_dual),
                              in_space=True).to_freq().values
    return NormEstimate(value=max(history) if history else 0.0, p=p, q=q,
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
    """A real array: the full symbol's modulus on the line ``[:, 5]`` only."""
    grid = default_grid(2, 32, for_full_symbol=True)
    full = sample_symbol(grid, SymbolSpec("full", 2, 1))
    m = np.zeros(grid.shape)
    m[:, 5] = np.abs(full[:, 5])
    return grid, m


_ORACLE_CASES = {
    "zero_offset": (default_grid(2, 32), SymbolSpec("full", 2, 1)),
    # lines pruned along a first and a middle axis, and a single live line
    "lines_axis0": (default_grid(3, 16), _lines_symbol(0)),
    "lines_axis1": (default_grid(3, 16), _lines_symbol(1)),
    "one_line": _one_line_symbol(),
    "half_cell": (default_grid(2, 32, for_full_symbol=True),
                  SymbolSpec("full", 2, 1)),
    # ring_grid(1, 32, 16) has no lattice point inside its ring
    **{f"ring_j{j}": (ring_grid(j, 32, 16),
                      SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=j))
       for j in (0, 2, 3)},
}


def _starts(grid, spec):
    """The symbol start estimate_operator_norm uses, and seeded noise."""
    rng = np.random.Generator(np.random.Philox(31))
    noise = rng.standard_normal(grid.shape) \
        + 1j * rng.standard_normal(grid.shape)
    return {"symbol": grid.with_values(np.conj(sample_symbol(grid, spec)),
                                       in_space=False),
            "noise": grid.with_values(noise, in_space=True)}


@pytest.mark.parametrize("case, axis, n_live", [
    ("lines_axis0", 0, 37), ("lines_axis1", 1, 37), ("one_line", 0, 1),
    ("half_cell", 0, 32), ("ring_j0", 2, 32)])
def test_the_emptiest_axis_is_pruned_to_its_nonzero_lines(case, axis, n_live):
    grid, spec = _ORACLE_CASES[case]
    m = sample_symbol(grid, spec)
    got_axis, runs, gaps, mk = _live_lines(m)
    lines = np.moveaxis(m, axis, 0).reshape(m.shape[axis], -1)
    kind = np.zeros(lines.shape[1], int)
    for a, b, _ in runs:
        kind[a:b] += 1
    for a, b in gaps:
        kind[a:b] += 2
    assert set(kind.tolist()) <= {1, 2}  # runs and gaps partition the lines
    live = np.flatnonzero(kind == 1)
    assert (got_axis, live.size) == (axis, n_live)
    assert np.all(lines[:, kind == 2] == 0)
    assert np.all(np.any(lines[:, live] != 0, axis=0))
    assert [o for _, _, o in runs] == \
        np.cumsum([0] + [b - a for a, b, _ in runs])[:-1].tolist()
    np.testing.assert_array_equal(mk, lines[:, live])


def test_ring_estimate_is_bit_identical_on_rerun():
    grid = ring_grid(0, 64, 16)
    spec = SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=0)
    histories = [estimate_operator_norm(grid, spec, 2.0, 6.0, n_random=1,
                                        max_iter=12, tol=1e-3).history
                 for _ in range(2)]
    assert histories[0] == histories[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, q", [(2.0, 6.0), (1.5, 4.0), (3.0, 3.0)])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_power_method_matches_the_grid_field_oracle(case, p, q):
    grid, spec = _ORACLE_CASES[case]
    for name, init in _starts(grid, spec).items():
        if name == "symbol" and p > 2.0:
            continue  # see test_symbol_start_at_dual_exponent_below_two
        got = power_method(init, spec, p, q, tol=1e-9)
        want = _power_method_oracle(init, spec, p, q, tol=1e-9)
        assert (got.iterations, got.aborted) == \
            (want.iterations, want.aborted), name
        np.testing.assert_allclose(got.history, want.history, rtol=1e-12,
                                   atol=0.0, err_msg=name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_symbol_start_at_dual_exponent_below_two(case):
    # From conj(m) at p = 3 the pulled-back iterate has exact zero samples on
    # the half-cell and ring j = 2 lattices.  dualize at p' = 1.5 takes the
    # square root of their modulus, so a roundoff of 1e-17 there becomes
    # 3e-9 and the histories part from the third step on, whatever the
    # arithmetic: the oracle itself moves by up to 3e-5 (half cell) and
    # 2e-3 (ring j = 2) when its start is perturbed by 1e-15.  So the histories
    # are compared over the two steps before that.
    grid, spec = _ORACLE_CASES[case]
    init = _starts(grid, spec)["symbol"]
    got = power_method(init, spec, 3.0, 3.0, tol=1e-9)
    want = _power_method_oracle(init, spec, 3.0, 3.0, tol=1e-9)
    assert (got.iterations, got.aborted) == (want.iterations, want.aborted)
    np.testing.assert_allclose(got.history[:2], want.history[:2], rtol=1e-12,
                               atol=0.0)


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_norm_estimation_never_writes_into_its_inputs(lattice):
    spec = SymbolSpec("full", 2, 1)
    m = np.array(sample_symbol(lattice, spec))  # writable, precomputed
    rng = np.random.Generator(np.random.Philox(12))
    f = lattice.with_values(rng.standard_normal(lattice.shape)
                            + 1j * rng.standard_normal(lattice.shape))
    h = lattice.with_values(rng.standard_normal(lattice.shape) + 0j,
                            in_space=False)
    arrays = (lattice.values, f.values, h.values, m)
    before = [_digest(a) for a in arrays]
    for field in (f, h):
        certified_lower_bound(field, spec, 1.5, 4.0)
        certified_lower_bound(field, m, 2.0, 2.0)
        power_method(field, spec, 2.0, 6.0, max_iter=3)
        power_method(field, m, 3.0, 3.0, max_iter=3)
    estimate_operator_norm(lattice, m, 1.5, 4.0, extra_inits=(f, h),
                           n_random=1, max_iter=3)
    estimate_operator_norm(lattice, spec, 2.0, 2.0, extra_inits=(f, h),
                           n_random=1, max_iter=3)
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
    assert np.isnan(fit.theory)  # no kind requested, nothing to compare


def test_noisy_fixture_within_tolerance():
    rng = np.random.Generator(np.random.Philox(123))
    eps = [2.0 ** -m for m in range(3, 9)]
    vals = [3.0 * e ** (1.0 / 3.0) * (1.0 + 0.01 * rng.uniform(-1, 1))
            for e in eps]
    fit = fit_scaling(eps, vals)
    assert abs(fit.slope - 1.0 / 3.0) <= 0.02


def test_theory_attached_when_kind_given():
    eps = [2.0 ** -m for m in range(3, 7)]
    vals = [e ** -0.25 for e in eps]
    fit = fit_scaling(eps, vals, kind=ExponentKind.TILDE_KNAPP, d=3, k=1,
                      point=pt("3/4", "1/4"))
    assert fit.theory == pytest.approx(-0.25)
    assert fit.kind is ExponentKind.TILDE_KNAPP


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
