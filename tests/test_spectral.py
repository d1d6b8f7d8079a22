"""Grid fields, multiplier application, and lattice norms."""
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from carlab import spectral
from carlab.acceptance import knapp_witness, ring_grid
from carlab.normest import certified_lower_bound
from carlab.spectral import (MAX_LATTICE_BYTES, Grid, GridField,
                             apply_multiplier, check_lattice_size,
                             default_grid, lorentz_norm, lp_norm,
                             sample_symbol)
from carlab.symbols import SymbolSpec
from fields import conjugate_reflect, field_on, support_hull, unfold

RNG = np.random.Generator(np.random.Philox(404))


def noise_field(d=2, n=64, seed=5) -> GridField:
    g = default_grid(d, n=n)
    rng = np.random.Generator(np.random.Philox(seed))
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return field_on(g, vals, in_space=True)


# ---------------------------------------------------------------------------
# the field itself


def test_round_trip_transform():
    f = noise_field()
    back = f.to_freq().to_space()
    rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
    assert rel <= 1e-12


def test_freq_axes_are_fft_ordered_lattice():
    g = default_grid(2, n=16)
    ax = g.freq_axes()[0]
    step = 2.0 * math.pi / g.periods[0]
    want = g.freq_offsets[0] + step * np.fft.fftfreq(16, d=1.0 / 16)
    np.testing.assert_allclose(ax, want, rtol=1e-14)


def test_power_of_two_enforced():
    with pytest.raises(ValueError):
        GridField(np.zeros((12, 12), complex), (1.0, 1.0), (0.0, 0.0),
                  in_space=True)


@pytest.mark.parametrize("shape, periods, offsets, message", [
    ((12, 16), (1.0, 1.0), (0.0, 0.0), "12 is not a power of two"),
    ((1, 16), (1.0, 1.0), (0.0, 0.0), "1 is not a power of two"),
    ((16, 16), (1.0, 0.0), (0.0, 0.0), "periods must be positive"),
    ((16, 16), (1.0,), (0.0, 0.0), "rank must match")])
def test_a_lattice_and_a_field_refuse_the_same_geometry(shape, periods,
                                                        offsets, message):
    with pytest.raises(ValueError, match=message):
        Grid(shape, periods, offsets)
    with pytest.raises(ValueError, match=message):
        GridField(np.zeros(shape, complex), periods, offsets)


def test_a_lattice_holds_its_geometry_as_tuples():
    g = Grid([16, np.int64(8)], [2, 4.0], (0, 0.5))
    assert (g.shape, g.periods, g.freq_offsets) == \
        ((16, 8), (2.0, 4.0), (0.0, 0.5))
    assert all(type(n) is int for n in g.shape)
    assert all(type(v) is float for v in g.periods + g.freq_offsets)


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_transforms_never_write_into_their_input(lattice):
    # the transforms work in place on their own copy, never on field.values
    rng = np.random.Generator(np.random.Philox(11))
    vals = (rng.standard_normal(lattice.shape)
            + 1j * rng.standard_normal(lattice.shape))

    def symbol(*axes):
        return 1.0 + 0.5j + sum(a * a for a in axes)

    for in_space in (True, False):
        f = field_on(lattice, vals.copy(), in_space=in_space)
        before = digest(f.values)
        f.to_freq()
        f.to_space()
        apply_multiplier(f, symbol)
        apply_multiplier(f, SymbolSpec("full", 2, 1))
        assert digest(f.values) == before, in_space


def test_transforms_are_the_plain_dft_on_every_lattice():
    # the offsets name the frequencies; they never enter the transforms
    f = noise_field(d=2, n=32)
    want = np.fft.fftn(f.values) * f.cell_volume
    for offsets in ((0.0, 0.0), (0.0, 0.5 * 7.0 / 32), (0.25, -1.5)):
        shifted = replace(f, freq_offsets=offsets)
        F = shifted.to_freq()
        np.testing.assert_array_equal(F.values, want)
        np.testing.assert_array_equal(
            F.to_space().values, np.fft.ifftn(want / f.cell_volume))


# ---------------------------------------------------------------------------
# the DCT-I


def _dense_dct1(values, axis):
    """The DCT-I as a dense cosine matrix: ``X_k = sum_j c_j x_j cos(pi j k
    / (m - 1))``, ``c_j`` 1 at both ends and 2 inside."""
    m = values.shape[axis]
    j = np.arange(m)
    mat = np.where((j == 0) | (j == m - 1), 1.0, 2.0) * np.cos(
        np.pi * np.outer(j, j) / (m - 1))
    return np.moveaxis(np.einsum("kj,...j->...k", mat,
                                 np.moveaxis(values, axis, -1)), -1, axis)


def _whole_dct1(values, axis):
    """The DCT-I on the whole even extension at once, its other axes
    unsplit."""
    back = [slice(None)] * values.ndim
    back[axis] = slice(-2, 0, -1)
    return np.fft.rfft(np.concatenate([values, values[tuple(back)]],
                                      axis=axis), axis=axis).real


@pytest.mark.parametrize("shape", [(5, 6, 7), (9, 4), (2, 3), (17,)])
@pytest.mark.parametrize("lines", [1, 4, 16, 10 ** 6])
def test_dct1_is_the_dense_cosine_transform_on_every_axis(shape, lines,
                                                          monkeypatch):
    # odd and even lengths; slabs of one line; of 4 lines, which divide
    # none of the split axes of (5, 6, 7); of 16 lines, which take whole
    # rows and split the axis before them; and the whole array; into a
    # fresh array and in place, bit for bit alike and alike the unsplit
    # transform
    x = np.random.Generator(np.random.Philox(8)).standard_normal(shape)
    keep = x.copy()
    for axis in range(x.ndim):
        monkeypatch.setattr(spectral, "_SLAB", lines * 2 * (shape[axis] - 1))
        fresh = np.full(shape, np.nan)
        assert spectral._dct1(x, axis, fresh) is fresh
        np.testing.assert_array_equal(x, keep)
        inplace = x.copy()
        assert spectral._dct1(inplace, axis, inplace) is inplace
        np.testing.assert_array_equal(inplace, fresh)
        np.testing.assert_array_equal(fresh, _whole_dct1(x, axis))
        np.testing.assert_allclose(fresh, _dense_dct1(x, axis), rtol=0.0,
                                   atol=1e-12 * np.abs(x).max())


def test_dct1_writes_through_a_strided_view_in_place(monkeypatch):
    # as `normest` hands it runs of a block: the view's entries change and
    # nothing else does
    monkeypatch.setattr(spectral, "_SLAB", 3 * 2 * 4)
    big = np.random.Generator(np.random.Philox(9)).standard_normal((4, 11, 5))
    view = big[:, 1::2]
    want = big.copy()
    want[:, 1::2] = _dense_dct1(view, 2)
    spectral._dct1(view, 2, view)
    np.testing.assert_allclose(big, want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max())
    np.testing.assert_array_equal(big[:, ::2], want[:, ::2])


# ---------------------------------------------------------------------------
# multiplier application


def test_constant_symbol_is_identity():
    f = noise_field()
    g = apply_multiplier(f, lambda *axes: np.asarray(1.0 + 0.0j))
    np.testing.assert_allclose(g.to_space().values, f.values, atol=1e-12)


def test_symbol_dead_on_lattice_gives_zero():
    # lattice tau values miss the psi window entirely on a tight grid
    g = default_grid(3, n=16, freq_span=0.4)
    f = field_on(g, RNG.standard_normal(g.shape) + 0j, in_space=True)
    out = apply_multiplier(f, SymbolSpec("tilde", 3, 1, eps=2.0 ** -5))
    assert np.abs(out.to_space().values).max() == 0.0


def test_single_mode_rayleigh_quotient_is_symbol_modulus():
    g = default_grid(2, n=32)
    vals = np.zeros(g.shape, complex)
    vals[3, 7] = 1.0
    f = field_on(g, vals, in_space=False)
    xi = (g.freq_axes()[0][3], g.freq_axes()[1][7])
    spec = SymbolSpec("full", 2, 1)
    out = apply_multiplier(f, spec)
    from carlab.symbols import eval_symbol
    want = abs(eval_symbol(spec, np.array(xi)))
    got = lp_norm(out, 2.0) / lp_norm(f, 2.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_reciprocal_composition_restores_field():
    g = default_grid(3, n=64, for_full_symbol=True)
    vals = np.zeros(g.shape, complex)
    vals[5:9, 3:7, 4:8] = (RNG.standard_normal((4, 4, 4))
                           + 1j * RNG.standard_normal((4, 4, 4)))
    f = field_on(g, vals, in_space=False)
    spec = SymbolSpec("full", 3, 1)
    h = apply_multiplier(f, spec)

    def reciprocal(e1, e2, tau):
        return e1 * e1 + e2 * e2 + tau * tau - 1.0 + 2j * tau

    back = apply_multiplier(h, reciprocal)
    rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
    assert rel <= 1e-8


def test_conjugate_symbol_duality_on_random_fields():
    # ||conj(m)(D) f~||_q == ||m(D) f||_q with f~ the conjugate reflection
    g = default_grid(2, n=64)
    spec = SymbolSpec("full", 2, 2)
    for seed in (1, 2):
        rng = np.random.Generator(np.random.Philox(seed))
        f = field_on(g, rng.standard_normal(g.shape)
                        + 1j * rng.standard_normal(g.shape), in_space=True)
        lhs = lp_norm(apply_multiplier(f, spec), 4.0)

        def conj_symbol(e1, tau):
            return np.conj((e1 * e1 + tau * tau - 1.0 + 2j * tau) ** -2)

        rhs = lp_norm(apply_multiplier(conjugate_reflect(f), conj_symbol),
                      4.0)
        assert abs(lhs - rhs) <= 1e-10 * lhs


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_indicator_block():
    g = default_grid(2, n=32)
    vals = np.zeros(g.shape, complex)
    vals[4:10, 2:4] = 1.0  # 12 cells
    f = field_on(g, vals, in_space=True)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f, p) == pytest.approx(
            (12 * f.cell_volume) ** (1.0 / p))
    assert lp_norm(f, np.inf) == 1.0


def test_lp_norm_homogeneous():
    f = noise_field()
    for p in (1.5, 2.0, 3.0):
        assert lp_norm(f.with_values(-2.5j * f.values), p) == pytest.approx(
            2.5 * lp_norm(f, p), rel=1e-12)


def test_holder_sanity():
    f = noise_field()
    vol = float(np.prod(f.periods))
    assert lp_norm(f, 1.0) <= lp_norm(f, 2.0) * vol ** 0.5 * (1 + 1e-12)


def test_lorentz_single_spike():
    g = default_grid(2, n=32)
    vals = np.zeros(g.shape, complex)
    vals[5, 5] = 3.0
    f = field_on(g, vals, in_space=True)
    for flavor in ("p1", "pinf"):
        assert lorentz_norm(f, 2.0, flavor) == pytest.approx(
            3.0 * f.cell_volume ** 0.5)


def test_weak_norm_below_strong():
    f = noise_field()
    for p in (1.0, 2.0):
        assert lorentz_norm(f, p, "pinf") <= lp_norm(f, p) * (1 + 1e-12)


def test_lorentz_two_level_layer_cake():
    g = default_grid(2, n=32)
    vals = np.zeros(g.shape, complex)
    vals[0:2, 0:4] = 2.0   # measure a = 8 cells
    vals[4:6, 0:6] = 1.0   # measure b = 12 cells
    f = field_on(g, vals, in_space=True)
    w = f.cell_volume
    a, b = 8 * w, 12 * w
    p = 2.0
    want_p1 = (a + b) ** (1 / p) + a ** (1 / p)  # int_0^inf mu(s)^(1/p) ds
    want_weak = max(1.0 * (a + b) ** (1 / p), 2.0 * a ** (1 / p))
    assert lorentz_norm(f, p, "p1") == pytest.approx(want_p1, rel=1e-12)
    assert lorentz_norm(f, p, "pinf") == pytest.approx(want_weak, rel=1e-12)


# ---------------------------------------------------------------------------
# thin-slab witness


def test_knapp_norm_scaling_d3():
    # the slab's frequency volume is eps * eps^((d-2)/2) * (tau span), so the
    # L2 norm goes as eps^(3/4) for "tilde" (tau span 1) and eps^(5/4) for
    # "eps" (tau span eps)
    eps_list = [2.0 ** -m for m in range(3, 7)]
    for family, want in (("tilde", 0.75), ("eps", 1.25)):
        vals = [lp_norm(unfold(knapp_witness(family, 3, eps)), 2.0)
                for eps in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert abs(slope - want) <= 0.1, family


def test_knapp_support_slab():
    eps = 2.0 ** -4
    rt = math.sqrt(eps)
    slack = 1.0 + 1e-12
    for family in ("tilde", "eps"):
        f = knapp_witness(family, 3, eps)
        live = np.argwhere(f.coef != 0)
        assert live.size
        eta1, eta2, tau = (ax[i[live[:, a]]] for a, (ax, i)
                           in enumerate(zip(f.freq_axes(), f.index)))
        if family == "tilde":
            # |1 - |eta|^2| <= eps/4, |eta_2| <= sqrt(eps), |tau - 5/4| <= 1/2
            eta_sq = eta1 ** 2 + eta2 ** 2
            assert np.abs(1.0 - eta_sq).max() <= eps / 4 * slack
            assert np.abs(eta2).max() <= rt * slack
            assert np.abs(tau - 1.25).max() <= 0.5 * slack
        else:
            # ||xi|^2 - 1| <= eps/16, |eta_2| <= sqrt(eps)/4, tau/eps ~ 1.1
            xi_sq = eta1 ** 2 + eta2 ** 2 + tau ** 2
            assert np.abs(xi_sq - 1.0).max() <= eps / 16 * slack
            assert np.abs(eta2).max() <= rt / 4 * slack
            assert np.abs(tau / eps - 1.1).max() <= 0.6 * slack


def _dense_witness(family, d, eps, n):
    """The witness evaluated on the whole Cartesian box, factors and slab
    alike, with its cap read at ``|eta'|``."""
    from carlab.bump import SymmetricPlateau
    rt = math.sqrt(eps)
    if family == "tilde":
        spans = (3.0 * eps,) + (4.0 * rt,) * (d - 2) + (2.0,)
        offs = (1.0,) + (0.0,) * (d - 2) + (1.25,)
    else:
        spans = (2.0 * eps,) + (2.0 * rt,) * (d - 2) + (2.0 * eps,)
        offs = (1.0,) + (0.0,) * (d - 2) + (1.1 * eps,)
    periods = tuple(2.0 * math.pi * n / s for s in spans)
    grid = Grid((n,) * d, periods, offs)
    axes = np.meshgrid(*grid.freq_axes(), indexing="ij", sparse=True)
    eta_sq = sum(a ** 2 for a in axes[:-1])
    tau = axes[-1]
    transverse = np.sqrt(sum(a ** 2 for a in axes[1:-1]))
    if family == "tilde":
        slab = SymmetricPlateau(1.0 / 8)((1.0 - eta_sq) / eps)
        cap = SymmetricPlateau(0.5)(transverse / rt)
        tw = SymmetricPlateau(0.25)(tau - 1.25)
    else:
        slab = SymmetricPlateau(1.0 / 32)((eta_sq + tau ** 2 - 1.0) / eps)
        cap = SymmetricPlateau(1.0 / 8)(transverse / rt)
        tw = SymmetricPlateau(0.3)(tau / eps - 1.1)
    return field_on(grid, (slab * cap * tw).astype(complex), in_space=False)


@pytest.mark.parametrize("d, n, m", [(3, 128, 3), (3, 128, 6), (4, 32, 3),
                                     (4, 32, 6)])
@pytest.mark.parametrize("family", ["tilde", "eps"])
def test_knapp_witness_equals_its_whole_box_evaluation(family, d, n, m):
    # the Cartesian witness is even in its last cap axis, which the
    # (a0, [eta1], rho, tau) box keeps at rho_j = |eta_j|, j = 0..n/2
    got = knapp_witness(family, d, 2.0 ** -m, n=n)
    want = _dense_witness(family, d, 2.0 ** -m, n)
    assert (got.periods, got.freq_offsets) == (want.periods, want.freq_offsets)
    assert np.array_equal(unfold(got).values, want.values)
    # the hull is the support hull of the box: it holds no all-zero plane
    hull = support_hull(want.values[..., :n // 2 + 1, :])
    assert all(np.array_equal(a, b) for a, b in zip(got.index, hull))


@pytest.mark.parametrize("m", [3, 6])
@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("family", ["tilde", "eps"])
def test_a_witness_bound_equals_its_dense_cartesian_bound(family, d, n, m):
    # at d = 3, 4 the radial axis folds one Cartesian cap axis, so the
    # radial kernel's sums are the Cartesian sums of the whole-box witness
    eps = 2.0 ** -m
    spec = SymbolSpec(family, d, 1, eps=eps)
    want = _dense_witness(family, d, eps, n)
    p, q = 4.0 / 3.0, 4.0
    dense = lp_norm(apply_multiplier(want, spec), q) / lp_norm(want, p)
    got = certified_lower_bound(knapp_witness(family, d, eps, n=n), spec,
                                p, q)
    assert got == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_a_precomputed_symbol_array_comes_back_as_it_is():
    # a caller's array is handed back untouched; every other symbol's
    # samples come back read-only
    g = noise_field(d=3, n=16)
    spec = SymbolSpec("full", 3, 1)
    m = sample_symbol(g, spec)
    assert m is not sample_symbol(g, spec)
    before = m.tobytes()
    assert sample_symbol(g, m) is m
    assert m.tobytes() == before
    assert not m.flags.writeable
    assert not sample_symbol(g, lambda *xi: sum(xi) + 0j).flags.writeable


def test_a_witness_builds_where_its_lattice_would_not_fit():
    # the 16^7 lattice would take 4 GiB; the witness holds its hull on the
    # (a0, rho, tau) lattice only
    w = knapp_witness("eps", 7, 2.0 ** -6, n=16)
    assert w.shape == (16,) * 3
    assert w.coef.shape == tuple(len(i) for i in w.index)
    assert np.any(w.coef)


def test_knapp_witness_rejects_unknown_family_and_low_dimension():
    with pytest.raises(ValueError, match="no slab witness"):
        knapp_witness("ring", 3, 2.0 ** -4)
    with pytest.raises(ValueError, match="d >= 3"):
        knapp_witness("tilde", 2, 2.0 ** -4)


def test_a_witness_past_the_bessel_orders_is_refused_before_any_work(
        monkeypatch):
    # d = 37 needs a 35-dimensional radial axis, of Bessel order 16.5
    import carlab.acceptance as acceptance

    def refuse(*args, **kwargs):
        raise AssertionError("lattice built or slab evaluated")
    monkeypatch.setattr(acceptance, "Grid", refuse)
    monkeypatch.setattr(acceptance, "SymmetricPlateau", refuse)
    for family in ("tilde", "eps"):
        with pytest.raises(ValueError,
                           match=r"\(m - 2\)/2 <= 16, got d = 37, m = 35"):
            knapp_witness(family, 37, 2.0 ** -4)
    monkeypatch.undo()
    # the largest d runs, and its norms stay inside the float range: |y|^8
    # of the unscaled radial sum would underflow to 0 here
    w = knapp_witness("eps", 36, 2.0 ** -4, n=16)
    bound = certified_lower_bound(w, SymbolSpec("eps", 36, 1, eps=2.0 ** -4),
                                  4.0 / 3.0, 8.0)
    assert 0.0 < bound < np.inf


def test_an_oversized_lattice_is_rejected_before_any_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.zeros was called")

    monkeypatch.setattr(np, "zeros", refuse)
    builders = [lambda: default_grid(5, 128),
                lambda: ring_grid(0, 2 ** 14, 64),
                lambda: knapp_witness("eps", 4, 2.0 ** -6, n=1024)]
    for build in builders:
        with pytest.raises(ValueError, match="GiB"):
            build()
    with pytest.raises(ValueError, match="128x128x128x128x128 .* 512 GiB"):
        default_grid(5, 128)
    # the slab's box: all axis-0 rows across the cap's and tau's supports
    with pytest.raises(ValueError, match="1024x255x128x615 .* 306.3 GiB"):
        knapp_witness("eps", 4, 2.0 ** -6, n=1024)
    check_lattice_size((32,) * 5)  # d = 5, n = 32: 512 MiB
    check_lattice_size((MAX_LATTICE_BYTES // 16,))
    with pytest.raises(ValueError):
        check_lattice_size((MAX_LATTICE_BYTES // 16 + 1,))
