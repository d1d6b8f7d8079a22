"""Grid fields, multiplier application, and lattice norms."""
import math

import numpy as np
import pytest

from carlab.acceptance import knapp_witness
from carlab.spectral import (GridField, apply_multiplier, conjugate_reflect,
                             default_grid, load_field, lorentz_norm, lp_norm,
                             save_field)
from carlab.symbols import SymbolSpec

RNG = np.random.Generator(np.random.Philox(404))


def noise_field(d=2, n=64, seed=5) -> GridField:
    g = default_grid(d, n=n)
    rng = np.random.Generator(np.random.Philox(seed))
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return g.with_values(vals, in_space=True)


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


def test_save_load_round_trip(tmp_path):
    f = noise_field(d=2, n=32)
    path = str(tmp_path / "field.bin")
    save_field(f, path)
    g = load_field(path)
    assert g.periods == f.periods
    assert g.in_space == f.in_space
    np.testing.assert_array_equal(g.values, f.values)


def test_load_rejects_payload_that_fails_the_sidecar_hash(tmp_path):
    f = noise_field(d=2, n=16)
    path = tmp_path / "field.bin"
    save_field(f, str(path))
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0x01  # one bit of the last complex value
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="sha256"):
        load_field(str(path))
    (tmp_path / "field.bin.json").unlink()  # no sidecar: nothing to check
    assert load_field(str(path)).shape == f.shape


# ---------------------------------------------------------------------------
# multiplier application


def test_constant_symbol_is_identity():
    f = noise_field()
    g = apply_multiplier(f, lambda *axes: np.asarray(1.0 + 0.0j))
    np.testing.assert_allclose(g.to_space().values, f.values, atol=1e-12)


def test_symbol_dead_on_lattice_gives_zero():
    # lattice tau values miss the psi window entirely on a tight grid
    g = default_grid(3, n=16, freq_span=0.4)
    f = g.with_values(RNG.standard_normal(g.shape) + 0j, in_space=True)
    out = apply_multiplier(f, SymbolSpec("tilde", 3, 1, eps=2.0 ** -5))
    assert np.abs(out.to_space().values).max() == 0.0


def test_single_mode_rayleigh_quotient_is_symbol_modulus():
    g = default_grid(2, n=32)
    vals = np.zeros(g.shape, complex)
    vals[3, 7] = 1.0
    f = g.with_values(vals, in_space=False)
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
    f = g.with_values(vals, in_space=False)
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
        f = g.with_values(rng.standard_normal(g.shape)
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
    f = g.with_values(vals, in_space=True)
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
    f = g.with_values(vals, in_space=True)
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
    f = g.with_values(vals, in_space=True)
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
        vals = [lp_norm(knapp_witness(family, 3, eps), 2.0)
                for eps in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert abs(slope - want) <= 0.1, family


def test_knapp_support_slab():
    eps = 2.0 ** -4
    rt = math.sqrt(eps)
    slack = 1.0 + 1e-12
    for family in ("tilde", "eps"):
        f = knapp_witness(family, 3, eps)
        live = np.argwhere(np.abs(f.values) > 0)
        assert live.size
        eta1, eta2, tau = (ax[live[:, i]]
                           for i, ax in enumerate(f.freq_axes()))
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


def test_knapp_witness_rejects_unknown_family_and_low_dimension():
    with pytest.raises(ValueError, match="no slab witness"):
        knapp_witness("ring", 3, 2.0 ** -4)
    with pytest.raises(ValueError, match="d >= 3"):
        knapp_witness("tilde", 2, 2.0 ** -4)
