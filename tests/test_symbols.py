"""Cutoffs and closed-form multiplier evaluation."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carlab import acceptance
from carlab.bump import Psi0Cutoff
from carlab.symbols import (EPS0, SingularFrequencyError,
                            SymbolSpec, _theta,
                            eval_from_radial, eval_im_mtilde, eval_symbol,
                            psi, psi0)

RNG = np.random.Generator(np.random.Philox(1202))


@pytest.mark.parametrize("family", ["full", "local", "global", "eps", "tilde"])
def test_scalar_and_one_element_inputs_agree(family):
    spec = SymbolSpec(family, 3, 1, **({} if family in ("full", "local",
                                                         "global")
                                       else {"eps": 2.0 ** -4}))
    for eta_sq, tau in [(0.97, 0.05), (0.97, 0.0), (0.5, 0.2),
                        (1.02, -0.03)]:
        scalar = eval_from_radial(spec, eta_sq, tau)
        array = eval_from_radial(spec, np.array([eta_sq]), np.array([tau]))
        assert np.shape(array) == (1,)
        assert complex(scalar) == complex(array[0])


# ---------------------------------------------------------------------------
# cutoffs


def test_psi_vanishes_outside_support():
    assert psi(3.0) == 0.0
    assert psi(0.4) == 0.0
    assert psi(-3.0) == 0.0


def test_psi0_plateau_and_support():
    assert psi0(0.0) == 1.0
    for t in np.linspace(-1.0, 1.0, 41):
        assert psi0(t) == 1.0
    assert psi0(2.0) == 0.0
    assert psi0(-2.5) == 0.0


def test_psi_is_even_and_nonnegative():
    t = RNG.uniform(-2.5, 2.5, 200)
    assert np.all(psi(t) >= 0.0)
    np.testing.assert_allclose(psi(t), psi(-t), rtol=0, atol=0)


def test_dyadic_partition_of_unity():
    # sum_j psi(2^-j t) == 1 for t != 0; 61 octaves cover any double
    js = np.arange(-30, 31)
    for t in [1.37, 0.003, 251.7, 1.0, 2.0 ** -18]:
        total = psi(t * 2.0 ** -js).sum()
        assert abs(total - 1.0) <= 1e-12, t


@given(log2_ratio=st.floats(min_value=-60.0, max_value=6.0),
       negative=st.booleans())
def test_theta_is_the_sum_of_all_low_windows(log2_ratio, negative):
    # tau = +-EPS0 * 2^log2_ratio: nonzero, and often near the top window
    tau = (-1.0 if negative else 1.0) * EPS0 * 2.0 ** log2_ratio
    # brute force over every dyadic 2^nu <= EPS0 down to 2^nu < |tau| / 8,
    # below which |tau| / 2^nu lies beyond psi's support [1/2, 2]
    nus = np.arange(round(math.log2(EPS0)),
                    math.floor(math.log2(abs(tau))) - 4, -1)
    want = float(psi(tau / np.ldexp(1.0, nus)).sum()) if nus.size else 0.0
    got = float(_theta(np.array([tau]))[0])
    assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-15)


def test_theta_vanishes_at_zero():
    assert _theta(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]


def test_psi0_complements_high_octaves():
    t = np.linspace(-4.0, 4.0, 101)
    tail = sum(psi(t / 2.0 ** j) for j in range(1, 32))
    np.testing.assert_allclose(psi0(t), 1.0 - tail, atol=1e-12)


# ---------------------------------------------------------------------------
# symbol families


def test_full_at_origin():
    for k in (1, 2, 3):
        spec = SymbolSpec("full", 3, k)
        assert eval_symbol(spec, np.zeros(3)) == pytest.approx((-1.0) ** k)


def test_full_at_unit_vertical():
    spec = SymbolSpec("full", 3, 1)
    val = eval_symbol(spec, np.array([0.0, 0.0, 1.0]))
    assert val == pytest.approx(-0.5j)


def test_full_singular_frequency_rejected():
    spec = SymbolSpec("full", 3, 1)
    with pytest.raises(SingularFrequencyError):
        eval_symbol(spec, np.array([1.0, 0.0, 0.0]))


def test_global_singular_frequency_rejected():
    # Theta(0) = 0, so the global cut is 1 on the whole tau = 0 plane
    with pytest.raises(SingularFrequencyError, match="half a cell"):
        eval_from_radial(SymbolSpec("global", 3, 2), np.array([0.5, 1.0]),
                         np.array([0.0, 0.0]))


def test_tilde_vanishes_off_tau_window():
    spec = SymbolSpec("tilde", 3, 1, eps=2.0 ** -5)
    # psi(tau) = 0 for |tau| <= 1/2 and |tau| >= 2
    assert eval_symbol(spec, np.array([1.0, 0.0, 0.25])) == 0.0
    assert eval_symbol(spec, np.array([1.0, 0.0, 5.0])) == 0.0


def _dense_slice(spec, eta_sq, tau):
    """The eps, tilde and ring slices with the denominator formed at every
    point, then masked by the cutoff; the eps slice is the tilde slice at
    tau / eps."""
    if spec.family == "eps":
        tau = tau / spec.eps
    zeta, delta = (spec.ring_window() if spec.family == "ring"
                   else (Psi0Cutoff(), EPS0))
    cut = zeta((1.0 - eta_sq) / delta) * psi(tau)
    w = (eta_sq - 1.0 + (spec.eps * tau) ** 2) + 2.0j * spec.eps * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cut != 0.0, cut * w ** (-spec.k), 0.0 + 0.0j)


def _ring_and_knapp_lattices():
    eps = 2.0 ** -6
    ring = acceptance.ring_grid(1).freq_axes()
    yield SymbolSpec("ring", 3, 1, eps=eps, j=1), ring
    yield SymbolSpec("tilde", 3, 2, eps=eps), ring
    for family in ("eps", "tilde"):
        w = acceptance.knapp_witness(family, 3, 2.0 ** -3)
        yield (SymbolSpec(family, 3, 1, eps=2.0 ** -3),
               [a[i] for a, i in zip(w.freq_axes(), w.index)])


def test_slices_match_the_dense_formula_bit_for_bit():
    for spec, axes in _ring_and_knapp_lattices():
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        eta_sq = grids[0] ** 2 + grids[1] ** 2
        got = eval_from_radial(spec, eta_sq, grids[2])
        assert np.array_equal(got, _dense_slice(spec, eta_sq, grids[2]))
        assert np.any(got), spec.family


def test_reconstruction_local_plus_global():
    n = 4000
    eta_sq = RNG.uniform(0.0, 1.7, n)
    tau = RNG.uniform(0.05, 2.4, n) * RNG.choice([-1.0, 1.0], n)
    for d, k in ((3, 1), (5, 2)):
        full = eval_from_radial(SymbolSpec("full", d, k), eta_sq, tau)
        both = (eval_from_radial(SymbolSpec("local", d, k), eta_sq, tau)
                + eval_from_radial(SymbolSpec("global", d, k), eta_sq, tau))
        rel = np.abs(full - both) / np.abs(full)
        assert rel.max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(dk=st.sampled_from([(3, 1), (5, 2), (9, 3)]),
       eta_sq=st.one_of(st.floats(0.0, 4.0),
                        st.floats(1.0 - 3.0 * EPS0, 1.0 + 3.0 * EPS0)),
       tau=st.one_of(st.just(0.0),
                     st.builds(lambda e, sign: sign * 2.0 ** e,
                               st.floats(-40.0, 2.0),
                               st.sampled_from([-1.0, 1.0]))))
def test_local_plus_global_is_full_off_the_degenerate_set(dk, eta_sq, tau):
    # any (|eta|^2, tau) off {|eta| = 1, tau = 0}: inside the eta ramp of
    # width EPS0, deep in the dyadic tau windows, and on tau = 0 itself
    assume(tau != 0.0 or eta_sq != 1.0)
    d, k = dk
    full = complex(eval_from_radial(SymbolSpec("full", d, k), eta_sq, tau))
    both = (complex(eval_from_radial(SymbolSpec("local", d, k), eta_sq, tau))
            + complex(eval_from_radial(SymbolSpec("global", d, k), eta_sq,
                                       tau)))
    assert abs(full - both) <= 1e-10 * abs(full)


def test_rescaling_identity():
    # tilde(eta, tau) = eps-slice(eta, eps*tau) pointwise
    eps = 2.0 ** -5
    n = 2000
    eta_sq = RNG.uniform(1.0 - 4.0 * eps, 1.0 + 4.0 * eps, n)
    tau = RNG.uniform(0.5, 2.0, n)
    a = eval_from_radial(SymbolSpec("tilde", 3, 1, eps=eps), eta_sq, tau)
    b = eval_from_radial(SymbolSpec("eps", 3, 1, eps=eps), eta_sq, eps * tau)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -6, 2.0 ** -10,
                                 2.0 ** -14])
def test_eps_slice_is_the_model_symbol_on_its_cut(eps, k):
    # the model denominator rounded as |eta|^2 + tau^2 - 1: it and the
    # slice's (|eta|^2 - 1) + tau^2 differ by an ulp of |eta|^2 at most,
    # against |w| >= 2 |tau| >= eps on the cut
    n = 4000
    eta_sq = RNG.uniform(1.0 - 3.0 * EPS0, 1.0 + 3.0 * EPS0, n)
    tau = RNG.uniform(0.4, 2.1, n) * eps * RNG.choice([-1.0, 1.0], n)
    got = eval_from_radial(SymbolSpec("eps", 4, k, eps=eps), eta_sq, tau)
    cut = psi0((1.0 - eta_sq) / EPS0) * psi(tau / eps)
    want = np.where(cut != 0.0, cut * ((eta_sq + tau ** 2 - 1.0)
                                       + 2.0j * tau) ** (-k), 0.0)
    assert np.array_equal(got == 0.0, want == 0.0) and np.any(want)
    live = want != 0.0
    rel = np.abs(got[live] - want[live]) / np.abs(want[live])
    assert rel.max() <= k * 2.0 ** -51 / eps


def test_ring_support_in_annular_shells():
    eps = 2.0 ** -6
    for j in (0, 1, 3):
        spec = SymbolSpec("ring", 3, 1, eps=eps, j=j)
        delta = 2.0 ** j * eps
        n = 4000
        eta_sq = RNG.uniform(0.0, 2.5, n)
        tau = RNG.uniform(0.25, 2.25, n)
        vals = eval_from_radial(spec, eta_sq, tau)
        live = np.abs(vals) > 0
        # the window factor pins |eta|^2 - 1 to O(delta) shells
        assert np.all(np.abs(eta_sq[live] - 1.0) <= 4.0 * delta)


def test_conjugation_symmetry_in_tau():
    n = 2000
    eta_sq = RNG.uniform(0.0, 1.9, n)
    tau = RNG.uniform(0.05, 2.0, n)
    for k in (1, 2):
        up = eval_from_radial(SymbolSpec("full", 4, k), eta_sq, tau)
        dn = eval_from_radial(SymbolSpec("full", 4, k), eta_sq, -tau)
        np.testing.assert_allclose(dn, np.conj(up), rtol=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        SymbolSpec("nosuch", 3, 1)
    with pytest.raises(ValueError):
        SymbolSpec("tilde", 3, 1, eps=0.3)  # eps above 1/4
    with pytest.raises(ValueError):
        SymbolSpec("tilde", 3, 1, eps=0.1)  # not dyadic
    with pytest.raises(ValueError):
        SymbolSpec("ring", 3, 1, eps=2.0 ** -3, j=3)  # 2^j > 1/(4 eps)


@pytest.mark.parametrize("k", [0, -1])
def test_full_symbol_needs_a_positive_power(k):
    with pytest.raises(ValueError, match="positive integer"):
        SymbolSpec("full", 3, k)


# ---------------------------------------------------------------------------
# imaginary part, closed form


def test_im_mtilde_vanishes_with_tau_window():
    assert eval_im_mtilde(3, 1, 2.0 ** -5, np.array([1.0, 0.0]), 0.3) == 0.0


def test_im_mtilde_matches_direct_imaginary_part():
    d, k, eps = 3, 2, 2.0 ** -5
    n = 10_000
    eta1 = RNG.uniform(0.7, 1.25, n)
    eta2 = RNG.uniform(-0.3, 0.3, n)
    tau = RNG.uniform(0.55, 1.9, n)
    eta = np.stack([eta1, eta2], axis=-1)
    closed = eval_im_mtilde(d, k, eps, eta, tau)
    spec = SymbolSpec("tilde", d, k, eps=eps)
    direct = np.imag(eval_from_radial(spec, np.sum(eta * eta, -1), tau))
    num = np.abs(closed - direct)
    den = np.maximum(np.abs(closed), np.abs(direct))
    rel = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    assert rel.max() <= 1e-10


def test_im_mtilde_k1_lorentzian_form():
    eps = 2.0 ** -6
    eta_sq = RNG.uniform(0.8, 1.2, 500)
    tau = RNG.uniform(0.55, 1.9, 500)
    eta = np.stack([np.sqrt(eta_sq), np.zeros(500)], -1)
    got = eval_im_mtilde(3, 1, eps, eta, tau)
    u = eta_sq - 1.0
    want = (-2.0 * eps * tau * psi0(u / EPS0) * psi(tau)
            / ((u + eps ** 2 * tau ** 2) ** 2 + 4.0 * eps ** 2 * tau ** 2))
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)
