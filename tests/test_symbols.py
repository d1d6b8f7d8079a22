"""Cutoffs and closed-form multiplier evaluation."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carlab.symbols import (SingularFrequencyError, SymbolSpec, _theta,
                            eval_from_radial, eval_im_mtilde,
                            eval_phi_eps_ell, eval_symbol, psi, psi0)

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


@given(eps0_exp=st.integers(min_value=5, max_value=40),
       log2_ratio=st.floats(min_value=-60.0, max_value=6.0),
       negative=st.booleans())
def test_theta_is_the_sum_of_all_low_windows(eps0_exp, log2_ratio, negative):
    # tau = +-eps0 * 2^log2_ratio: nonzero, and often near the top window
    eps0 = 2.0 ** -eps0_exp
    tau = (-1.0 if negative else 1.0) * eps0 * 2.0 ** log2_ratio
    # brute force over every dyadic 2^nu <= eps0 down to 2^nu < |tau| / 8,
    # below which |tau| / 2^nu lies beyond psi's support [1/2, 2]
    nus = np.arange(-eps0_exp, math.floor(math.log2(abs(tau))) - 4, -1)
    want = float(psi(tau / np.ldexp(1.0, nus)).sum()) if nus.size else 0.0
    got = float(_theta(np.array([tau]), eps0)[0])
    assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-15)


def test_theta_vanishes_at_zero():
    assert _theta(np.array([0.0, 0.0]), 2.0 ** -5).tolist() == [0.0, 0.0]


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


def test_tilde_vanishes_off_tau_window():
    spec = SymbolSpec("tilde", 3, 1, eps=2.0 ** -5)
    # psi(tau) = 0 for |tau| <= 1/2 and |tau| >= 2
    assert eval_symbol(spec, np.array([1.0, 0.0, 0.25])) == 0.0
    assert eval_symbol(spec, np.array([1.0, 0.0, 5.0])) == 0.0


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


def test_rescaling_identity():
    # tilde(eta, tau) = eps-slice(eta, eps*tau) pointwise
    eps = 2.0 ** -5
    n = 2000
    eta_sq = RNG.uniform(1.0 - 4.0 * eps, 1.0 + 4.0 * eps, n)
    tau = RNG.uniform(0.5, 2.0, n)
    a = eval_from_radial(SymbolSpec("tilde", 3, 1, eps=eps), eta_sq, tau)
    b = eval_from_radial(SymbolSpec("eps", 3, 1, eps=eps), eta_sq, eps * tau)
    np.testing.assert_allclose(a, b, rtol=1e-13)


def test_tilde_equals_general_form_with_default_window():
    from carlab.bump import Psi0Cutoff
    eps = 2.0 ** -6
    n = 1000
    eta_sq = RNG.uniform(0.8, 1.2, n)
    tau = RNG.uniform(0.5, 2.0, n)
    a = eval_from_radial(SymbolSpec("tilde", 5, 2, eps=eps), eta_sq, tau)
    spec = SymbolSpec("tilde_gen", 5, 2, eps=eps, zeta=Psi0Cutoff(),
                      delta=SymbolSpec("tilde", 5, 2, eps=eps).eps0)
    b = eval_from_radial(spec, eta_sq, tau)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


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


# ---------------------------------------------------------------------------
# imaginary part, closed form


def test_im_mtilde_vanishes_with_tau_window():
    assert eval_im_mtilde(3, 1, 2.0 ** -5, 2.0 ** -5,
                          np.array([1.0, 0.0]), 0.3) == 0.0


def test_im_mtilde_matches_direct_imaginary_part():
    d, k, eps, eps0 = 3, 2, 2.0 ** -5, 2.0 ** -5
    n = 10_000
    eta1 = RNG.uniform(0.7, 1.25, n)
    eta2 = RNG.uniform(-0.3, 0.3, n)
    tau = RNG.uniform(0.55, 1.9, n)
    eta = np.stack([eta1, eta2], axis=-1)
    closed = eval_im_mtilde(d, k, eps, eps0, eta, tau)
    spec = SymbolSpec("tilde", d, k, eps=eps, eps0=eps0)
    direct = np.imag(eval_from_radial(spec, np.sum(eta * eta, -1), tau))
    num = np.abs(closed - direct)
    den = np.maximum(np.abs(closed), np.abs(direct))
    rel = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    assert rel.max() <= 1e-10


def test_im_mtilde_k1_lorentzian_form():
    eps, eps0 = 2.0 ** -6, 2.0 ** -5
    eta_sq = RNG.uniform(0.8, 1.2, 500)
    tau = RNG.uniform(0.55, 1.9, 500)
    eta = np.stack([np.sqrt(eta_sq), np.zeros(500)], -1)
    got = eval_im_mtilde(3, 1, eps, eps0, eta, tau)
    u = eta_sq - 1.0
    want = (-2.0 * eps * tau * psi0(u / eps0) * psi(tau)
            / ((u + eps ** 2 * tau ** 2) ** 2 + 4.0 * eps ** 2 * tau ** 2))
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# the integration-by-parts profile


def test_phi_eps_ell_outside_tau_support():
    assert eval_phi_eps_ell(2.0 ** -5, 0, 1.0, 3.0) == 0.0


def test_phi_eps_ell_denominator_modulus():
    eps = 2.0 ** -6
    val = eval_phi_eps_ell(eps, 0, 1.0, 1.0)
    # at rho = 1 the window factors are exactly 1 and psi(1) = 1, so the
    # modulus is 1/|eps^2 + 2 i eps|
    assert abs(val) == pytest.approx(1.0 / math.hypot(eps * eps, 2 * eps),
                                     rel=1e-12)


def test_phi_eps_ell_ring_sup_bound_stable():
    # sup over the j-th shell of |phi_eps_l| should track (2^j eps)^-1;
    # the shell must stay inside the radial window (2^j eps <= eps0)
    for j in (0, 2):
        consts = []
        for m in (7, 8, 9):
            eps = 2.0 ** -m
            delta = 2.0 ** j * eps
            rho = np.sqrt(1.0 + delta * np.linspace(0.5, 2.0, 200))
            sup = np.abs(eval_phi_eps_ell(eps, 0, rho, 1.0)).max()
            consts.append(sup * delta)
        assert max(consts) <= 2.0 * min(consts)
