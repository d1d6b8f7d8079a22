"""Distribution pairings, order-shuffle identities, inversion transform."""
import math

import numpy as np
import pytest

from carlab.bump import inversion_bump
from carlab.identities import (CustomTest, L_apply, PolyGauss, RadialPower,
                               fractional_laplacian, invert_points, kelvin,
                               kelvin_grid, pair_pullback, sphere_area,
                               sphere_integral, sphere_nodes,
                               verify_counter_identities,
                               verify_dist_identity, verify_kelvin)

RNG = np.random.Generator(np.random.Philox(55))


# ---------------------------------------------------------------------------
# the order-lowering operator


def test_l_kills_the_fundamental_power():
    for n in (3, 4, 5):
        phi = RadialPower(n, 2 - n)
        theta = RNG.uniform(-1.0, 1.0, (20, n))
        theta = theta[np.abs(theta).sum(axis=1) > 0.1]
        np.testing.assert_allclose(L_apply(phi, 1, theta), 0.0, atol=1e-14)


def test_l_on_constant():
    phi = RadialPower(3, 0)
    theta = RNG.uniform(0.2, 1.0, (10, 3))
    r2 = np.sum(theta * theta, axis=-1)
    np.testing.assert_allclose(L_apply(phi, 1, theta), 0.5 / r2, rtol=1e-13)


def test_l_on_gaussian_hand_derivative():
    phi = PolyGauss.gaussian(3)
    theta = RNG.uniform(-1.2, 1.2, (10, 3))
    r2 = np.sum(theta * theta, axis=-1)
    want = (3 - 2 - 2.0 * r2) * np.exp(-r2) / (2.0 * r2)
    np.testing.assert_allclose(L_apply(phi, 1, theta), want, rtol=1e-12)


def test_l_iterates_match_symbolic_images():
    phi = PolyGauss.random(3, RNG)
    theta = RNG.uniform(0.3, 1.1, (6, 3))
    image = phi.apply_L().apply_L()
    np.testing.assert_allclose(L_apply(phi, 2, theta), image(theta),
                               rtol=1e-11)


# ---------------------------------------------------------------------------
# sphere pullback pairings


def test_pullback_of_one_is_half_area():
    val = pair_pullback(1, 1.0, RadialPower(3, 0), 3)
    assert val == pytest.approx(0.5 * sphere_area(3), rel=1e-10)
    val4 = pair_pullback(1, 1.0, RadialPower(4, 0), 4)
    assert val4 == pytest.approx(0.5 * sphere_area(4), rel=1e-10)


def test_second_order_pullback_of_inverse_power_vanishes():
    # L|theta|^(-1) = 0 in n=3, so the k=2 pairing degrades to zero
    val = pair_pullback(2, 1.0, RadialPower(3, -1), 3)
    assert abs(val) <= 1e-8 * sphere_area(3)


def test_pullback_vs_independent_sphere_average():
    phi = PolyGauss.random(3, RNG)
    got = pair_pullback(1, 1.0, phi, 3)
    want = 0.5 * sphere_integral(phi, 3, level=14)
    assert got == pytest.approx(want, rel=1e-6)


def test_radial_scaling_of_the_pairing():
    # lambda_rho^* at rho: the k=1 pairing is (rho^(n-2)/2) * sphere mean
    phi = PolyGauss.gaussian(3, c=0.7)
    rho = 1.3
    got = pair_pullback(1, rho, phi, 3)
    want = (rho ** (3 - 2) / 2.0) * sphere_integral(
        lambda w: phi(rho * w), 3, level=13)
    assert got == pytest.approx(want, rel=1e-8)


def test_sphere_average_matches_sampled_nodes():
    # factored moments vs sampling the rule, including j > 0 terms from L
    rng = np.random.Generator(np.random.Philox(77))
    for n in (2, 3, 4):
        nodes, weights = sphere_nodes(n, 12)
        for _ in range(4):
            phi = PolyGauss.random(n, rng)
            funcs = [phi, phi.apply_L(), phi.apply_L().apply_L(),
                     RadialPower(n, rng.uniform(-3.0, 2.0),
                                 rng.uniform(-2.0, 2.0)),
                     CustomTest(n, phi)]
            assert any(j > 0 for j in funcs[2].terms)
            for func in funcs:
                r = rng.uniform(0.4, 2.0, 7)
                vals = func(r[:, None, None] * nodes)
                got = func.sphere_average(r, nodes, weights)
                np.testing.assert_allclose(
                    got, vals @ weights, rtol=0,
                    atol=1e-13 * float(np.max(np.abs(vals) @ weights)))
                scalar = func.sphere_average(float(r[0]), nodes, weights)
                assert np.ndim(scalar) == 0
                assert scalar == pytest.approx(got[0], rel=1e-15)


# ---------------------------------------------------------------------------
# the two-sided identities


def test_dist_identity_trivial_at_k1():
    phi = PolyGauss.random(3, RNG)
    res = verify_dist_identity(1, 1.0, phi, 3)
    assert res.rel_err == 0.0


def test_dist_identity_battery():
    for k, n, rho in [(2, 3, 1.0), (3, 4, 1.3), (2, 2, 0.8)]:
        phi = PolyGauss.random(n, RNG)
        res = verify_dist_identity(k, rho, phi, n)
        assert res.rel_err <= 1e-5, (k, n, rho, res.rel_err)


def test_dist_identity_tight_for_k2_n3():
    res = verify_dist_identity(2, 1.0, PolyGauss.gaussian(3), 3)
    assert res.rel_err <= 1e-6


def test_counter_identities_tautological_at_k1():
    h = PolyGauss.random(2, RNG)
    for kind in ("induc", "rev"):
        res = verify_counter_identities(kind, 1, 2.0 ** -5, 2.0 ** -5, 1.0,
                                        h)
        assert res.rel_err <= 1e-14


def test_counter_identities_second_order():
    h = PolyGauss.random(2, RNG)
    for kind in ("induc", "rev"):
        res = verify_counter_identities(kind, 2, 2.0 ** -5, 2.0 ** -5, 1.0,
                                        h)
        assert res.rel_err <= 1e-6, kind


def test_counter_identities_third_order_d5():
    h = PolyGauss.random(4, RNG)
    for kind in ("induc", "rev"):
        res = verify_counter_identities(kind, 3, 2.0 ** -5, 2.0 ** -5, 0.8,
                                        h)
        assert res.rel_err <= 1e-5, kind


# ---------------------------------------------------------------------------
# inversion transform


def test_invert_points_involution():
    x = RNG.uniform(-2.0, 2.0, (40, 3))
    x = x[np.sum(x * x, axis=1) > 0.01]
    np.testing.assert_allclose(invert_points(invert_points(x)), x,
                               rtol=1e-12)


def test_kelvin_involution_on_annulus_closure():
    bump = inversion_bump(1.0)

    def u(points):  # radial profile lifted to point samples
        return bump(np.sqrt(np.sum(points * points, axis=-1)))

    x = RNG.uniform(-1.4, 1.4, (200, 3))
    r = np.sqrt(np.sum(x * x, axis=1))
    x = x[(r > 0.45) & (r < 1.35)]
    once = kelvin(u, 1.0, x)
    twice = kelvin(lambda p: kelvin(u, 1.0, p), 1.0, x)
    np.testing.assert_allclose(twice, u(x), rtol=1e-10, atol=1e-12)
    assert np.abs(once).max() > 0.0


def test_fractional_laplacian_single_mode():
    g = kelvin_grid(3, 32, 5.0)
    vals = np.zeros(g.shape, complex)
    vals[2, 1, 3] = 1.0
    f = g.with_values(vals, in_space=False)
    out = fractional_laplacian(f, 0.75)
    xi = np.array([g.freq_axes()[0][2], g.freq_axes()[1][1],
                   g.freq_axes()[2][3]])
    want = float(np.sum(xi * xi)) ** 0.75
    got = out.values[2, 1, 3]
    assert got == pytest.approx(want, rel=1e-12)


def test_kelvin_identity_classical_laplacian():
    res = verify_kelvin(inversion_bump(1.0), 1.0, kelvin_grid(3, 128, 5.0))
    assert res.rel_err <= 1e-3


def test_kelvin_identity_fractional():
    res = verify_kelvin(inversion_bump(1.25), 1.25, kelvin_grid(3, 128, 5.0))
    assert res.rel_err <= 1e-2


def test_kelvin_error_halves_under_resolution_doubling():
    u = inversion_bump(1.0)
    coarse = verify_kelvin(u, 1.0, kelvin_grid(3, 64, 5.0))
    fine = verify_kelvin(u, 1.0, kelvin_grid(3, 128, 5.0))
    assert coarse.rel_err / fine.rel_err >= 2.0


def test_custom_test_function_requires_image_for_l():
    fn = CustomTest(3, lambda p: np.sum(p, axis=-1))
    with pytest.raises(Exception):
        L_apply(fn, 1, np.ones((2, 3)))
