"""Distribution pairings, order-shuffle identities, inversion transform."""
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import carlab.identities as identities
from carlab import acceptance
from carlab.bump import (CustomCutoff, InversionImage, PlateauBump,
                         Psi0Cutoff, inversion_bump, psi)
from carlab.identities import (KELVIN_PERIOD, PolyGauss, eval_field_at_points,
                               fractional_laplacian, pair_pullback,
                               radial_fractional_at, sphere_integral,
                               sphere_nodes, verify_counter_identities,
                               verify_dist_identity, verify_kelvin)
from carlab.quadrature import gauss_kronrod_batch
from carlab.spectral import GridField, default_grid
from fields import field_on
from testfns import CustomTest, RadialPower, sphere_area

RNG = np.random.Generator(np.random.Philox(55))


# ---------------------------------------------------------------------------
# the order-lowering operator


def test_l_kills_the_fundamental_power():
    for n in (3, 4, 5):
        phi = RadialPower(n, 2 - n)
        theta = RNG.uniform(-1.0, 1.0, (20, n))
        theta = theta[np.abs(theta).sum(axis=1) > 0.1]
        np.testing.assert_allclose(phi.apply_L()(theta), 0.0, atol=1e-14)


def test_l_on_constant():
    phi = RadialPower(3, 0)
    theta = RNG.uniform(0.2, 1.0, (10, 3))
    r2 = np.sum(theta * theta, axis=-1)
    np.testing.assert_allclose(phi.apply_L()(theta), 0.5 / r2, rtol=1e-13)


def test_l_on_gaussian_hand_derivative():
    phi = PolyGauss(3, 1.0, {0: {(0, 0, 0): 1.0}})
    theta = RNG.uniform(-1.2, 1.2, (10, 3))
    r2 = np.sum(theta * theta, axis=-1)
    want = (3 - 2 - 2.0 * r2) * np.exp(-r2) / (2.0 * r2)
    np.testing.assert_allclose(phi.apply_L()(theta), want, rtol=1e-12)


def test_l_iterates_match_symbolic_images():
    # the second symbolic step against L = (n - 2 + theta.grad)/(2|theta|^2)
    # applied to the first by a central difference: theta.grad g(theta) is
    # d/dt g(t theta) at t = 1
    phi = PolyGauss.random(3, RNG)
    theta = RNG.uniform(0.3, 1.1, (6, 3))
    first = phi.apply_L()
    h = 1e-5
    radial = (first((1.0 + h) * theta) - first((1.0 - h) * theta)) / (2.0 * h)
    r2 = np.sum(theta * theta, axis=-1)
    want = ((3 - 2) * first(theta) + radial) / (2.0 * r2)
    np.testing.assert_allclose(first.apply_L()(theta), want, rtol=1e-7,
                               atol=1e-7 * np.abs(want).max())


# ---------------------------------------------------------------------------
# sphere pullback pairings


def test_pullback_of_one_is_half_area():
    val = pair_pullback(1, 1.0, RadialPower(3, 0))
    assert val == pytest.approx(0.5 * sphere_area(3), rel=1e-10)
    val4 = pair_pullback(1, 1.0, RadialPower(4, 0))
    assert val4 == pytest.approx(0.5 * sphere_area(4), rel=1e-10)


def test_second_order_pullback_of_inverse_power_vanishes():
    # L|theta|^(-1) = 0 in n=3, so the k=2 pairing degrades to zero
    val = pair_pullback(2, 1.0, RadialPower(3, -1))
    assert abs(val) <= 1e-8 * sphere_area(3)


def test_pullback_vs_independent_sphere_average():
    phi = PolyGauss.random(3, RNG)
    got = pair_pullback(1, 1.0, phi)
    want = 0.5 * sphere_integral(phi, 3, level=14)
    assert got == pytest.approx(want, rel=1e-6)


def test_radial_scaling_of_the_pairing():
    # lambda_rho^* at rho: the k=1 pairing is (rho^(n-2)/2) * sphere mean
    phi = PolyGauss(3, 0.7, {0: {(0, 0, 0): 1.0}})
    rho = 1.3
    got = pair_pullback(1, rho, phi)
    want = (rho ** (3 - 2) / 2.0) * sphere_integral(
        lambda w: phi(rho * w), 3, level=13)
    assert got == pytest.approx(want, rel=1e-8)


def test_sphere_average_matches_sampled_nodes():
    # closed-form moments vs sampling the level-12 rule, including j > 0
    # terms from L
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
                got = func.sphere_average(r)
                np.testing.assert_allclose(
                    got, vals @ weights, rtol=0,
                    atol=1e-13 * float(np.max(np.abs(vals) @ weights)))
                scalar = func.sphere_average(float(r[0]))
                assert np.ndim(scalar) == 0
                assert scalar == pytest.approx(got[0], rel=1e-15)


def _gaussian_bracket_derivative(n, c, m, v):
    """``(d/dv)^m`` of ``|S^(n-1)|/2 v^a e^(-c v)``, ``a = (n-2)/2``, by
    Leibniz' rule, and the sum of its terms' magnitudes."""
    a = (n - 2) / 2.0
    terms = [math.comb(m, j) * math.prod(a - i for i in range(j))
             * v ** (a - j) * (-c) ** (m - j) for j in range(m + 1)]
    half = 0.5 * sphere_area(n) * math.exp(-c * v)
    return half * math.fsum(terms), half * math.fsum(map(abs, terms))


def test_pullback_of_a_gaussian_is_exact():
    # phi = exp(-c |theta|^2): the bracket is |S^(n-1)|/2 v^((n-2)/2) e^(-cv)
    for n in (2, 3, 4):
        for c in (0.7, 1.3):
            phi = PolyGauss(n, c, {0: {(0,) * n: 1.0}})
            for rho in (0.03, 0.05, 0.8, 1.3):
                for k in (1, 2, 3, 4):
                    want, scale = _gaussian_bracket_derivative(
                        n, c, k - 1, rho * rho)
                    got = pair_pullback(k, rho, phi)
                    assert abs(got - want) <= 1e-13 * scale, (n, c, rho, k)


_FD_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _fd_derivative(g, order, h):
    """Central difference of the given order with one Richardson sweep."""
    def diff(step):
        return sum(co * g(idx * step) for idx, co in _FD_STENCILS[order]) \
            / step ** order

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


def test_pullback_matches_central_differences_of_the_first_order():
    # the order-k pairing is (-1)^(k-1) (d/du)^(k-1) of the order-1 pairing
    # at radius sqrt(rho^2 - u); roundoff in the differences grows like
    # 1/h^(k-1) at h = 1e-3, hence one tolerance per order
    phi = PolyGauss.random(3, np.random.Generator(np.random.Philox(41)))
    rho = 1.0

    def first(u):
        return pair_pullback(1, math.sqrt(rho * rho - u), phi)

    for k, tol in ((2, 1e-10), (3, 1e-7), (4, 1e-4)):
        want = (-1.0) ** (k - 1) * _fd_derivative(first, k - 1, 1e-3)
        got = pair_pullback(k, rho, phi)
        assert abs(got - want) <= tol * max(abs(got), abs(first(0.0))), k


# ---------------------------------------------------------------------------
# the two-sided identities


def test_dist_identity_trivial_at_k1():
    phi = PolyGauss.random(3, RNG)
    res = verify_dist_identity(1, 1.0, phi)
    assert res.rel_err == 0.0


def test_dist_identity_battery():
    for k, n, rho in [(2, 3, 1.0), (3, 4, 1.3), (2, 2, 0.8)]:
        phi = PolyGauss.random(n, RNG)
        res = verify_dist_identity(k, rho, phi)
        assert res.rel_err <= 1e-12, (k, n, rho, res.rel_err)


def test_dist_identity_tight_for_k2_n3():
    res = verify_dist_identity(2, 1.0,
                               PolyGauss(3, 1.0, {0: {(0, 0, 0): 1.0}}))
    assert res.rel_err <= 1e-12


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


def _slice_pair_batch(terms, d, delta, eps, tau):
    """`_pair_batch` as it was before its jets were shared: each term calls
    its cutoff, and ``psi(tau)``, on every panel evaluation."""
    def radial_slice(r, power, cutoff):
        a = r * r - 1.0 + eps * eps * tau * tau
        den = (a + 2j * eps * tau) ** power
        return cutoff((1.0 - r * r) / delta) * psi(tau) / den

    lo = math.sqrt(max(0.0, 1.0 - 2.0 * delta))
    hi = math.sqrt(1.0 + 2.0 * delta)
    cuts = [1.0 - eps * eps * tau * tau, 1.0 - delta, 1.0, 1.0 + delta]
    breaks = sorted({math.sqrt(c) for c in cuts if lo * lo < c < hi * hi})

    def integrand(r):
        return np.stack([radial_slice(r, power, cutoff) * r ** (d - 2)
                         * func.sphere_average(r)
                         for power, cutoff, func in terms], axis=0)

    return gauss_kronrod_batch(integrand, lo, hi, abs_tol=1e-10,
                               breakpoints=tuple(breaks),
                               max_panels=4096)[0]


def _counter_terms(k, h):
    """Both identities' terms at order k, as `verify_counter_identities`
    builds them, and a plain cutoff's beside them."""
    zeta = Psi0Cutoff()
    l_pow = [h]
    for _ in range(k - 1):
        l_pow.append(l_pow[-1].apply_L())
    return ([(k, zeta, h)]
            + [(1, zeta.derivative(ell), l_pow[k - 1 - ell])
               for ell in range(k)]
            + [(k - ell, zeta.derivative(ell), h) for ell in range(k)]
            + [(2, PlateauBump(-1.5, -0.5, 0.5, 1.5), l_pow[-1])])


@pytest.mark.parametrize("k, n, tau", [(1, 2, 1.0), (2, 2, 0.7),
                                       (3, 4, 1.6)])
def test_pair_batch_equals_the_per_term_slices(k, n, tau):
    h = PolyGauss.random(n, np.random.Generator(np.random.Philox(k)))
    terms = _counter_terms(k, h)
    args = (n + 1, 2.0 ** -5, 2.0 ** -5, tau)
    np.testing.assert_array_equal(identities._pair_batch(terms, *args),
                                  _slice_pair_batch(terms, *args))


def _count_integrand_calls(monkeypatch, calls):
    """Count, in ``calls``, each call of an integrand that the module's
    `gauss_kronrod_batch` receives."""
    def counting(f, *args, **kw):
        def counted(x):
            calls.append(x.size)
            return f(x)
        return gauss_kronrod_batch(counted, *args, **kw)
    monkeypatch.setattr(identities, "gauss_kronrod_batch", counting)


def test_pair_batch_takes_one_jet_per_base_cutoff_per_evaluation(
        monkeypatch):
    # psi(tau) once per batch; each panel evaluation one jet of each base
    # cutoff, to the highest shift its terms read
    orders = {"zeta": [], "plain": []}

    class Spy(Psi0Cutoff):
        def __init__(self, name):
            self.name = name

        def jet(self, t, m):
            orders[self.name].append(m)
            return super().jet(t, m)

    zeta, plain = Spy("zeta"), Spy("plain")
    h = PolyGauss.random(2, np.random.Generator(np.random.Philox(5)))
    terms = [(2, zeta, h), (1, zeta.derivative(3), h.apply_L()),
             (1, zeta.derivative(1), h), (1, plain, h)]
    evaluations, psi_calls = [], []
    _count_integrand_calls(monkeypatch, evaluations)
    monkeypatch.setattr(identities, "psi",
                        lambda t: psi_calls.append(t) or psi(t))
    identities._pair_batch(terms, 3, 2.0 ** -5, 2.0 ** -5, 1.0)
    assert psi_calls == [1.0]
    assert orders == {"zeta": [3] * len(evaluations),
                      "plain": [0] * len(evaluations)}


# ---------------------------------------------------------------------------
# inversion transform


def _kelvin_lattice(n):
    """The n^3 lattice `verify_kelvin` samples, as a `GridField`."""
    return GridField(np.zeros((n,) * 3, dtype=complex), (KELVIN_PERIOD,) * 3,
                     (0.0,) * 3, in_space=True)


def _centered_radii(grid):
    """Each point's distance from the origin through its centred
    coordinates, the radii `_lattice_radii` tabulates."""
    r2 = np.zeros(grid.shape)
    for ax, (h, L) in enumerate(zip(grid.spacings, grid.periods)):
        xc = np.mod(h * np.arange(grid.shape[ax]) + L / 2.0, L) - L / 2.0
        shape = [1] * grid.d
        shape[ax] = -1
        r2 = r2 + xc.reshape(shape) ** 2
    return np.sqrt(r2)


def _complex_fractional_laplacian(grid, values, s):
    """``(-Delta)^s`` through the grid's complex transforms on the whole
    lattice, independent of the octant's DCT-Is."""
    F = grid.with_values(values).to_freq()
    m2 = np.zeros(F.shape)
    for ax, xi in enumerate(F.freq_axes()):
        shape = [1] * F.d
        shape[ax] = -1
        m2 = m2 + xi.reshape(shape) ** 2
    return F.with_values(m2 ** s * F.values, in_space=False).to_space()


def _kelvin_oracle(u, s, grid):
    """`_kelvin_samples` evaluated point by point on `_centered_radii`:
    ``T_s u`` on the lattice, the sampled flat indices, and their radii."""
    radii = _centered_radii(grid)
    support = (max(u.support[0], 1e-9), u.support[1])
    shell = (radii >= 0.9 / support[1]) & (radii <= 1.1 / support[0])
    t_vals = np.zeros(grid.shape)
    t_vals[shell] = (radii[shell] ** (2.0 * s - grid.d)
                     * u(1.0 / radii[shell]))
    flat = np.flatnonzero(((radii >= 0.7) & (radii <= 1.4)).ravel())
    if s != 1.0 and flat.size > 400:
        rng = np.random.Generator(np.random.Philox(0))
        flat = np.sort(rng.choice(flat, size=400, replace=False))
    return t_vals, flat, radii.ravel()[flat]


def _octant(values):
    """The first octant of an n^3 lattice array, n/2 + 1 points per axis."""
    m = values.shape[0] // 2 + 1
    return values[:m, :m, :m]


def test_fractional_laplacian_single_mode():
    # cos(k0 x0) cos(k1 x1) cos(k2 x2) is even in every axis
    g = _kelvin_lattice(32)
    xi = [ax[i] for ax, i in zip(g.freq_axes(), (2, 1, 3))]
    x = np.meshgrid(*[g.spacings[0] * np.arange(32 // 2 + 1)] * 3,
                    indexing="ij", sparse=True)
    mode = 1.0
    for a, b in zip(xi, x):
        mode = mode * np.cos(a * b)
    out = fractional_laplacian(mode, g.periods, 0.75)
    want = float(np.sum(np.square(xi))) ** 0.75 * mode
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * np.max(want))


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("s", [0.75, 1.0, 1.25])
def test_fractional_laplacian_matches_the_complex_route(n, s):
    g = _kelvin_lattice(n)
    r = _centered_radii(g)
    for field in (np.exp(-4.0 * r * r), _kelvin_oracle(inversion_bump(s), s,
                                                       g)[0]):
        want = _octant(_complex_fractional_laplacian(g, field, s).values.real)
        got = fractional_laplacian(_octant(field), g.periods, s)
        assert got.shape == (n // 2 + 1,) * 3
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fractional_laplacian_leaves_its_input_untouched():
    x = RNG.standard_normal((9, 6, 5))
    keep = x.copy()
    out = fractional_laplacian(x, (KELVIN_PERIOD,) * 3, 1.25)
    np.testing.assert_array_equal(x, keep)
    assert not np.shares_memory(out, x)


def test_fractional_laplacian_holds_at_most_three_octants_at_n128():
    # its output, the multiplier, and the DCT-Is' cache-sized slabs: no
    # stage forms an extension of the whole octant
    x = RNG.standard_normal((65,) * 3)
    fractional_laplacian(x, (KELVIN_PERIOD,) * 3, 1.0)  # FFT plans are set up
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fractional_laplacian(x, (KELVIN_PERIOD,) * 3, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.nbytes


@pytest.mark.parametrize("s", [1.0, 1.25])
def test_kelvin_samples_peak_below_one_real_lattice_array(s):
    # the octant route forms no n^3 array: at n = 128 its traced peak stays
    # under one real 128^3 array (16 MiB), where the full-lattice route
    # peaked at about three of them
    n = 128
    u = inversion_bump(s)
    identities._kelvin_samples(u, s, n, u.support)  # FFT plans are set up
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        identities._kelvin_samples(u, s, n, u.support)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 8 * n ** 3


def test_lattice_radii_match_the_centred_coordinates():
    for n in (64, 128):
        r, a = identities._lattice_radii(n)
        a2 = a * a
        np.testing.assert_array_equal(r[a2[:, None, None] + a2[:, None] + a2],
                                      _centered_radii(_kelvin_lattice(n)))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("s", [1.0, 1.25])
def test_kelvin_samples_match_the_pointwise_route(monkeypatch, n, s):
    # the transform gets T_s u on the octant, bit-identical to evaluating
    # every lattice point on its own, and each sample of the pointwise
    # route's index set reads its octant cell and names its radius's table
    # entry; the transform is swapped for one that reads out each cell's
    # flat index
    u, g = inversion_bump(s), _kelvin_lattice(n)
    seen = []

    def flat_index(values, periods, s):
        seen.append(values)
        return np.arange(values.size, dtype=float).reshape(values.shape)

    monkeypatch.setattr(identities, "fractional_laplacian", flat_index)
    picked, keys = identities._kelvin_samples(u, s, n, u.support)
    t_vals, flat, r_pts = _kelvin_oracle(u, s, g)
    m = n // 2 + 1
    cells = np.ravel_multi_index(
        [np.minimum(i, n - i) for i in np.unravel_index(flat, g.shape)],
        (m,) * 3)
    np.testing.assert_array_equal(seen[0], _octant(t_vals))
    np.testing.assert_array_equal(picked, cells)
    np.testing.assert_array_equal(identities._lattice_radii(n)[0][keys],
                                  r_pts)


def test_kelvin_samples_evaluate_the_profile_once_per_radius():
    u = inversion_bump(1.25)
    sizes = []

    class Spy(type(u)):
        def jet(self, t, m):
            sizes.append(np.size(t))
            return super().jet(t, m)

    spy = Spy(u.base, u.power)
    identities._kelvin_samples(spy, 1.25, 64, spy.support)
    assert 0 < sum(sizes) <= 3 * 32 ** 2 + 1


@pytest.mark.parametrize("s", [1.0, 1.25])
def test_kelvin_right_side_reads_each_distinct_radius_once(s):
    # repeated and permuted radii get the values of their distinct radii bit
    # for bit, so neither moves the oracle's batches
    rng = np.random.Generator(np.random.Philox(29))
    u = inversion_bump(s)
    r = np.unique(rng.uniform(0.7, 1.4, 40))
    idx = rng.permutation(np.concatenate([np.arange(r.size),
                                          rng.integers(0, r.size, 80)]))
    want = identities._kelvin_rhs(u, s, u.support, r)
    np.testing.assert_array_equal(
        identities._kelvin_rhs(u, s, u.support, r[idx]), want[idx])


def test_kelvin_evaluates_the_laplacian_once_per_distinct_radius():
    # s = 1: after one table per lattice, one jet for both profile rows of
    # the exact Laplacian sees each distinct sampled radius once
    u = inversion_bump(1.0)
    sizes = []

    class Spy(type(u)):
        def jet(self, t, m):
            sizes.append(np.size(t))
            return super().jet(t, m)

    radii = np.concatenate([identities._lattice_radii(n)[0][
        identities._kelvin_samples(u, 1.0, n, u.support)[1]]
        for n in (32, 64)])
    distinct = np.unique(radii).size
    verify_kelvin(Spy(u.base, u.power), 1.0, (32, 64))
    assert distinct < radii.size
    assert len(sizes) == 3 and sizes[2:] == [distinct]


def test_the_oracle_default_tolerance_holds_at_a4_radii():
    # rel_tol bounds an error by rel_tol times the L1 mass of the panel
    # contributions, up to 7.9e5 times the integral at A4's radii; against a
    # 1e-12 run the default 1e-9 holds within 1e-9 of the largest value
    u = inversion_bump(1.25)
    r = identities._lattice_radii(128)[0]
    sampled = r[(r >= 0.7) & (r <= 1.4)]
    inverted = 1.0 / sampled[::sampled.size // 6]
    default = radial_fractional_at(u, u.support, 3, 1.25, inverted)
    tight = radial_fractional_at(u, u.support, 3, 1.25, inverted,
                                 rel_tol=1e-12)
    assert np.max(np.abs(default - tight)) <= 1e-9 * np.max(np.abs(tight))


def test_kelvin_identity_classical_laplacian():
    res, = verify_kelvin(inversion_bump(1.0), 1.0, (128,))
    assert res.rel_err <= 1e-3


def test_kelvin_identity_fractional():
    res, = verify_kelvin(inversion_bump(1.25), 1.25, (128,))
    assert res.rel_err <= 1e-2


def test_kelvin_error_halves_under_resolution_doubling():
    u = inversion_bump(1.0)
    coarse, fine = verify_kelvin(u, 1.0, (64, 128))
    assert coarse.rel_err / fine.rel_err >= 2.0


def test_kelvin_right_side_that_vanishes_alone_is_an_infinite_error():
    # u lives on [1/1.9, 1/1.5], off the inverted radii [1/1.4, 1/0.7] at
    # which the right side reads it
    off, = verify_kelvin(InversionImage(PlateauBump(1.5, 1.6, 1.7, 1.9),
                                        -1.0), 1.0, (64,))
    assert off.rhs == 0.0 < off.abs_err and off.rel_err == math.inf
    zero = CustomCutoff(lambda t, order=0: np.zeros(np.shape(t)), (0.7, 1.4),
                        max_order=2)
    both, = verify_kelvin(zero, 1.0, (16,))
    assert (both.lhs, both.rhs, both.abs_err, both.rel_err) == (0, 0, 0, 0)


def test_kelvin_bits_do_not_depend_on_the_blas_thread_count():
    # one process per OpenBLAS thread count; each prints every field's hex
    script = ("from dataclasses import astuple\n"
              "from carlab.bump import inversion_bump\n"
              "from carlab.identities import verify_kelvin\n"
              "for r in verify_kelvin(inversion_bump(1.0), 1.0, (64, 128)):\n"
              "    print(*(float(x).hex() for x in astuple(r)))\n")
    src = str(pathlib.Path(identities.__file__).resolve().parents[1])
    out = [subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src,
                               "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "2")]
    assert len(out[0].split()) == 8
    assert out[0] == out[1]


def test_kelvin_refuses_an_order_the_oracle_lacks_before_lattice_work(
        monkeypatch):
    monkeypatch.setattr(identities, "fractional_laplacian", None)
    for s in (2.0, 1.5, 3.0):
        with pytest.raises(ValueError, match="0 < s < 3"):
            verify_kelvin(inversion_bump(s), s, (64,))


@pytest.mark.parametrize("sizes", [(), (64, 63), (2,)])
def test_kelvin_refuses_bad_sizes_before_lattice_work(monkeypatch, sizes):
    # no lattices, an odd n, and n < 4 are each one ValueError
    monkeypatch.setattr(identities, "_kelvin_samples", None)
    with pytest.raises(ValueError, match="even lattice sizes n >= 4"):
        verify_kelvin(inversion_bump(1.25), 1.25, sizes)


def _recording_oracle(monkeypatch, calls, oracle=None):
    """Replace verify_kelvin's oracle by one that records its radii and
    forwards to ``oracle`` (ones when None)."""
    def record(profile, support, d, s, radii, **kw):
        calls.append(np.array(radii))
        if oracle is None:
            return np.ones_like(radii)
        return oracle(profile, support, d, s, radii, **kw)
    monkeypatch.setattr(identities, "radial_fractional_at", record)


def test_kelvin_over_two_lattices_matches_one_lattice_calls(monkeypatch):
    # one oracle call over the distinct inverted radii of both lattices:
    # each lattice keeps its own 400 points, and its error moves only by how
    # the union refines
    u = inversion_bump(1.25)
    sizes = (32, 64)
    calls = []
    _recording_oracle(monkeypatch, calls, radial_fractional_at)
    both = verify_kelvin(u, 1.25, sizes)
    singles = [verify_kelvin(u, 1.25, (n,))[0] for n in sizes]
    assert len(calls) == 3 and [r.size for r in calls] == [183, 50, 161]
    np.testing.assert_array_equal(np.sort(calls[0]),
                                  np.union1d(calls[1], calls[2]))
    for pair, one in zip(both, singles):
        assert pair.lhs == one.lhs
        assert pair.rel_err == pytest.approx(one.rel_err, rel=1e-10, abs=0)


@pytest.fixture(scope="module")
def a4_oracle_calls():
    """The radii of every oracle call A4's `kelvin_checks` makes, with a
    stand-in oracle that returns ones."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _recording_oracle(mp, calls)
        checks = acceptance.kelvin_checks()
    assert [c.s for c in checks] == [1.0, 1.25]
    return calls


def test_kelvin_checks_call_the_oracle_once_per_fractional_order(
        a4_oracle_calls):
    # 161 distinct radii at n = 64 and 296 at n = 128, 42 of them on both
    calls = a4_oracle_calls
    assert len(calls) == 1 and np.unique(calls[0]).size == calls[0].size == 415


def test_a4_oracle_takes_profile_jets_on_a_bounded_number_of_points(
        a4_oracle_calls, monkeypatch):
    # each radius's knot crossings are panel ends, so panels refine for the
    # radius that needs them: 1,169,910 jet points over A4's 415 radii,
    # against 1,409,580 with panel ends at the support crossings only and
    # 2,221,576 when a batch shared breakpoints at its end radii
    points = []
    jet = InversionImage.jet

    def counting(self, t, m):
        points.append(np.size(t))
        return jet(self, t, m)
    monkeypatch.setattr(InversionImage, "jet", counting)
    u = inversion_bump(1.25)
    radial_fractional_at(u, u.support, 3, 1.25, a4_oracle_calls[0])
    assert sum(points) <= 1_250_000


def _gaussian(t, order=0):
    """``exp(-t^2)`` and its derivatives, ``(-1)^k H_k(t) exp(-t^2)``."""
    coef = np.zeros(order + 1)
    coef[order] = 1.0
    t = np.asarray(t, dtype=float)
    return (-1.0) ** order * np.polynomial.hermite.hermval(t, coef) \
        * np.exp(-t * t)


def test_radial_oracle_matches_the_gaussian_closed_form():
    # (-Delta)^s exp(-|x|^2) = 4^s Gamma(3/2+s) / Gamma(3/2)
    # 1F1(3/2+s; 3/2; -r^2) on R^3; the tail beyond r = 9 is below 1e-30
    hyp1f1 = pytest.importorskip("scipy.special").hyp1f1
    u = CustomCutoff(_gaussian, (0.0, 9.0), max_order=6)
    r = np.linspace(0.05, 4.0, 40)
    for s in (0.1, 0.3, 0.7, 0.9, 1.25, 1.4, 1.8, 2.2, 2.6, 2.9):
        got = radial_fractional_at(u, u.support, 3, s, r)
        want = (4.0 ** s * math.gamma(1.5 + s) / math.gamma(1.5)
                * hyp1f1(1.5 + s, 1.5, -r * r))
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), s


def test_radial_oracle_gives_a_radius_alone_what_it_gives_in_a_batch():
    # each radius meets the tolerance on the panels its batch shares, so
    # alone and among 63 others it lands within 2 rel_tol of the scale
    u = inversion_bump(1.25)
    r = np.sort(RNG.uniform(0.4, 2.5, identities._ORACLE_RADII))
    batch = radial_fractional_at(u, u.support, 3, 1.25, r)
    for i in (0, 17, 40, r.size - 1):
        alone = radial_fractional_at(u, u.support, 3, 1.25, r[i:i + 1])
        assert abs(alone[0] - batch[i]) <= 2e-9 * np.abs(batch).max(), i


def test_radial_oracle_does_not_depend_on_the_order_of_the_radii():
    # the radii are batched in ascending order, so a permutation of the
    # input permutes the output bit for bit
    u = inversion_bump(1.25)
    r = RNG.uniform(0.4, 2.5, 150)
    perm = RNG.permutation(r.size)
    got = radial_fractional_at(u, u.support, 3, 1.25, r[perm])
    np.testing.assert_array_equal(
        got, radial_fractional_at(u, u.support, 3, 1.25, r)[perm])


def _support_oracle(profile, support, d, s, radii, rel_tol=1e-9):
    """`radial_fractional_at` as it was before its panels ended at every
    knot crossing: four segments per radius, split where ``r +- h``
    crosses ``+-support``."""
    m, sigma = identities._oracle_order(d, s)
    n = 2 * m + 2
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    lo, hi = support
    p = 1.0 / (1.0 - sigma)
    c = (4.0 ** sigma * math.gamma(0.5 + sigma) / (2.0 * math.sqrt(math.pi)
         * math.gamma(1.0 - sigma) * (1.0 - 2.0 * sigma)))
    order = np.argsort(radii, kind="stable")
    out = np.empty(radii.shape)
    for start in range(0, radii.size, identities._ORACLE_RADII):
        batch = order[start:start + identities._ORACLE_RADII]
        r = radii[batch][:, None]
        cross = np.sort(np.clip(np.hstack([hi - r, lo - r, r - lo, r - hi,
                                           r + lo]), 0.0, r + hi), axis=1)
        ends = np.hstack([np.zeros_like(r), cross[:, 2:], r + hi])
        ends **= 1.0 - sigma
        jacs = np.diff(ends, axis=1)

        def integrand(z):
            k = np.minimum(z.astype(int), 3)
            jac = jacs[:, k]
            v = ends[:, k] + (z - k) * jac
            h = v ** p
            x = np.stack([r + h, r - h])
            t = np.abs(x)
            on = np.flatnonzero((t >= lo) & (t <= hi))
            t_on = t.ravel()[on]
            jet = profile.jet(t_on, n)
            odd = np.zeros(x.size)
            odd[on] = np.sign(x.ravel()[on]) * (t_on * jet[n]
                                                + n * jet[n - 1])
            odd = odd.reshape(x.shape)
            return p * v * jac * (odd[0] + odd[1])

        vals, _ = gauss_kronrod_batch(
            integrand, 0.0, 4.0, abs_tol=1e-13, rel_tol=rel_tol,
            breakpoints=(1.0, 2.0, 3.0), max_panels=16384)
        out[batch] = (-1.0) ** m * c * vals / r[:, 0]
    return out


def test_radial_oracle_without_inner_knots_keeps_the_support_panels():
    # no knots: the support's two are the knots, and the four segments
    # split where they did before knots counted, bit for bit
    gauss = CustomCutoff(_gaussian, (0.0, 9.0), max_order=6)
    u = inversion_bump(1.25)
    no_knots = CustomCutoff(u, u.support, max_order=4)
    for prof, s, r in ((gauss, 1.25, np.linspace(0.05, 4.0, 40)),
                       (gauss, 0.3, np.linspace(0.05, 4.0, 40)),
                       (no_knots, 1.25, RNG.uniform(0.4, 2.5, 30))):
        np.testing.assert_array_equal(
            radial_fractional_at(prof, prof.support, 3, s, r),
            _support_oracle(prof, prof.support, 3, s, r))


@pytest.mark.parametrize("knots", [(0.41, 1.40, 1.47, 2.46),
                                   (0.41, 1.40, 1.40, 2.46)])
def test_knot_aligned_oracle_agrees_with_the_support_panels(knots):
    # 200 radii, among them each knot of the image; b == c makes two of
    # them one
    u = InversionImage(PlateauBump(*knots), 2.0 * 1.25 - 3)
    r = np.concatenate([u.knots, RNG.uniform(0.4, 2.5, 200 - 4)])
    got = radial_fractional_at(u, u.support, 3, 1.25, r)
    want = _support_oracle(u, u.support, 3, 1.25, r)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_radial_oracle_takes_one_profile_jet_per_evaluation(monkeypatch):
    sizes, evaluations = [], []
    u = inversion_bump(1.25)

    class Spy(InversionImage):
        def jet(self, t, m):
            sizes.append(np.size(t))
            return super().jet(t, m)

    _count_integrand_calls(monkeypatch, evaluations)
    spy = Spy(u.base, u.power)
    radial_fractional_at(spy, spy.support, 3, 1.25, RNG.uniform(0.4, 2.5, 70))
    assert len(sizes) == len(evaluations) > 2


def test_radial_oracle_rejects_a_profile_without_jets(monkeypatch):
    # s = 1.25 in d = 3 needs derivatives to order 2m + 2 = 4; both
    # rejections come before any quadrature
    monkeypatch.setattr(identities, "gauss_kronrod_batch", None)
    u = inversion_bump(1.25)
    with pytest.raises(ValueError, match="CutoffSpec"):
        radial_fractional_at(lambda t: u(t), u.support, 3, 1.25, [1.0])
    short = CustomCutoff(u, u.support, max_order=3)
    with pytest.raises(ValueError, match="order 4"):
        radial_fractional_at(short, u.support, 3, 1.25, [1.0])


def test_radial_oracle_rejects_integer_half_integer_and_outside_orders(
        monkeypatch):
    # an integer s has no singular integral, a half-integer one a log
    # kernel; both, and s outside (0, 3), are refused before any quadrature
    monkeypatch.setattr(identities, "gauss_kronrod_batch", None)
    u = inversion_bump(1.25)
    for s in (1.0, 2.0, 0.5, 1.5, 2.5, 0.0, -0.25, 3.0, 3.25):
        with pytest.raises(ValueError, match="0 < s < 3"):
            radial_fractional_at(u, u.support, 3, s, [1.0])


def test_radial_oracle_rejects_a_dimension_other_than_three(monkeypatch):
    monkeypatch.setattr(identities, "gauss_kronrod_batch", None)
    u = inversion_bump(1.0)
    for d in (2, 4):
        with pytest.raises(ValueError, match="d = 3"):
            radial_fractional_at(u, u.support, d, 1.0, [1.0])


def test_field_at_points_is_the_shifted_function():
    # space samples are f exp(-i sigma . x); the interpolant returns f
    g = default_grid(2, n=16, for_full_symbol=True)
    rng = np.random.Generator(np.random.Philox(3))
    f = field_on(g, rng.standard_normal(g.shape)
                    + 1j * rng.standard_normal(g.shape), in_space=False)
    x = np.stack(np.meshgrid(*(h * np.arange(n) for h, n in
                               zip(g.spacings, g.shape)), indexing="ij"),
                 axis=-1).reshape(-1, 2)
    want = f.to_space().values.ravel() * np.exp(1j * (x @ np.array(
        g.freq_offsets)))
    got = eval_field_at_points(f, x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # one mode, at a point off the lattice
    vals = np.zeros(g.shape, complex)
    vals[3, 0] = 1.0
    xi = g.freq_axes()[0][3]
    point = np.array([0.37 * g.spacings[0], 0.0])
    got = eval_field_at_points(field_on(g, vals, in_space=False), point)
    scale = 1.0 / g.periods[0] / g.periods[1]
    assert got[0] == np.exp(1j * (point[0] * xi)) * scale


def test_custom_test_function_requires_image_for_l():
    fn = CustomTest(3, lambda p: np.sum(p, axis=-1))
    with pytest.raises(ValueError, match="no derivative closure"):
        fn.apply_L()
