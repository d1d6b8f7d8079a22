"""Bessel evaluation, quadrature bricks, and the radial lower-bound path."""
import decimal
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import carlab.oscillatory as oscillatory
from carlab.bessel import bessel_j, bessel_ju, sphere_hat
from carlab.bump import CustomCutoff
from carlab.oscillatory import (TAU_RULE_POINTS, EmptyWindowError,
                                LowerBoundParams, Phi5Spec, annulus_radii,
                                frak_s_sample, i_integral, in_resonant_set,
                                j_decomposition, mtilde_radial)
from carlab.quadrature import (_GAUSS_IDX, _NODES, _WGAUSS, _WK,
                               QuadratureError, gauss_kronrod_batch,
                               gauss_legendre_rule)

# ---------------------------------------------------------------------------
# Bessel routines.  The closed forms pin the half-integer branch; scipy is
# the independent oracle for everything else (test-only dependency).


def test_j_half_closed_form():
    for r in (1.0, 10.0, 100.0):
        want = math.sqrt(2.0 / (math.pi * r)) * math.sin(r)
        assert bessel_j(0.5, r) == pytest.approx(want, abs=1e-13)


def test_j_zero_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.0, 0.0) == 0.0


def test_ju_regular_value_at_origin():
    for nu in (0.0, 0.5, 1.5, 3.0):
        want = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
        assert bessel_ju(nu, 0.0) == pytest.approx(want, rel=1e-13)


def test_against_scipy_orders_and_ranges():
    # J_nu to 1e-10 absolute, u_nu = r^-nu J_nu to 1e-10 of u_nu(0), at
    # every order the module serves; the series side reaches up to the last
    # double below the cut, the Hankel side from the cut to 1e4
    jv = pytest.importorskip("scipy.special").jv
    below = np.concatenate([np.linspace(0.0, 12.0, 481)[:-1],
                            [np.nextafter(12.0, 0.0)]])
    above = np.concatenate([np.linspace(12.0, 100.0, 353),
                            np.geomspace(100.0, 1e4, 200)])
    for nu in np.arange(0.0, 16.5, 0.5):
        u0 = bessel_ju(nu, 0.0)
        for r in (below, above):
            want = jv(nu, r)
            assert np.abs(bessel_j(nu, r) - want).max() <= 1e-10, (nu, r[0])
            pos = r > 0.0
            with np.errstate(under="ignore"):
                want_u = want[pos] * np.exp(-nu * np.log(r[pos]))
            err_u = np.abs(bessel_ju(nu, r[pos]) - want_u).max() / u0
            assert err_u <= 1e-10, (nu, r[0])


def test_hankel_asymptotic_remainder_decay():
    # |J_nu(r) - sqrt(2/(pi r)) cos(r - nu pi/2 - pi/4)| <= C r^(-3/2).
    # Orders with 4 nu^2 != 1 so the r^(-3/2) correction actually exists
    # (at nu = 1/2 the leading asymptotic is exact).
    r = np.geomspace(10.0, 1e4, 400)
    for nu in (1.0, 2.5, 7.0):
        lead = np.sqrt(2.0 / (np.pi * r)) * np.cos(
            r - nu * np.pi / 2.0 - np.pi / 4.0)
        scaled = np.abs(bessel_j(nu, r) - lead) * r ** 1.5
        # the fitted constant stays bounded: no growth across the range
        head = scaled[r < 100].max()
        tail = scaled[r > 1000].max()
        assert tail <= 2.0 * head
        assert scaled.max() < 40.0


def test_sphere_hat_circle_and_point_mass():
    r = np.linspace(0.0, 30.0, 100)
    np.testing.assert_allclose(sphere_hat(2, r),
                               2.0 * math.pi * bessel_j(0.0, r), atol=1e-10)
    # at the origin the transform returns the total measure
    assert sphere_hat(3, 0.0) == pytest.approx(4.0 * math.pi)
    assert sphere_hat(4, 0.0) == pytest.approx(2.0 * math.pi ** 2)


def test_sphere_hat_of_the_zero_sphere_is_twice_the_cosine():
    # S^0 = {-1, 1}: the transform is e^(ir) + e^(-ir)
    r = np.linspace(0.0, 30.0, 100)
    np.testing.assert_array_equal(sphere_hat(1, r), 2.0 * np.cos(r))
    assert sphere_hat(1, 0.0) == 2.0


def test_sphere_hat_s2_closed_form_and_quadrature():
    from carlab.identities import sphere_integral
    r = 2.0
    want = 4.0 * math.pi * math.sin(r) / r
    assert sphere_hat(3, r) == pytest.approx(want, rel=1e-12)
    direct = sphere_integral(lambda w: np.cos(r * w[..., 2]), 3)
    assert sphere_hat(3, r) == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------------
# quadrature bricks


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_rule(8, 0.0, 1.0)
    assert np.dot(w, x ** 15) == pytest.approx(1.0 / 16.0, rel=1e-13)
    assert np.dot(w, np.ones_like(x)) == pytest.approx(1.0, rel=1e-14)


def test_the_tau_rule_table_is_built_once(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: built.append(n) or leggauss(n))
    spec = Phi5Spec(3, 1)
    for t in (0.5, 1.0):
        mtilde_radial(3, 1, 2.0 ** -5, spec, 3.0, t)
    assert built.count(TAU_RULE_POINTS) <= 1
    x, w = gauss_legendre_rule(TAU_RULE_POINTS, -1.0, 1.0)
    x[:] = w[:] = 0.0  # the rule is the caller's; the table stays intact
    assert np.sum(gauss_legendre_rule(TAU_RULE_POINTS, 0.0, 1.0)[1]) == \
        pytest.approx(1.0, rel=1e-14)


def test_gauss_kronrod_smooth_integral():
    val, err = gauss_kronrod_batch(lambda x: np.exp(-x * x), 0.0, 3.0,
                                   abs_tol=1e-12)
    want = math.sqrt(math.pi) / 2.0 * math.erf(3.0)
    assert val == pytest.approx(want, abs=1e-12)
    assert err <= 1e-12


def test_gauss_kronrod_batched_rows():
    freqs = np.array([1.0, 2.0, 5.0])

    def rows(x):
        return np.cos(freqs[:, None] * x[None, :])

    vals, _ = gauss_kronrod_batch(rows, 0.0, 1.0, abs_tol=1e-12)
    np.testing.assert_allclose(vals, np.sin(freqs) / freqs, atol=1e-12)


def test_gauss_kronrod_gives_up_honestly():
    with pytest.raises(QuadratureError):
        gauss_kronrod_batch(lambda x: np.cos(200.0 * x), 0.0, 10.0,
                            abs_tol=1e-14, max_panels=4)


def test_kronrod_and_gauss_rules_are_exact_to_their_degree():
    # K15 integrates x^k exactly on [-1, 1] for k <= 22, G7 for k <= 13
    for nodes, weights, degree in ((_NODES, _WK, 22),
                                   (_NODES[_GAUSS_IDX], _WGAUSS, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.dot(weights, nodes ** k) - exact) <= 1e-15, k
        assert abs(weights.sum() - 2.0) <= 4 * np.spacing(2.0)


def _gauss7_exact():
    """The 7-point Gauss-Legendre rule to 40 digits: Newton on the
    three-term recurrence from numpy's nodes, w = 2 / ((1-x^2) P7'(x)^2)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40

        def legendre7(x):
            p0, p1 = decimal.Decimal(1), x
            for n in range(1, 7):
                p0, p1 = p1, ((2 * n + 1) * x * p1 - n * p0) / (n + 1)
            return p1, 7 * (x * p1 - p0) / (x * x - 1)

        nodes, weights = [], []
        for start in np.polynomial.legendre.leggauss(7)[0]:
            x = decimal.Decimal(float(start))
            for _ in range(5):
                p, dp = legendre7(x)
                x -= p / dp
            _, dp = legendre7(x)
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


def test_gauss_constants_are_the_rounded_legendre_rule():
    nodes, weights = _NODES[_GAUSS_IDX], _WGAUSS
    x, _ = np.polynomial.legendre.leggauss(7)
    assert np.all(np.abs(nodes - x) <= np.spacing(np.abs(x)))
    # leggauss's weights are themselves up to 4.4 ulp off the exact ones,
    # so the weights are held to the 40-digit rule, as the nodes are too
    x_exact, w_exact = _gauss7_exact()
    assert np.all(np.abs(nodes - x_exact) <= np.spacing(np.abs(x_exact)))
    assert np.all(np.abs(weights - w_exact) <= np.spacing(w_exact))


# ---------------------------------------------------------------------------
# lower-bound parameters


def _mass_balance(lam):
    """Mass of 1/(1+s^2) on [-lam/4, lam/4] less 2^4 times the tail mass."""
    inside = 2.0 * math.atan(lam / 4.0)
    return inside - 2.0 ** 4 * (math.pi - inside)


def test_lambda_satisfies_printed_threshold():
    # 2 arctan(lam/4) = 16 (pi - 2 arctan(lam/4)), so arctan(lam/4) = 8 pi/17
    lam = LowerBoundParams.lam
    assert abs(_mass_balance(lam)) <= 1e-14
    # the balance is increasing in lam: a smaller window fails it
    assert _mass_balance(lam * (1.0 - 1e-9)) < 0.0
    assert LowerBoundParams.mu == 2.0 ** -7 / lam


def test_params_invariants():
    p = LowerBoundParams.make(5, 2, 2.0 ** -6)
    assert p.lam * p.mu <= 2.0 ** -7 + 1e-15
    lo, hi = annulus_radii(p)
    assert lo == pytest.approx(p.mu / (4.0 * p.eps))
    assert hi == pytest.approx(p.mu / (2.0 * p.eps))


# ---------------------------------------------------------------------------
# the radial profile


@pytest.mark.parametrize("d,k", [(5, 2), (7, 2), (3, 1)])
def test_profile_weighted_evenness_and_plateau(d, k):
    spec = Phi5Spec(d, k)
    u = np.linspace(-2.0 * spec.delta0, 2.0 * spec.delta0, 81)
    left = (1.0 + u) ** ((d - 2.0 * k) / 2.0) * spec.phi(1.0 + u)
    right = (1.0 - u) ** ((d - 2.0 * k) / 2.0) * spec.phi(1.0 - u)
    np.testing.assert_allclose(left, right, atol=1e-12)
    rho = np.linspace(0.5, 1.5, 301)
    weighted = rho ** ((d - 2.0 * k) / 2.0) * spec.phi(rho)
    assert weighted.max() <= 1.0 + 1e-12
    plateau = np.linspace(1.0 - spec.delta0, 1.0 + spec.delta0, 41)
    np.testing.assert_allclose(
        plateau ** ((d - 2.0 * k) / 2.0) * spec.phi(plateau), 1.0,
        atol=1e-12)
    assert spec.phi(1.0 - 2.5 * spec.delta0) == 0.0
    assert spec.phi(1.0 + 2.5 * spec.delta0) == 0.0


# ---------------------------------------------------------------------------
# the one-dimensional building integrals


@pytest.fixture(scope="module")
def prof52():
    spec = Phi5Spec(5, 2)
    return CustomCutoff(spec.varphi, spec.support)


def test_i3_vanishes_at_zero_radius(prof52):
    assert i_integral("3", 1.0, 0.0, 2.0 ** -5, prof52) == 0.0


def test_i1_degenerates_to_tilde1_at_zero_radius(prof52):
    a = i_integral("1", 1.0, 0.0, 2.0 ** -5, prof52)
    b = i_integral("tilde1", 1.0, 0.0, 2.0 ** -5, prof52)
    assert a == pytest.approx(b, rel=1e-12)


def test_tilde2_ratio_to_log_bounded(prof52):
    # Logarithmic growth law: |I~2| <= C log(1/eps), ratio confined to a band
    for m in (4, 6, 8, 10, 12):
        eps = 2.0 ** -m
        v = i_integral("tilde2", 1.0, 0.0, eps, prof52)
        assert abs(v) / math.log(1.0 / eps) <= 0.05


def test_tilde2_abs_tracks_log(prof52):
    # the majorant with |cos| in place of cos really grows like log(1/eps)
    for m in (4, 6, 8, 10, 12):
        eps = 2.0 ** -m
        v = i_integral("tilde2_abs", 1.0, 0.0, eps, prof52)
        assert 0.4 <= v / math.log(1.0 / eps) <= 1.1


def test_plateau_window_bounds(prof52):
    # I1 bounded below, |I2| and |I4| bounded above, on the printed annulus
    mins, maxs = [], []
    for m in (4, 6, 8, 10):
        eps = 2.0 ** -m
        p = LowerBoundParams.make(5, 2, eps)
        ys = np.linspace(*annulus_radii(p), 4)
        c_eps = min(i_integral("1", tau, y, eps, prof52)
                    for y in ys for tau in (0.5, 1.0, 2.0))
        big = max(max(abs(i_integral("2", tau, y, eps, prof52)),
                      abs(i_integral("4", tau, y, eps, prof52)))
                  for y in ys for tau in (0.5, 1.0, 2.0))
        mins.append(c_eps)
        maxs.append(big)
    assert min(mins) > 0.0
    assert max(mins) <= 2.0 * min(mins)
    assert max(maxs) <= 2.0 * min(maxs)


def test_the_workload_calls_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on first use (about 10 ms and
    # 1.65 MB); the last line shows that the probe would see that import
    script = ("import sys\n"
              "import numpy as np\n"
              "from carlab.bump import CustomCutoff\n"
              "from carlab.normest import fit_scaling\n"
              "from carlab.oscillatory import Phi5Spec, i_integral, "
              "mtilde_radial\n"
              "fit_scaling([0.5, 0.25, 0.125], [1.0, 2.1, 3.9])\n"
              "spec = Phi5Spec(3, 1)\n"
              "i_integral('tilde2_abs', 1.0, 0.0, 2.0 ** -5,\n"
              "           CustomCutoff(spec.varphi, spec.support))\n"
              "mtilde_radial(3, 1, 2.0 ** -5, spec, 3.0, 0.0)\n"
              "print('numpy.ma' in sys.modules)\n"
              "np.unique(np.array([2.0, 1.0]))\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(pathlib.Path(oscillatory.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# operator output at a point: two routes and a grid


def test_direct_vs_decomposition_spot_checks():
    spec = Phi5Spec(5, 2)
    eps = 2.0 ** -5
    for y, t in [(10.2, 0.0), (22.8, 2.0), (3.0, -1.0)]:
        a = mtilde_radial(5, 2, eps, spec, y, t)
        b = j_decomposition(5, 2, eps, spec, y, t).total
        assert abs(a - b) <= 1e-6 * abs(a)


def test_k1_decomposition_degenerates_to_direct():
    spec = Phi5Spec(3, 1)
    for y, t in [(3.0, 0.5), (20.0, 0.0)]:
        a = mtilde_radial(3, 1, 2.0 ** -5, spec, y, t)
        dec = j_decomposition(3, 1, 2.0 ** -5, spec, y, t)
        assert len(dec.terms) == 1
        assert abs(dec.total - a) <= 1e-12 * abs(a)


def test_both_routes_reject_eps_outside_the_unit_interval(monkeypatch):
    # refused before any quadrature: at eps = 0 the graded breakpoints
    # would not end, and eps > 1 lies outside the family; a tolerance that
    # is not positive and finite would run every panel up to the cap
    monkeypatch.setattr(oscillatory, "gauss_kronrod_batch", None)
    spec = Phi5Spec(5, 2)
    for route in (mtilde_radial, j_decomposition):
        for eps in (0.0, -0.01, 2.0):
            with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
                route(5, 2, eps, spec, 10.0, 0.0)
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="abs_tol must be finite"):
                route(5, 2, 2.0 ** -5, spec, 10.0, 0.0, abs_tol=tol)
        with pytest.raises(ValueError, match="different"):
            route(5, 2, 2.0 ** -5, Phi5Spec(7, 2), 10.0, 0.0)
        for y in (-1.0, 2e4):
            with pytest.raises(ValueError, match=r"\|y\| must lie in"):
                route(5, 2, 2.0 ** -5, spec, y, 0.0)
    with pytest.raises(ValueError, match=r"\(0, 1e4\]"):
        j_decomposition(5, 2, 2.0 ** -5, spec, 0.0, 0.0)


def test_low_order_terms_obey_printed_envelope():
    # |J_0| <= C eps^(d/2 - 1 - s) at (d,k)=(5,2), s=0.1, on the window
    s = 0.1
    ratios = []
    for m in (4, 6, 8):
        eps = 2.0 ** -m
        p = LowerBoundParams.make(5, 2, eps)
        y = float(frak_s_sample(p)[0])
        dec = j_decomposition(5, 2, eps, Phi5Spec(5, 2), y, 0.0)
        ratios.append(abs(dec.terms[0]) / eps ** (2.5 - 1.0 - s))
    assert max(ratios) <= 4.0 * min(ratios)


def test_top_term_lower_bound_on_window():
    # |J_{k-1}| >= c eps^(d/2-k) over the resonant set, at |t| <= 3
    ratios = []
    for m in (4, 6, 8):
        eps = 2.0 ** -m
        p = LowerBoundParams.make(5, 2, eps)
        spec = Phi5Spec(5, 2)
        low = min(abs(j_decomposition(5, 2, eps, spec, float(y), t).terms[-1])
                  for y in frak_s_sample(p)[:3] for t in (0.0, 3.0))
        ratios.append(low / eps ** 0.5)
    assert min(ratios) > 0.0
    assert max(ratios) <= 4.0 * min(ratios)


def test_matches_full_grid_route():
    """d=3 slice: lattice evaluation of the same operator output."""
    from carlab.spectral import apply_multiplier, default_grid
    from fields import field_on

    d, k, eps = 3, 1, 2.0 ** -4
    spec = Phi5Spec(d, k)
    g = default_grid(d, n=128, freq_span=3.0)
    e1, e2, tau = np.meshgrid(*g.freq_axes(), indexing="ij", sparse=True)
    fhat = spec.phi(np.sqrt(e1 ** 2 + e2 ** 2)) * spec.phi(tau) + 0j
    f = field_on(g, np.broadcast_to(fhat, g.shape).copy(), in_space=False)

    def sym(a, b, c):
        return 1.0 / (a * a + b * b - 1.0 + (eps * c) ** 2 + 2j * eps * c)

    out = apply_multiplier(f, sym).to_space()
    xs = [h * np.arange(n) for h, n in zip(g.spacings, g.shape)]
    num = den = 0.0
    for i in (3, 5, 8, 12, 17):
        for j in (0, 1):
            ref = mtilde_radial(d, k, eps, spec, float(xs[0][i]),
                                float(xs[2][j]))
            num += abs(out.values[i, 0, j] - ref)
            den += abs(ref)
    assert num / den <= 1e-2  # periodization-limited


# ---------------------------------------------------------------------------
# the resonant sample set


def test_samples_lie_in_the_set():
    p = LowerBoundParams.make(5, 2, 2.0 ** -6)
    ys = frak_s_sample(p)
    assert len(ys) > 0
    assert np.all(in_resonant_set(p, ys))
    assert np.all(ys >= p.c1 / p.eps - 1e-9)
    assert np.all(ys <= p.c2 / p.eps + 1e-9)


def test_samples_spaced_by_two_pi():
    ys = frak_s_sample(LowerBoundParams.make(5, 2, 2.0 ** -7))
    gaps = np.diff(ys)
    np.testing.assert_allclose(gaps / (2.0 * math.pi),
                               np.round(gaps / (2.0 * math.pi)), atol=1e-6)


def test_count_matches_direct_enumeration():
    p = LowerBoundParams.make(5, 2, 2.0 ** -6)
    ys = frak_s_sample(p)
    lo, hi = p.c1 / p.eps, p.c2 / p.eps
    alpha = math.pi / 4.0 * (p.d + 2 * p.k - 4)
    count = 0
    n = math.floor((lo - alpha) / (2.0 * math.pi)) - 2
    while alpha + 2.0 * math.pi * n <= hi + 1.0:
        base = alpha + 2.0 * math.pi * n
        if lo <= base <= hi:  # c0-window centers inside the annulus
            count += 1
        n += 1
    assert abs(len(ys) - count) <= 1  # edge windows may straddle the cut


def test_empty_window_is_reported():
    # at eps = 2^-2 the window [c1/eps, c2/eps] = [1, 3] holds no point of
    # 2 pi Z + 5 pi / 4
    p = LowerBoundParams.make(5, 2, 2.0 ** -2)
    assert (p.c1 / p.eps, p.c2 / p.eps) == (1.0, 3.0)
    assert p.alpha == pytest.approx(1.25 * math.pi)
    with pytest.raises(EmptyWindowError):
        frak_s_sample(p)
