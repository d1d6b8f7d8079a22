"""Cutoff jets: every row against the per-order formulas and finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab.bump import (MAX_DERIVATIVE_ORDER, CustomCutoff, InversionImage,
                         PlateauBump, Psi0Cutoff, PsiCutoff, SymmetricPlateau,
                         _transition_poly, bump_fingerprint, inversion_bump,
                         psi, psi0, smooth_step_jet)

M = MAX_DERIVATIVE_ORDER


# ---------------------------------------------------------------------------
# per-order reference formulas: one derivative order per call, every lower
# order rebuilt on every call


def _ref_exp_deriv(t, order):
    out = np.zeros(t.shape)
    mask = t > 1e-12
    with np.errstate(under="ignore"):
        e = np.exp(-1.0 / t[mask])
        out[mask] = e if order == 0 else _transition_poly(order)(1.0 / t[mask]) * e
    return out


def _ref_step(t, order):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape)
    if order == 0:
        out[t >= 1.0] = 1.0
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    f = [_ref_exp_deriv(ti, m) for m in range(order + 1)]
    g = [f[m] + (-1.0) ** m * _ref_exp_deriv(1.0 - ti, m)
         for m in range(order + 1)]
    s = [f[0] / g[0]]
    for m in range(1, order + 1):
        acc = f[m].copy()
        for i in range(m):
            acc -= math.comb(m, i) * s[i] * g[m - i]
        s.append(acc / g[0])
    out[inner] = s[order]
    return out


def _ref_plateau(knots, t, order):
    a, b, c, d = knots
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ta, tc = (t - a) / (b - a), (t - c) / (d - c)
    up = [_ref_step(ta, i) / (b - a) ** i for i in range(order + 1)]
    down = [1.0 - _ref_step(tc, 0)]
    down += [-_ref_step(tc, j) / (d - c) ** j for j in range(1, order + 1)]
    out = np.zeros(t.shape)
    for i in range(order + 1):
        out += math.comb(order, i) * up[i] * down[order - i]
    return out


def _ref_symmetric(w, t, order):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = _ref_step((np.abs(t) - w) / w, order)
    if order == 0:
        return 1.0 - s
    sign = np.where(t < 0.0, -1.0, 1.0)
    return -(sign ** order) * s / w ** order


def _step_order(t, order):
    """S^(order)(t), a float at a scalar t, as the cutoffs' ``__call__``."""
    row = smooth_step_jet(t, order)[order]
    return float(row) if row.ndim == 0 else row


def _ref_inversion(base, power, t, order):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    safe = np.where(t > 0.0, t, 1.0)
    terms = {(0, power): 1.0}
    for _ in range(order):
        new = {}
        for (i, p), c in terms.items():
            if c * p != 0.0:
                new[(i, p - 1.0)] = new.get((i, p - 1.0), 0.0) + c * p
            new[(i + 1, p - 2.0)] = new.get((i + 1, p - 2.0), 0.0) - c
        terms = new
    out = np.zeros(t.shape)
    for (i, p), c in terms.items():
        out += c * safe ** p * base(1.0 / safe, i)
    return np.where(t > 0.0, out, 0.0)


_PLATEAU = (0.41, 1.40, 1.47, 2.46)

# name -> (cutoff as fn(t, order), jet(t, m), per-order reference, sample)
_CASES = {
    "smooth_step": (_step_order, smooth_step_jet, _ref_step,
                    np.linspace(-0.3, 1.3, 257)),
    "psi0": (psi0, Psi0Cutoff().jet, lambda t, n: _ref_symmetric(1.0, t, n),
             np.linspace(-2.5, 2.5, 257)),
    "psi": (psi, PsiCutoff().jet,
            lambda t, n: (_ref_symmetric(1.0, t, n)
                          - 2.0 ** n * _ref_symmetric(1.0, 2.0 * t, n)),
            np.linspace(-2.5, 2.5, 257)),
    "SymmetricPlateau": (SymmetricPlateau(0.7), SymmetricPlateau(0.7).jet,
                         lambda t, n: _ref_symmetric(0.7, t, n),
                         np.linspace(-1.6, 1.6, 257)),
    "PlateauBump": (PlateauBump(*_PLATEAU), PlateauBump(*_PLATEAU).jet,
                    lambda t, n: _ref_plateau(_PLATEAU, t, n),
                    np.linspace(0.3, 2.6, 513)),
    "InversionImage": (inversion_bump(1.25), inversion_bump(1.25).jet,
                       lambda t, n: _ref_inversion(
                           lambda u, i: _ref_plateau(_PLATEAU, u, i),
                           -0.5, t, n),
                       np.linspace(0.35, 2.5, 513)),
}

# Values of the per-order code before cutoffs returned jets, one point each,
# orders 0..10.
_FROZEN = {
    "smooth_step": (0.37, (
        0.24686532549351223, 1.826529786949287, 3.2305926428155494,
        -41.11041191334061, 318.7495442262543, 270.9140773147359,
        -91605.92874563829, 1720967.9574286935, -16102529.974284628,
        -332218522.859489, 19713181340.10424,
    )),
    "psi0": (-1.62, (
        0.26528543417404193, 1.8568333566059176, 2.8354343952664816,
        -37.92393519425517, 317.15825677289706, -561.903210696785,
        -75248.91880144602, 1546424.2416523884, -18515906.94393919,
        -157957653.50292352, 15215979440.467716,
    )),
    "psi": (0.83, (
        0.8062812020944323, 3.4194148974117744, -18.410673880868565,
        -400.6227721282298, -4179.215309860735, 123209.51358323001,
        9486283.855590455, 249541730.81209192, -1256324179.790689,
        -583651892570.1177, -34612121821032.043,
    )),
    "SymmetricPlateau": (1.13, (
        0.27594103799754266, -2.6748950098603683, 5.354864384904997,
        105.31501042746079, 1302.6492651318288, 5754.931667837187,
        -567100.1614142586, -17467148.011317942, -332761999.8460201,
        1927290620.0680628, 455981910254.4266,
    )),
    "PlateauBump": (1.2, (
        0.9757983570666997, 0.6219556718051538, -9.837053841029602,
        25.977940634115075, 1721.1564275653134, 10164.742169974985,
        -623442.0352679773, -21690552.22214628, -263763061.90906173,
        6684295492.017503, 634326429717.1028,
    )),
    "InversionImage": (0.55, (
        1.0598123216545825, 6.9619086491581195, -101.27620537707263,
        -1239.190330085626, -2878.8428661551807, 2239149.738778254,
        119727517.965821, -2947944156.608261, -281424702902.73083,
        -24205681245708.04, 885262466625893.0,
    )),
}


def test_fingerprint_pins_order_zero():
    assert bump_fingerprint() == "5c85c0766af95dbc"


#: `InversionImage` sums its closed form, not `_ref_inversion`'s chain-rule
#: table, so the two agree to this, relative to each row's largest magnitude
_INVERSION_RTOL = 1e-14


def _assert_rows_match(got, want, msg, inversion=False):
    if not inversion:
        np.testing.assert_array_equal(got, want, err_msg=msg)
        return
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= _INVERSION_RTOL * scale, msg


def test_jet_rows_equal_per_order_calls():
    for name, (fn, jet, ref, t) in _CASES.items():
        rows = jet(t, M)
        assert rows.shape == (M + 1,) + t.shape, name
        for n in range(M + 1):
            np.testing.assert_array_equal(rows[n], fn(t, n), err_msg=name)
            _assert_rows_match(rows[n], ref(t, n), f"{name} order {n}",
                               name == "InversionImage")


@pytest.mark.parametrize("power", [-3.0, -1.0, -0.5, 0.0, 0.6, 2.0])
def test_inversion_jet_is_the_chain_rule_at_any_power(power):
    # every row against the chain rule, and each row bit for bit whatever
    # order the jet is taken to, at a 0-d point too
    image = InversionImage(PlateauBump(*_PLATEAU), power)
    t = np.concatenate([[-0.5, 0.0], np.linspace(0.35, 2.5, 301)])
    rows = image.jet(t, M)
    for n in range(M + 1):
        want = _ref_inversion(lambda u, i: _ref_plateau(_PLATEAU, u, i),
                              power, t, n)
        _assert_rows_match(rows[n], want, n, inversion=True)
        np.testing.assert_array_equal(image.jet(t, n), rows[:n + 1])
    assert np.all(rows[:, :2] == 0.0)
    for point in (float(t[200]), t[200], np.array(t[200])):
        np.testing.assert_array_equal(image.jet(point, M), rows[:, 200])


def test_inversion_knots_are_the_base_knots_inverted():
    image = inversion_bump(1.25)
    assert image.knots == tuple(1.0 / k for k in _PLATEAU[::-1])
    plain = CustomCutoff(lambda t, order=0: np.ones(np.shape(t)), (0.5, 4.0))
    assert InversionImage(plain, 0.0).knots == (0.25, 2.0)


def test_jet_matches_frozen_values():
    for name, (t0, want) in _FROZEN.items():
        fn, jet = _CASES[name][:2]
        np.testing.assert_allclose(jet(np.array([t0]), M)[:, 0], want,
                                   rtol=1e-14, atol=0, err_msg=name)
        got = [fn(t0, n) for n in range(M + 1)]
        assert all(isinstance(v, float) for v in got), name
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0,
                                   err_msg=name)


def test_scalar_jet_has_one_column():
    assert smooth_step_jet(0.4, 3).shape == (4,)
    assert inversion_bump(1.25).jet(0.6, 2).shape == (3,)
    assert smooth_step_jet(np.zeros((2, 3)), 1).shape == (2, 2, 3)
    bump = PlateauBump(*_PLATEAU)
    for t in (0.3, 1.0, 1.43, 2.0, 2.6, np.float64(1.2), np.array(0.5)):
        np.testing.assert_array_equal(bump.jet(t, 3),
                                      bump.jet(np.array([t]), 3)[:, 0])
    assert bump.jet(np.full((2, 3), 1.0), 2).shape == (3, 2, 3)
    plateau = SymmetricPlateau(0.7)
    for t in (-1.0, 0.0, 0.7, 1.2, np.float64(-0.9), np.array(1.4)):
        np.testing.assert_array_equal(plateau.jet(t, 3),
                                      plateau.jet(np.array([t]), 3)[:, 0])


def test_jets_at_the_ends_of_their_ramps():
    # every knot and its neighbouring doubles; b == c leaves no plateau,
    # and the step's ends include points below exp(-1/t)'s floor
    for knots in (_PLATEAU, (0.41, 1.40, 1.40, 2.46)):
        t = np.array(knots)
        t = np.concatenate([t, np.nextafter(t, -np.inf),
                            np.nextafter(t, np.inf)])
        rows = PlateauBump(*knots).jet(t, M)
        for n in range(M + 1):
            np.testing.assert_array_equal(rows[n], _ref_plateau(knots, t, n))
    t = np.array([1e-300, 1e-13, 1e-12, 2e-12, 0.5, 1.0 - 1e-13, 1.0])
    for tt in (t, t[1:-1]):
        rows = smooth_step_jet(tt, M)
        for n in range(M + 1):
            np.testing.assert_array_equal(rows[n], _ref_step(tt, n))
    # both signs of the symmetric plateau's knots, flat and as a 2-D array
    t = np.array([0.0, 0.7, 1.4])
    t = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
    t = np.concatenate([t, -t])
    rows = SymmetricPlateau(0.7).jet(t.reshape(6, 3), M)
    for n in range(M + 1):
        np.testing.assert_array_equal(rows[n].ravel(),
                                      _ref_symmetric(0.7, t, n))


def _richardson(jet, t, n, h):
    def diff(step):
        return (jet(t + step, n)[n] - jet(t - step, n)[n]) / (2.0 * step)
    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


def test_next_row_is_the_derivative_of_this_row():
    # Truncation (h^4) and roundoff (1/h) balance near h = 3e-5 (errors
    # ~1e-10 of the row's peak); the image's inner ramp is 30x narrower.
    for name, (_, jet, _, t) in _CASES.items():
        h = 3e-6 if name == "InversionImage" else 3e-5
        rows = jet(t, M)
        for n in range(M):
            want = rows[n + 1]
            got = _richardson(jet, t, n, h)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-8 * scale, (name, n)


_knot = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_gap = st.floats(min_value=0.05, max_value=2.0)


@settings(max_examples=40, deadline=None)
@given(a=_knot, rise=_gap, flat=st.floats(min_value=0.0, max_value=1.0),
       fall=_gap, m=st.integers(min_value=0, max_value=M))
def test_plateau_jet_on_random_knots(a, rise, flat, fall, m):
    knots = (a, a + rise, a + rise + flat, a + rise + flat + fall)
    bump = PlateauBump(*knots)
    t = np.linspace(knots[0] - 0.2, knots[3] + 0.2, 97)
    rows = bump.jet(t, m)
    for n in range(m + 1):
        np.testing.assert_array_equal(rows[n], _ref_plateau(bump.knots, t, n))
    assert np.all((rows[0] >= 0.0) & (rows[0] <= 1.0))
    assert np.all(rows[:, t <= knots[0]] == 0.0)
    assert np.all(rows[:, t >= knots[3]] == 0.0)
    if knots[0] > 0.0:
        image = InversionImage(bump, 0.5)
        _assert_rows_match(
            image.jet(1.0 / t[t > 0.0], m)[m],
            _ref_inversion(lambda u, i: _ref_plateau(bump.knots, u, i), 0.5,
                           1.0 / t[t > 0.0], m), m, inversion=True)
