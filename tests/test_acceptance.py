"""Acceptance battery: every graded criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they land; each test prints ``<id> PASS/FAIL/SKIP: <detail>`` and asserts
that the verdict is a pass.
"""
import re
from fractions import Fraction

import pytest

from carlab import acceptance
from carlab.acceptance import CRITERIA, knapp_fit, run_criterion
from carlab.regions import ExponentPoint


def _check(cid):
    verdict = run_criterion(cid)
    print(verdict.line)
    assert verdict.status == "pass", verdict.detail


def test_criteria_registry_is_complete():
    assert sorted(CRITERIA) == [f"A{i}" for i in range(1, 10)]


def _stub(monkeypatch, outcome):
    """Replace A1's body by one that returns or raises ``outcome``."""
    def body():
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    monkeypatch.setitem(CRITERIA, "A1", (CRITERIA["A1"][0], body, 1.0))


@pytest.mark.parametrize("outcome, status, detail", [
    ((True, "held"), "pass", "held"),
    ((False, "broke"), "fail", "broke"),
    (RuntimeError("boom"), "fail", "error: RuntimeError('boom')"),
])
def test_run_criterion_maps_outcomes_to_one_verdict_type(
        monkeypatch, outcome, status, detail):
    _stub(monkeypatch, outcome)
    verdict = run_criterion("A1")
    assert (verdict.id, verdict.status, verdict.detail) == \
        ("A1", status, detail)
    assert list(verdict.measures) == ["seconds"]
    assert verdict.measures["seconds"] >= 0.0
    assert verdict.line == f"A1 {status.upper()}: {detail}"


def test_run_criterion_fails_a_pass_over_budget(monkeypatch):
    _stub(monkeypatch, (True, "held"))
    name, body, _ = CRITERIA["A1"]
    monkeypatch.setitem(CRITERIA, "A1", (name, body, 0.0))
    verdict = run_criterion("A1")
    assert verdict.status == "fail"
    assert verdict.detail.startswith("held; over budget (")


def test_run_criterion_rejects_an_unknown_id():
    with pytest.raises(KeyError, match="A0"):
        run_criterion("A0")


def test_knapp_fit_rejects_a_bad_scale_before_any_witness(monkeypatch):
    built = []
    monkeypatch.setattr(acceptance, "knapp_witness",
                        lambda *args, **kw: built.append(args))
    point = ExponentPoint(Fraction(3, 4), Fraction(1, 4))
    # the finest scale, 3 * 2^-8, is not dyadic
    scales = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 3.0 * 2.0 ** -8]
    for family in ("tilde", "eps"):
        with pytest.raises(ValueError, match="dyadic eps"):
            knapp_fit(family, 3, 1, scales, point)
    assert built == []


@pytest.mark.parametrize("x, y", [("3/4", "0"), ("1", "1/4"),
                                  ("0", "1/4"), ("3/4", "1")])
def test_knapp_fit_rejects_a_bad_point_before_any_witness(monkeypatch, x, y):
    built = []
    monkeypatch.setattr(acceptance, "knapp_witness",
                        lambda *args, **kw: built.append(args))
    point = ExponentPoint(Fraction(x), Fraction(y))
    scales = [2.0 ** -m for m in range(3, 7)]
    for family in ("tilde", "eps"):
        with pytest.raises(ValueError, match=re.escape(f"point {point} ")):
            knapp_fit(family, 3, 1, scales, point)
    assert built == []


def test_a1():
    _check("A1")


def test_a1_fails_where_composing_k1_would_reach_k2(monkeypatch):
    # the clause runs once at each of A1's d, inside A1's one verdict
    seen = []

    def clause(d):
        seen.append(d)
        return d != 9
    monkeypatch.setattr(acceptance, "_composed_k1_identity", clause)
    ok, detail = acceptance._a1_exact_geometry()
    assert sorted(seen) == [3, 4, 5, 6, 7, 9, 11, 15]
    assert not ok and "(9,1) tables: composing k = 1" in detail


def test_a2():
    _check("A2")


def test_a3():
    _check("A3")


def test_a4():
    _check("A4")


def test_a5():
    _check("A5")


def test_a6():
    _check("A6")


def test_a7():
    _check("A7")


def test_a8():
    _check("A8")


def test_a9():
    _check("A9")
