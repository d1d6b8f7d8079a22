"""Acceptance battery: every graded criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they land; each test prints ``<id> PASS/FAIL (<wall>s/<budget>s): <detail>``
and asserts the verdict.
"""
from fractions import Fraction

import pytest

from carlab import acceptance
from carlab.acceptance import CRITERIA, knapp_fit, run_criterion
from carlab.regions import ExponentPoint


def _check(cid):
    verdict = run_criterion(cid)
    print(verdict.line)
    assert not verdict.skipped, verdict.detail
    assert verdict.passed, verdict.detail


def test_criteria_registry_is_complete():
    assert sorted(CRITERIA) == [f"A{i}" for i in range(1, 10)]


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


def test_a1():
    _check("A1")


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
