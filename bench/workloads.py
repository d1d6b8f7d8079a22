"""The benchmark's workloads: the checks one pass runs, built from a seed.

Each check drives carlab from outside, through a `carlab.cli.run` config
where a CLI experiment covers it and through public functions otherwise, and
returns its certified numbers grouped in families plus the verdict statuses
the program printed.  `run.py` compares the numbers with the frozen
reference in ``reference.json``.

A seeded check draws its inputs from ``seed % POOL``, so every input set a
seed can produce has frozen reference numbers.  Checks whose cost depends
strongly on their random inputs (A8's restart field, the counter suite's
test functions) keep the criterion's own fixed seed; see README.md.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from carlab import acceptance, cli, identities, normest, oscillatory
from carlab.bump import CustomCutoff, inversion_bump
from carlab.symbols import SymbolSpec

#: number of distinct seeded input sets; reference.json freezes each one
POOL = 16

Numbers = dict[str, list[float]]


@dataclass(frozen=True)
class Check:
    """One unit of a pass: run it, compare its numbers, time it."""

    name: str
    criterion: str | None
    run: Callable[[], tuple[Numbers, list[str]]]
    #: family -> (kind, tol): "rel" |x - ref| <= tol |ref|; "abs"
    #: |x - ref| <= tol; "dev" x <= ref + tol (a deviation may shrink)
    families: dict[str, tuple[str, float]]
    seeded: bool = False


def _config(out_dir: str, experiment: str, seed: int = 0,
            **params) -> cli.ExperimentConfig:
    return cli.ExperimentConfig.from_mapping(
        {"experiment": experiment, "seed": seed, "out_dir": out_dir,
         "threads": 1, **params})


def _statuses(report: cli.RunReport) -> list[str]:
    return [f"{v.id}:{v.status}" for v in report.verdicts]


def _csv_column(path: str, column: str) -> list[float]:
    with open(path, encoding="utf-8") as handle:
        rows = [line for line in handle if not line.startswith("#")]
    return [float(row[column]) for row in csv.DictReader(rows)]


def _normest_check(name: str, criterion: str, out_dir: str,
                   **params) -> Check:
    cfg = _config(out_dir, "normest", out=f"{name}.csv", **params)

    def run():
        report = cli.run(cfg)
        measures = report.verdicts[0].measures
        numbers = {"value": _csv_column(os.path.join(out_dir, cfg.out),
                                        "value"),
                   "slope": [measures["slope"]] if measures else []}
        return numbers, _statuses(report)
    return Check(name, criterion, run,
                 {"value": ("rel", 1e-9), "slope": ("abs", 1e-8)})


def _measures_check(name: str, criterion: str | None, cfg, key: str,
                    tol: float, seeded: bool) -> Check:
    """A CLI config whose certified numbers are its verdicts' measures."""
    def run():
        report = cli.run(cfg)
        return ({key: [v.measures.get("rel_err", math.nan)
                       for v in report.verdicts]}, _statuses(report))
    return Check(name, criterion, run, {key: ("dev", tol)}, seeded)


def _cases_check(name: str, criterion: str, cfg, families,
                 seeded: bool = False) -> Check:
    """An identities suite: per-case deviations from its results JSON."""
    def run():
        report = cli.run(cfg)
        with open(os.path.join(cfg.out_dir, cfg.out),
                  encoding="utf-8") as handle:
            cases = json.load(handle)["cases"]
        return ({"rel_err": [c["rel_err"] for c in cases]},
                _statuses(report))
    return Check(name, criterion, run, families, seeded)


# ---------------------------------------------------------------------------
# lattice: FFTs inside the power iteration
# ---------------------------------------------------------------------------


def _ring_smoke() -> tuple[Numbers, list[str]]:
    # harness self-test only: two small ring lattices, two iterations each
    vals = [normest.estimate_operator_norm(
        acceptance.ring_grid(j, 64, 16),
        SymbolSpec("ring", 3, 1, eps=2.0 ** -6, j=j), 2.0, 6.0,
        n_random=1, max_iter=2, tol=1e-3).value for j in range(2)]
    return {"value": vals}, []


def lattice(seed: int, out_dir: str, smoke: bool) -> list[Check]:
    eps = "2^-3..2^-5" if smoke else "2^-3..2^-6"
    checks = [
        _normest_check("A5.tilde_knapp", "A5", out_dir, kind="tilde_knapp",
                       d=3, k=1, eps=eps, point="3/4,1/4"),
        _normest_check("A5.me_knapp", "A5", out_dir, kind="me_knapp", d=3,
                       k=1, eps=eps, point="3/4,1/4"),
        _measures_check("lattice.roundtrip", None,
                        _config(out_dir, "spectral", seed=seed % POOL, d=3,
                                n=32 if smoke else 0),
                        "rel_err", 1e-13, seeded=True),
    ]
    if smoke:
        checks.insert(0, Check("A8.ring", "A8", _ring_smoke,
                               {"value": ("rel", 1e-9)}))
    else:
        # A8's own restart seed: the restart field sets the iteration count
        checks.insert(0, _normest_check("A8.ring", "A8", out_dir,
                                        kind="l2_ring", d=3, k=1,
                                        eps="2^-6", seed=0))
    return checks


# ---------------------------------------------------------------------------
# radial: a few large adaptive quadratures over cutoff derivatives
# ---------------------------------------------------------------------------


def _kelvin_smoke() -> tuple[Numbers, list[str]]:
    prof = inversion_bump(1.25)
    vals = identities.radial_fractional_at(prof, prof.support, 3, 1.25,
                                           [1.0, 1.2], rel_tol=1e-2)
    return {"oracle": [float(v) for v in vals]}, []


def _counter_smoke(seed: int) -> tuple[Numbers, list[str]]:
    rng = np.random.Generator(np.random.Philox(seed))
    res = identities.verify_counter_identities(
        "induc", 2, 2.0 ** -5, 2.0 ** -5, 1.0,
        identities.PolyGauss.random(2, rng))
    return {"rel_err": [res.rel_err]}, []


def radial(seed: int, out_dir: str, smoke: bool) -> list[Check]:
    distid = _cases_check(
        "A3.distid", "A3",
        _config(out_dir, "identities", seed=seed % POOL, suite="distid",
                out="A3.distid.json"),
        {"rel_err": ("dev", 1e-7)}, seeded=True)
    if smoke:
        return [Check("A4.kelvin", "A4", _kelvin_smoke,
                      {"oracle": ("rel", 1e-6)}),
                Check("A3.counter", "A3", lambda: _counter_smoke(seed),
                      {"rel_err": ("dev", 1e-9)}),
                distid]
    return [
        _cases_check("A4.kelvin", "A4",
                     _config(out_dir, "identities", suite="kelvin",
                             out="A4.kelvin.json"),
                     {"rel_err": ("abs", 1e-5)}),
        # A3's own seed: the test functions decide how many GK retries run
        _cases_check("A3.counter", "A3",
                     _config(out_dir, "identities", seed=23, suite="counter",
                             out="A3.counter.json"),
                     {"rel_err": ("dev", 1e-9)}),
        distid,
    ]


# ---------------------------------------------------------------------------
# resonant: many small GK calls with Bessel integrands
# ---------------------------------------------------------------------------


def _lowerbound_check(out_dir: str, eps: str) -> Check:
    cfg = _config(out_dir, "lowerbound", d=5, k=2, eps=eps, t=0.0,
                  out="A6.lowerbound.csv")

    def run():
        report = cli.run(cfg)
        path = os.path.join(out_dir, cfg.out)
        return ({"scaled_abs_mtf": _csv_column(path, "scaled_abs_mtf"),
                 "band": [report.verdicts[0].measures.get("band",
                                                          math.nan)]},
                _statuses(report))
    return Check("A6.lowerbound", "A6", run,
                 {"scaled_abs_mtf": ("abs", 1e-6), "band": ("rel", 1e-6)})


def _cross_oracle_check(seed: int, samples: int) -> Check:
    """A9's two routes at seeded (d, k, eps, y, t), 1e-5 relative."""
    rng = np.random.Generator(np.random.Philox(seed % POOL))
    specs = {dk: oscillatory.Phi5Spec(*dk) for dk in ((5, 2), (7, 2))}
    points = []
    for i in range(samples):
        d, k = (5, 2) if i % 2 == 0 else (7, 2)
        eps = float(2.0 ** -rng.uniform(3.0, 7.0))
        points.append((d, k, eps, float(rng.uniform(1.0, 40.0)),
                       float(rng.uniform(-6.0, 6.0))))

    def run():
        devs, scaled = [], []
        for d, k, eps, y, t in points:
            tol = 1e-7 * eps ** (d / 2.0 - k)
            direct = oscillatory.mtilde_radial(d, k, eps, specs[d, k], y, t,
                                               abs_tol=tol)
            total = oscillatory.j_decomposition(d, k, eps, specs[d, k], y, t,
                                                abs_tol=tol).total
            devs.append(abs(direct - total) / abs(direct))
            scaled.append(abs(direct) * eps ** (k - d / 2.0))
        status = "pass" if max(devs) <= 1e-5 else "fail"
        return ({"dev": devs, "scaled_abs_mtf": scaled},
                [f"cross-oracle:{status}"])
    return Check("A9.cross_oracle", "A9", run,
                 {"dev": ("dev", 1e-7), "scaled_abs_mtf": ("abs", 1e-6)},
                 seeded=True)


def _moments_check(octaves: int) -> Check:
    """A7's moment calls: the log-law majorant and the window moments."""
    spec = oscillatory.Phi5Spec(5, 2)
    prof = CustomCutoff(spec.varphi, spec.support)
    eps_list = [2.0 ** -m for m in range(4, 4 + octaves)]
    windows = []
    for eps in eps_list:
        r_lo, r_hi = oscillatory.annulus_radii(
            oscillatory.LowerBoundParams.make(5, 2, eps))
        windows.append([float(y) for y in np.linspace(r_lo, r_hi, 5)])

    def run():
        grow, window = [], []
        for eps, ys in zip(eps_list, windows):
            grow.append(oscillatory.i_integral("tilde2_abs", 1.0, 0.0, eps,
                                               prof))
            for y in ys:
                for t in (0.5, 1.0, 1.5, 2.0):
                    for which in ("1", "2", "4"):
                        window.append(oscillatory.i_integral(which, t, y,
                                                             eps, prof))
        return {"grow": grow, "window": window}, []
    return Check("A7.moments", "A7", run,
                 {"grow": ("abs", 1e-8), "window": ("abs", 1e-8)})


def _accept_check(out_dir: str, cid: str) -> Check:
    cfg = _config(out_dir, "accept", suites=cid)
    return Check(f"{cid}.accept", cid,
                 lambda: ({}, _statuses(cli.run(cfg))), {})


def resonant(seed: int, out_dir: str, smoke: bool) -> list[Check]:
    return [
        _lowerbound_check(out_dir, "2^-4..2^-5" if smoke else "2^-4..2^-8"),
        _cross_oracle_check(seed, 4 if smoke else 80),
        _moments_check(2 if smoke else 7),
        _accept_check(out_dir, "A1"),
        _accept_check(out_dir, "A2"),
    ]


BUILDERS: dict[str, Callable[[int, str, bool], list[Check]]] = {
    "lattice": lattice,
    "radial": radial,
    "resonant": resonant,
}
