"""Experiment driver: configs, reproducible runs, CSV/JSON emission.

Every invocation -- whether spelled with flags or loaded with ``run
--config file.json`` -- is normalised into an `ExperimentConfig`, a flat
JSON-representable mapping that round-trips bit-identically and rejects
unknown keys by name.  Running a config produces a `RunReport` (config echo,
one verdict per check, wall time, and the cutoff-family fingerprint) which
is written atomically next to any CSV/JSON artifacts the experiment emits.

All randomness flows from one seeded counter-based generator, so re-running
a config with the same seed reproduces every numeric field exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import acceptance, regions
from .bump import bump_fingerprint
from .oscillatory import (LowerBoundParams, Phi5Spec, frak_s_sample,
                          in_resonant_set, mtilde_radial)
from .spectral import default_grid, lp_norm

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_COMMON_KEYS = ("experiment", "seed", "out", "out_dir", "threads")

#: per-experiment parameter schema: name -> (caster, default)
_SCHEMAS: dict[str, dict[str, tuple[Callable[[Any], Any], Any]]] = {
    "regions": {"d": (int, 5), "k": (int, 2)},
    "symbols": {"d": (int, 3), "k": (int, 1), "eps": (str, "2^-5"),
                "points": (int, 10_000)},
    "spectral": {"d": (int, 2), "n": (int, 0)},
    "normest": {"kind": (str, "tilde_knapp"), "d": (int, 3), "k": (int, 1),
                "eps": (str, "2^-3..2^-6"), "point": (str, "3/4,1/4"),
                "tol_slope": (float, 0.0)},
    "lowerbound": {"d": (int, 5), "k": (int, 2), "eps": (str, "2^-4..2^-8"),
                   "t": (float, 0.0)},
    "identities": {"suite": (str, "distid")},
    "accept": {"suites": (str, "all"), "eps": (str, "")},
}


def parse_eps_range(text: str) -> list[float]:
    """Dyadic scale lists: ``"2^-4..2^-8"``, ``"2^-5"``, or a comma list."""
    text = text.strip()
    if not text:
        raise ValueError("empty eps range")

    def one(tok: str) -> float:
        tok = tok.strip()
        if tok.startswith("2^"):
            return float(2.0 ** int(tok[2:]))
        val = float(Fraction(tok))
        if val <= 0:
            raise ValueError(f"eps must be positive, got {tok!r}")
        return val

    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = one(lo_s), one(hi_s)
        m0 = round(math.log2(lo))
        m1 = round(math.log2(hi))
        if 2.0 ** m0 != lo or 2.0 ** m1 != hi:
            raise ValueError(f"range endpoints must be powers of 2: {text!r}")
        step = 1 if m1 >= m0 else -1
        return [2.0 ** m for m in range(m0, m1 + step, step)]
    return [one(tok) for tok in text.split(",")]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully pinned down; the unit of reproducibility."""

    experiment: str
    seed: int = 0
    out: str = ""
    out_dir: str = "."
    threads: int = 1
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _SCHEMAS:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick "
                             f"from {sorted(_SCHEMAS)}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        schema = _SCHEMAS[self.experiment]
        unknown = sorted(set(self.params) - set(schema))
        if unknown:
            raise ValueError(
                f"unknown config keys for {self.experiment!r}: "
                + ", ".join(repr(u) for u in unknown))
        cast = {name: caster(self.params.get(name, default))
                for name, (caster, default) in schema.items()}
        object.__setattr__(self, "params", cast)

    @classmethod
    def from_mapping(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if "experiment" not in data:
            raise ValueError("config needs an 'experiment' key")
        extra = {k: v for k, v in data.items() if k not in _COMMON_KEYS}
        return cls(experiment=data["experiment"],
                   seed=int(data.get("seed", 0)),
                   out=str(data.get("out", "")),
                   out_dir=str(data.get("out_dir", ".")),
                   threads=int(data.get("threads", 1)),
                   params=extra)

    def to_mapping(self) -> dict[str, Any]:
        flat: dict[str, Any] = {"experiment": self.experiment,
                                "seed": self.seed, "out": self.out,
                                "out_dir": self.out_dir,
                                "threads": self.threads}
        flat.update(self.params)
        return flat

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(json.loads(text))

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckVerdict:
    id: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    measures: dict[str, float] = field(default_factory=dict)

    @property
    def line(self) -> str:
        return f"{self.id} {self.status.upper()}: {self.detail}"


@dataclass(frozen=True)
class RunReport:
    config: dict[str, Any]
    verdicts: tuple[CheckVerdict, ...]
    wall_seconds: float
    fingerprint: str

    @property
    def all_green(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    def to_mapping(self) -> dict[str, Any]:
        return {"config": self.config,
                "verdicts": [{"id": v.id, "status": v.status,
                              "detail": v.detail, "measures": v.measures}
                             for v in self.verdicts],
                "wall_seconds": self.wall_seconds,
                "bump_fingerprint": self.fingerprint}


def _write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn
    report."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, config: ExperimentConfig, units: Sequence[str],
               header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    lines = [f"# config {config.digest}; units: "
             + ", ".join(f"{h}={u}" for h, u in zip(header, units)),
             ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment handlers: config -> (verdicts, emitted artifact paths)
# ---------------------------------------------------------------------------


def _run_regions(cfg: ExperimentConfig,
                 rng: np.random.Generator) -> list[CheckVerdict]:
    d, k = cfg.params["d"], cfg.params["k"]
    dims = regions.DimensionPair(d, k)
    verdicts = []
    try:
        holds = acceptance.geometry_identities(d, k)
        bad = [name for name, ok in holds.items() if not ok]
        verdicts.append(CheckVerdict(
            "regions-exact", "fail" if bad else "pass",
            ("violated: " + ", ".join(bad)) if bad
            else f"{len(holds)} exact identities hold at (d,k)=({d},{k})"))
        if cfg.out:
            path = os.path.join(cfg.out_dir, cfg.out)
            _write_atomic(path, json.dumps(regions.emit_figure_data(dims),
                                           indent=2, sort_keys=True) + "\n")
    except regions.DomainError as exc:
        verdicts.append(CheckVerdict("regions-exact", "fail", repr(exc)))
    return verdicts


def _run_symbols(cfg: ExperimentConfig,
                 rng: np.random.Generator) -> list[CheckVerdict]:
    d, k = cfg.params["d"], cfg.params["k"]
    eps = parse_eps_range(cfg.params["eps"])[0]
    n_pts = cfg.params["points"]
    worst, worst_im = acceptance.symbol_errors(d, k, eps, n_pts, rng)
    return [
        CheckVerdict("symbols-decomposition",
                     "pass" if worst <= acceptance.SYMBOL_TOL else "fail",
                     f"reconstruction rel {worst:.2e} over {n_pts} points "
                     f"(tol 1e-10)", {"rel_err": worst}),
        CheckVerdict("symbols-imaginary",
                     "pass" if worst_im <= acceptance.SYMBOL_TOL
                     else "fail",
                     f"closed-form imaginary part rel {worst_im:.2e} "
                     f"(tol 1e-10)", {"rel_err": worst_im}),
    ]


def _run_spectral(cfg: ExperimentConfig,
                  rng: np.random.Generator) -> list[CheckVerdict]:
    d = cfg.params["d"]
    n = cfg.params["n"] or None
    grid = default_grid(d, n=n)
    noise = (rng.standard_normal(grid.shape)
             + 1j * rng.standard_normal(grid.shape))
    f = grid.with_values(noise, in_space=True)
    back = f.to_freq().to_space()
    rt = float(np.abs(back.values - f.values).max()
               / np.abs(f.values).max())
    e_space = lp_norm(f, 2.0) ** 2
    fv = f.to_freq()
    freq_cell = math.prod(2.0 * math.pi / p for p in fv.periods)
    e_freq = (float(np.sum(np.abs(fv.values) ** 2)) * freq_cell
              * (2.0 * math.pi) ** -d)
    parseval = abs(e_space - e_freq) / e_space
    return [
        CheckVerdict("spectral-roundtrip",
                     "pass" if rt <= 1e-12 else "fail",
                     f"transform round-trip rel {rt:.2e} (tol 1e-12)",
                     {"rel_err": rt}),
        CheckVerdict("spectral-parseval",
                     "pass" if parseval <= 1e-10 else "fail",
                     f"energy identity rel {parseval:.2e} (tol 1e-10)",
                     {"rel_err": parseval}),
    ]


#: scaling kind -> Knapp witness family (None: the ring pieces)
_NORMEST_KINDS = {"me_knapp": "eps", "tilde_knapp": "tilde", "l2_ring": None}


def _run_normest(cfg: ExperimentConfig,
                 rng: np.random.Generator) -> list[CheckVerdict]:
    kind_name = cfg.params["kind"]
    if kind_name not in _NORMEST_KINDS:
        raise ValueError(f"unknown scaling kind {kind_name!r}; pick from "
                         f"{sorted(_NORMEST_KINDS)}")
    family = _NORMEST_KINDS[kind_name]
    tol = cfg.params["tol_slope"] or None  # 0 picks the check's default
    d, k = cfg.params["d"], cfg.params["k"]
    eps_list = parse_eps_range(cfg.params["eps"])
    point = regions.ExponentPoint.parse(cfg.params["point"])

    if family is None:
        check = acceptance.ring_fit(d, k, min(eps_list), cfg.seed, tol)
        label = "delta"
    else:
        try:
            check = acceptance.knapp_fit(family, d, k, eps_list, point, tol)
        except acceptance.InsufficientOctaves as exc:
            return [CheckVerdict(f"normest-{kind_name}", "skip", str(exc))]
        label = "eps"

    if cfg.out:
        _write_csv(os.path.join(cfg.out_dir, cfg.out), cfg,
                   ("dimensionless", "operator-norm lower bound"),
                   (label, "value"), check.fit.pairs)
    fit = check.fit
    return [CheckVerdict(
        f"normest-{kind_name}", "pass" if check.ok else "fail",
        f"slope {fit.slope:+.4f} vs theory {fit.theory:+.4f} "
        f"(dev {check.dev:.4f}, tol {check.tol})",
        {"slope": fit.slope, "theory": fit.theory, "dev": check.dev})]


def _run_lowerbound(cfg: ExperimentConfig,
                    rng: np.random.Generator) -> list[CheckVerdict]:
    d, k = cfg.params["d"], cfg.params["k"]
    t = cfg.params["t"]
    eps_list = parse_eps_range(cfg.params["eps"])
    spec = Phi5Spec(d, k)
    rows: list[tuple] = []
    scaled_mins: list[float] = []

    def one_eps(eps: float) -> list[tuple]:
        params = LowerBoundParams.make(d, k, eps)
        centers = frak_s_sample(params)
        offsets = centers[:-1] + math.pi if len(centers) > 1 else \
            np.asarray([])
        out = []
        for y in np.concatenate([centers, offsets]):
            val = abs(mtilde_radial(d, k, eps, spec, float(y), t))
            flag = int(bool(in_resonant_set(params, float(y))))
            out.append((eps, float(y), t, val,
                        eps ** (k - d / 2.0) * val, flag))
        return out

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        for chunk in pool.map(one_eps, eps_list):
            rows.extend(chunk)
            inside = [r[4] for r in chunk if r[5]]
            scaled_mins.append(min(inside, default=0.0))
    if cfg.out:
        _write_csv(os.path.join(cfg.out_dir, cfg.out), cfg,
                   ("dimensionless", "length", "length", "amplitude",
                    "amplitude", "0/1"),
                   ("eps", "y_abs", "t", "abs_mtf", "scaled_abs_mtf",
                    "in_resonant_set"), rows)
    empty = [eps for eps, low in zip(eps_list, scaled_mins) if not low > 0]
    if empty:
        return [CheckVerdict(
            "lowerbound-band", "fail",
            "no positive resonant-set sample at eps = "
            + ", ".join(f"{eps:g}" for eps in empty), {"min": 0.0})]
    band = max(scaled_mins) / min(scaled_mins)
    ok = band <= 2.0
    return [CheckVerdict(
        "lowerbound-band", "pass" if ok else "fail",
        f"scaled resonant-set minimum spans a factor {band:.3f} band over "
        f"{len(eps_list)} scales (tol 2)",
        {"band": band, "min": min(scaled_mins)})]


_PAIRING_SUITES = {"distid": (acceptance.distid_cases, "pairing"),
                   "counter": (acceptance.counter_cases, "order-shuffle")}


def _run_identities(cfg: ExperimentConfig,
                    rng: np.random.Generator) -> list[CheckVerdict]:
    suite = cfg.params["suite"]
    if suite in _PAIRING_SUITES:
        cases_of, what = _PAIRING_SUITES[suite]
        results = cases_of(rng)
        worst = acceptance.worst_rel_err(results)
        verdicts = [CheckVerdict(
            f"identities-{suite}",
            "pass" if worst <= acceptance.PAIRING_TOL else "fail",
            f"worst {what} rel err {worst:.2e} over {len(results)} cases "
            f"(tol 1e-5)", {"rel_err": worst})]
    elif suite == "kelvin":
        results, verdicts = [], []
        for c in acceptance.kelvin_checks():
            results.extend(c.cases)
            verdicts.append(CheckVerdict(
                f"identities-kelvin-s{c.s}", "pass" if c.ok else "fail",
                f"rel {c.rel:.2e} (tol {c.tol:.0e}), doubling ratio "
                f"{c.ratio:.1f} (>= 2)", {"rel_err": c.rel,
                                          "ratio": c.ratio}))
    else:
        raise ValueError(f"unknown identities suite {suite!r}; pick from "
                         "['counter', 'distid', 'kelvin']")
    if cfg.out:
        _write_atomic(os.path.join(cfg.out_dir, cfg.out),
                      json.dumps({"suite": suite, "config": cfg.digest,
                                  "cases": results}, indent=2,
                                 sort_keys=True) + "\n")
    return verdicts


def _run_accept(cfg: ExperimentConfig,
                rng: np.random.Generator) -> list[CheckVerdict]:
    chosen = sorted(acceptance.CRITERIA) if cfg.params["suites"] == "all" \
        else [s.strip() for s in cfg.params["suites"].split(",")]
    eps_override = cfg.params["eps"]

    def run_one(cid: str) -> CheckVerdict:
        args = (parse_eps_range(eps_override),) \
            if cid == "A5" and eps_override else ()
        v = acceptance.run_criterion(cid, *args)
        status = "skip" if v.skipped else ("pass" if v.passed else "fail")
        return CheckVerdict(cid, status, v.detail, {"seconds": v.seconds})

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(run_one, chosen))
    return [run_one(cid) for cid in chosen]


_HANDLERS: dict[str, Callable[[ExperimentConfig, np.random.Generator],
                              list[CheckVerdict]]] = {
    "regions": _run_regions,
    "symbols": _run_symbols,
    "spectral": _run_spectral,
    "normest": _run_normest,
    "lowerbound": _run_lowerbound,
    "identities": _run_identities,
    "accept": _run_accept,
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment config and return (and persist) its report."""
    roundtrip = ExperimentConfig.from_json(config.to_json())
    if roundtrip.to_json() != config.to_json():
        raise AssertionError("config does not round-trip bit-identically")
    rng = np.random.Generator(np.random.Philox(config.seed))
    start = time.perf_counter()
    try:
        verdicts = _HANDLERS[config.experiment](config, rng)
    except Exception as exc:  # noqa: BLE001 - surface as a failing verdict
        verdicts = [CheckVerdict(f"{config.experiment}-error", "fail",
                                 repr(exc))]
    wall = time.perf_counter() - start
    report = RunReport(config=config.to_mapping(), verdicts=tuple(verdicts),
                       wall_seconds=wall, fingerprint=bump_fingerprint())
    path = os.path.join(config.out_dir,
                        f"{config.experiment}_report.json")
    _write_atomic(path, json.dumps(report.to_mapping(), indent=2,
                                   sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carlab",
        description="Numerical laboratory for a degenerate-sphere multiplier")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the counter-based generator")
    parser.add_argument("--out-dir", default=".",
                        help="directory for reports and artifacts")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel workers for independent sub-runs")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("regions", help="exact exponent-square geometry")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", default="", help="figure-data JSON path")

    p = sub.add_parser("symbols", help="symbol identity spot checks")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", default="2^-5")
    p.add_argument("--points", type=int, default=10_000)

    p = sub.add_parser("spectral", help="grid transform sanity checks")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=0,
                   help="points per axis (0 = dimension default)")

    p = sub.add_parser("normest", help="scaling-law fits for norm bounds")
    p.add_argument("--kind", default="tilde_knapp",
                   choices=sorted(_NORMEST_KINDS))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", default="2^-3..2^-6")
    p.add_argument("--point", default="3/4,1/4",
                   help="exponent point as rational '1/p,1/q'")
    p.add_argument("--tol-slope", type=float, default=0.0,
                   help="slope tolerance (0 = kind default)")
    p.add_argument("--out", default="", help="CSV path")

    p = sub.add_parser("lowerbound", help="resonant-set witness profile")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", default="2^-4..2^-8")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--out", default="lb.csv", help="CSV path")

    p = sub.add_parser("identities", help="distribution identity batteries")
    p.add_argument("--suite", default="distid",
                   choices=["distid", "counter", "kelvin"])
    p.add_argument("--out", default="", help="results JSON path")

    p = sub.add_parser("accept", help="run acceptance criteria")
    p.add_argument("suites", nargs="*", default=[],
                   help="criterion ids (default: all)")
    p.add_argument("--eps", default="",
                   help="override the A5 scale range")

    p = sub.add_parser("run", help="execute a saved config file")
    p.add_argument("--config", required=True)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = {k.replace("-", "_"): v for k, v in vars(args).items()
            if k not in ("experiment", "config") and v is not None}
    if "suites" in data:
        data["suites"] = ",".join(data["suites"]) if data["suites"] \
            else "all"
    data["experiment"] = args.experiment
    return ExperimentConfig.from_mapping(data)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.experiment == "run":
        with open(args.config, encoding="utf-8") as handle:
            config = ExperimentConfig.from_json(handle.read())
        if args.out_dir != ".":
            config = ExperimentConfig.from_mapping(
                {**config.to_mapping(), "out_dir": args.out_dir})
    else:
        config = config_from_args(args)
    report = run(config)
    for v in report.verdicts:
        print(v.line)
    print(f"report: {os.path.join(config.out_dir, config.experiment)}"
          f"_report.json ({report.wall_seconds:.1f}s, fingerprint "
          f"{report.fingerprint})")
    return 0 if report.all_green else 1


if __name__ == "__main__":
    sys.exit(main())
