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
import copy
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import acceptance, regions
from .acceptance import Verdict
from .bump import bump_fingerprint
from .oscillatory import in_resonant_set
from .spectral import default_grid

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
                "eps": (str, "2^-3..2^-6"), "point": (str, "3/4,1/4")},
    "lowerbound": {"d": (int, 5), "k": (int, 2), "eps": (str, "2^-4..2^-8"),
                   "t": (float, 0.0)},
    "identities": {"suite": (str, "distid")},
    "accept": {"suites": (str, "all")},
}


def _cast(name: str, caster: Callable[[Any], Any], value: Any) -> Any:
    """``caster(value)``; an integer field refuses bools and fractions."""
    if caster is int and (isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return caster(value)


def parse_eps_range(text: str) -> list[float]:
    """Dyadic scale lists: ``"2^-4..2^-8"``, ``"2^-5"``, or a comma list."""
    text = text.strip()
    if not text:
        raise ValueError("empty eps range")

    def one(tok: str) -> float:
        tok = tok.strip()
        if tok.startswith("2^"):
            m = int(tok[2:])
            if not -1074 <= m <= 1023:  # 2.0 ** m is 0.0 or overflows
                raise ValueError(f"{tok!r} is 0 or overflows as a float")
            return 2.0 ** m
        try:
            val = float(Fraction(tok))
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"{tok!r} divides by zero or overflows") from None
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
        for name in _COMMON_KEYS[1:]:  # cast as the field's default
            caster = type(getattr(ExperimentConfig, name))
            object.__setattr__(self, name,
                               _cast(name, caster, getattr(self, name)))
        if self.experiment not in _SCHEMAS:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick "
                             f"from {sorted(_SCHEMAS)}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        schema = _SCHEMAS[self.experiment]
        unknown = sorted(set(self.params) - set(schema))
        if unknown:
            raise ValueError(
                f"unknown config keys for {self.experiment!r}: "
                + ", ".join(repr(u) for u in unknown))
        cast = {name: _cast(name, caster, self.params.get(name, default))
                for name, (caster, default) in schema.items()}
        object.__setattr__(self, "params", cast)

    @classmethod
    def from_mapping(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if "experiment" not in data:
            raise ValueError("config needs an 'experiment' key")
        common = {k: v for k, v in data.items() if k in _COMMON_KEYS}
        extra = {k: v for k, v in data.items() if k not in _COMMON_KEYS}
        return cls(**common, params=extra)

    def to_mapping(self) -> dict[str, Any]:
        return {**{key: getattr(self, key) for key in _COMMON_KEYS},
                **self.params}

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
class RunReport:
    config: dict[str, Any]
    verdicts: tuple[Verdict, ...]
    wall_seconds: float
    fingerprint: str

    @property
    def all_green(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    def to_mapping(self) -> dict[str, Any]:
        return {"config": self.config,
                "verdicts": [asdict(v) for v in self.verdicts],
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
                 rng: np.random.Generator) -> list[Verdict]:
    d, k = cfg.params["d"], cfg.params["k"]
    dims = regions.DimensionPair(d, k)
    verdicts = []
    try:
        holds = acceptance.geometry_identities(d, k)
        bad = [name for name, ok in holds.items() if not ok]
        verdicts.append(Verdict.judge(
            "regions-exact", not bad,
            ("violated: " + ", ".join(bad)) if bad
            else f"{len(holds)} exact identities hold at (d,k)=({d},{k})"))
        if cfg.out:
            path = os.path.join(cfg.out_dir, cfg.out)
            _write_atomic(path, json.dumps(regions.emit_figure_data(dims),
                                           indent=2, sort_keys=True) + "\n")
    except regions.DomainError as exc:
        verdicts.append(Verdict.judge("regions-exact", False, repr(exc)))
    return verdicts


def _one_scale(cfg: ExperimentConfig, what: str) -> float:
    scales = parse_eps_range(cfg.params["eps"])
    if len(scales) != 1:
        raise ValueError(f"{what} takes one eps scale, got "
                         f"{cfg.params['eps']!r} ({len(scales)} scales)")
    return scales[0]


def _run_symbols(cfg: ExperimentConfig,
                 rng: np.random.Generator) -> list[Verdict]:
    d, k = cfg.params["d"], cfg.params["k"]
    eps = _one_scale(cfg, "symbols")
    n_pts = cfg.params["points"]
    if n_pts < 1:
        raise ValueError(f"points must be >= 1, got {n_pts}")
    worst, worst_im = acceptance.symbol_errors(d, k, eps, n_pts, rng)
    symbol_tol = acceptance.tol_text(acceptance.SYMBOL_TOL)
    return [
        Verdict.judge("symbols-decomposition",
                      worst <= acceptance.SYMBOL_TOL,
                      f"reconstruction rel {worst:.2e} over {n_pts} points "
                      f"(tol {symbol_tol})", {"rel_err": worst}),
        Verdict.judge("symbols-imaginary", worst_im <= acceptance.SYMBOL_TOL,
                      f"closed-form imaginary part rel {worst_im:.2e} "
                      f"(tol {symbol_tol})", {"rel_err": worst_im}),
    ]


def _run_spectral(cfg: ExperimentConfig,
                  rng: np.random.Generator) -> list[Verdict]:
    """Round trip and Parseval on one seeded complex Gaussian field.

    The field is drawn into one work array a first-axis slice at a time,
    real parts first, with the values of two full-size draws; a copy of the
    generator taken before each part's draws re-draws it.  The work array
    is transformed and inverted in place, the re-drawn field is subtracted
    from it, and the sums run one slice at a time, so the check holds one
    full-size array.
    """
    d = cfg.params["d"]
    n = cfg.params["n"] or None
    grid = default_grid(d, n=n)
    shape, cell = grid.shape, grid.cell_volume
    work = np.empty(shape, complex)
    rows = work.reshape(shape[0], -1)  # at d = 1 a slice is one element
    redraws = []
    for part in (rows.real, rows.imag):
        redraws.append(copy.deepcopy(rng))
        for i in range(shape[0]):
            part[i] = rng.standard_normal(rows.shape[1:])
    e_space = math.fsum(np.sum(np.abs(f) ** 2) for f in rows) * cell
    f_max = max(float(np.abs(f).max()) for f in rows)
    np.fft.fftn(work, out=work)
    work *= cell  # the field's continuum-normalised coefficients
    freq_cell = math.prod(2.0 * math.pi / p for p in grid.periods)
    e_freq = (math.fsum(np.sum(np.abs(x) ** 2) for x in rows)
              * freq_cell * (2.0 * math.pi) ** -d)
    work /= cell
    np.fft.ifftn(work, out=work)
    rt = 0.0
    for b in rows:
        b.real -= redraws[0].standard_normal(b.shape)
        b.imag -= redraws[1].standard_normal(b.shape)
        rt = max(rt, float(np.abs(b).max()))
    rt /= f_max
    parseval = abs(e_space - e_freq) / e_space
    rt_tol, pv_tol = acceptance.ROUNDTRIP_TOL, acceptance.PARSEVAL_TOL
    return [
        Verdict.judge("spectral-roundtrip", rt <= rt_tol,
                      f"transform round-trip rel {rt:.2e} "
                      f"(tol {acceptance.tol_text(rt_tol)})", {"rel_err": rt}),
        Verdict.judge("spectral-parseval", parseval <= pv_tol,
                      f"energy identity rel {parseval:.2e} "
                      f"(tol {acceptance.tol_text(pv_tol)})",
                      {"rel_err": parseval}),
    ]


#: scaling kind -> Knapp witness family (None: the ring pieces)
_NORMEST_KINDS = {"me_knapp": "eps", "tilde_knapp": "tilde", "l2_ring": None}


def _run_normest(cfg: ExperimentConfig,
                 rng: np.random.Generator) -> list[Verdict]:
    kind_name = cfg.params["kind"]
    if kind_name not in _NORMEST_KINDS:
        raise ValueError(f"unknown scaling kind {kind_name!r}; pick from "
                         f"{_OPTIONS['kind']['choices']}")
    family = _NORMEST_KINDS[kind_name]
    d, k = cfg.params["d"], cfg.params["k"]
    if family is None:
        check = acceptance.ring_fit(d, k, _one_scale(cfg, kind_name),
                                    cfg.seed)
        label = "delta"
    else:
        eps_list = parse_eps_range(cfg.params["eps"])
        point = regions.ExponentPoint.parse(cfg.params["point"])
        try:
            check = acceptance.knapp_fit(family, d, k, eps_list, point)
        except acceptance.InsufficientOctaves as exc:
            return [Verdict(f"normest-{kind_name}", "skip", str(exc))]
        label = "eps"

    if cfg.out:
        _write_csv(os.path.join(cfg.out_dir, cfg.out), cfg,
                   ("dimensionless", "operator-norm lower bound"),
                   (label, "value"), check.fit.pairs)
    return [Verdict.judge(f"normest-{kind_name}", check.ok, check.detail,
                          check.measures)]


def _run_lowerbound(cfg: ExperimentConfig,
                    rng: np.random.Generator) -> list[Verdict]:
    d, k, t = cfg.params["d"], cfg.params["k"], cfg.params["t"]
    try:
        scan = acceptance.resonant_scan(
            d, k, parse_eps_range(cfg.params["eps"]), t, cfg.threads)
    except acceptance.InsufficientOctaves as exc:
        return [Verdict("lowerbound-band", "skip", str(exc))]
    if cfg.out:
        # the profile also reads |m~| midway between consecutive centres
        offsets = [ys[:-1] + math.pi for ys in scan.centers]
        off_values = acceptance.abs_mtilde(d, k, t, scan.scales, offsets,
                                           cfg.threads)
        rows = [(eps, float(y), t, val, eps ** (k - d / 2.0) * val,
                 int(bool(in_resonant_set(params, float(y)))))
                for eps, params, ys, vals, off_ys, off_vals in zip(
                    scan.scales, scan.params, scan.centers, scan.values,
                    offsets, off_values)
                for y, val in zip([*ys, *off_ys], vals + off_vals)]
        _write_csv(os.path.join(cfg.out_dir, cfg.out), cfg,
                   ("dimensionless", "length", "length", "amplitude",
                    "amplitude", "0/1"),
                   ("eps", "y_abs", "t", "abs_mtf", "scaled_abs_mtf",
                    "in_resonant_set"), rows)
    return [Verdict.judge("lowerbound-band", scan.ok, scan.detail,
                          scan.measures)]


_PAIRING_SUITES = {"distid": (acceptance.distid_cases, "pairing"),
                   "counter": (acceptance.counter_cases, "order-shuffle")}


def _run_identities(cfg: ExperimentConfig,
                    rng: np.random.Generator) -> list[Verdict]:
    suite = cfg.params["suite"]
    if suite in _PAIRING_SUITES:
        cases_of, what = _PAIRING_SUITES[suite]
        results = cases_of(rng)
        worst = acceptance.worst_rel_err(results)
        verdicts = [Verdict.judge(
            f"identities-{suite}", worst <= acceptance.PAIRING_TOL,
            f"worst {what} rel err {worst:.2e} over {len(results)} cases "
            f"(tol {acceptance.tol_text(acceptance.PAIRING_TOL)})",
            {"rel_err": worst})]
    elif suite == "kelvin":
        results, verdicts = [], []
        for c in acceptance.kelvin_checks():
            results.extend(c.cases)
            verdicts.append(Verdict.judge(
                f"identities-kelvin-s{c.s}", c.ok, c.detail,
                {"rel_err": c.rel, "ratio": c.ratio}))
    else:
        raise ValueError(f"unknown identities suite {suite!r}; pick from "
                         f"{_OPTIONS['suite']['choices']}")
    if cfg.out:
        _write_atomic(os.path.join(cfg.out_dir, cfg.out),
                      json.dumps({"suite": suite, "config": cfg.digest,
                                  "cases": results}, indent=2,
                                 sort_keys=True) + "\n")
    return verdicts


def _run_accept(cfg: ExperimentConfig,
                rng: np.random.Generator) -> list[Verdict]:
    chosen = sorted(acceptance.CRITERIA) if cfg.params["suites"] == "all" \
        else [s.strip() for s in cfg.params["suites"].split(",")]
    # every id is checked before any criterion runs
    acceptance.check_criterion_ids(chosen)
    return acceptance.fan_out(acceptance.run_criterion, chosen,
                              threads=cfg.threads)


_HANDLERS: dict[str, Callable[[ExperimentConfig, np.random.Generator],
                              list[Verdict]]] = {
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
        verdicts = [Verdict.judge(f"{config.experiment}-error", False,
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


#: each experiment's subcommand help, and its ``--out`` help if it has one
_COMMANDS: dict[str, tuple[str, str | None]] = {
    "regions": ("exact exponent-square geometry", "figure-data JSON path"),
    "symbols": ("symbol identity spot checks", None),
    "spectral": ("grid transform sanity checks", None),
    "normest": ("scaling-law fits for norm bounds", "CSV path"),
    "lowerbound": ("resonant-set witness profile", "CSV path"),
    "identities": ("distribution identity batteries", "results JSON path"),
    "accept": ("run acceptance criteria", None),
}
#: the argparse settings of the options that need any; a handler refuses a
#: value off ``choices`` too, since a config file does not pass the parser
_OPTIONS: dict[str, dict[str, Any]] = {
    "n": {"help": "points per axis (0 = dimension default)"},
    "point": {"help": "exponent point as rational '1/p,1/q'"},
    "kind": {"choices": sorted(_NORMEST_KINDS)},
    "suite": {"choices": sorted([*_PAIRING_SUITES, "kelvin"])},
    "suites": {"nargs": "*", "help": "criterion ids (default: all)"},
}


def _build_parser() -> argparse.ArgumentParser:
    """The ``carlab`` parser.  An option left off the command line is absent
    from its namespace: `_SCHEMAS` and `ExperimentConfig` hold the defaults."""
    parser = argparse.ArgumentParser(
        prog="carlab",
        description="Numerical laboratory for a degenerate-sphere multiplier",
        argument_default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int,
                        help="seed for the counter-based generator")
    parser.add_argument("--out-dir",
                        help="directory for reports and artifacts")
    parser.add_argument("--threads", type=int,
                        help="parallel workers for independent sub-runs")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, schema in _SCHEMAS.items():
        help_text, out_help = _COMMANDS[experiment]
        p = sub.add_parser(experiment, help=help_text,
                           argument_default=argparse.SUPPRESS)
        for name, (caster, _) in schema.items():
            flag = name if experiment == "accept" else f"--{name}"
            p.add_argument(flag, type=caster, **_OPTIONS.get(name, {}))
        if out_help:
            p.add_argument("--out", help=out_help)
    p = sub.add_parser("run", help="execute a saved config file")
    p.add_argument("--config", required=True)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config a command line names: a subcommand's options, or ``run
    --config``'s file with each global flag given on the line laid over it."""
    data = dict(vars(args))
    if data["experiment"] == "run":
        with open(data.pop("config"), encoding="utf-8") as handle:
            saved = json.load(handle)
        if not isinstance(saved, dict):
            raise ValueError(f"a config file must hold a JSON object; "
                             f"got {type(saved).__name__}")
        data = {**saved,
                **{k: v for k, v in data.items() if k != "experiment"}}
    elif "suites" in data:
        data["suites"] = ",".join(data["suites"])
    return ExperimentConfig.from_mapping(data)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (OSError, ValueError) as exc:  # an unreadable or bad config
        parser.error(str(exc))
    report = run(config)
    for v in report.verdicts:
        print(v.line)
    print(f"report: {os.path.join(config.out_dir, config.experiment)}"
          f"_report.json ({report.wall_seconds:.1f}s, fingerprint "
          f"{report.fingerprint})")
    return 0 if report.all_green else 1


if __name__ == "__main__":
    sys.exit(main())
