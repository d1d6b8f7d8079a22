"""Config round-trips, report plumbing, CSV contracts, exit codes."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import acceptance, cli
from carlab.bump import bump_fingerprint
from carlab.cli import (ExperimentConfig, RunReport, main, parse_eps_range,
                        run)
from carlab.spectral import default_grid


def test_parse_eps_range_forms():
    assert parse_eps_range("2^-4..2^-6") == [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    assert parse_eps_range("2^-5") == [2.0 ** -5]
    assert parse_eps_range("2^-3,2^-5") == [2.0 ** -3, 2.0 ** -5]
    assert parse_eps_range("1/8") == [0.125]
    with pytest.raises(ValueError):
        parse_eps_range("")
    with pytest.raises(ValueError):
        parse_eps_range("0.3..0.1")
    assert parse_eps_range("2^-1074") == [5e-324]
    for text in ("2^-1100", "2^1100", "2^-4..2^-1100", "2^-3,2^1024"):
        with pytest.raises(ValueError, match="overflows"):
            parse_eps_range(text)


@pytest.mark.parametrize("text, token", [
    ("1/0", "1/0"), ("1e400", "1e400"), ("2^-3,-2/0", "-2/0"),
    ("1e400..2^-3", "1e400")])
def test_a_fraction_that_divides_by_zero_or_overflows_is_refused(text, token):
    # as a ValueError naming the token, not a ZeroDivisionError or an
    # OverflowError from the float conversion
    with pytest.raises(ValueError, match=f"'{token}' divides by zero or "
                                         f"overflows"):
        parse_eps_range(text)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_parse_eps_octave_spans(m0, m1):
    got = parse_eps_range(f"2^{m0}..2^{m1}")
    assert got[0] == 2.0 ** m0 and got[-1] == 2.0 ** m1
    assert len(got) == abs(m1 - m0) + 1
    ratio = 2.0 if m1 >= m0 else 0.5
    assert all(b == a * ratio for a, b in zip(got, got[1:]))


_EPS_TOKENS = st.one_of(
    st.integers(-40, 40).map(lambda m: f"2^{m}"),
    st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    .map(lambda pq: f"{pq[0]}/{pq[1]}"))


@given(st.lists(_EPS_TOKENS, min_size=1, max_size=8))
def test_parse_eps_comma_lists_keep_their_order(tokens):
    want = [2.0 ** int(tok[2:]) if tok.startswith("2^")
            else float(Fraction(tok)) for tok in tokens]
    assert parse_eps_range(",".join(tokens)) == want


_CASTER_VALUES = {
    int: st.integers(-10 ** 6, 10 ** 6),
    str: st.text(max_size=12),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


@st.composite
def _configs(draw):
    experiment = draw(st.sampled_from(sorted(cli._SCHEMAS)))
    schema = cli._SCHEMAS[experiment]
    names = draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
    data = {name: draw(_CASTER_VALUES[schema[name][0]]) for name in names}
    data.update(experiment=experiment, seed=draw(st.integers(0, 2 ** 64 - 1)),
                out=draw(st.text(max_size=8)),
                out_dir=draw(st.text(max_size=8)),
                threads=draw(st.integers(1, 64)))
    return data


@settings(max_examples=200)
@given(_configs())
def test_every_config_round_trips_through_json(data):
    cfg = ExperimentConfig.from_mapping(data)
    text = cfg.to_json()
    again = ExperimentConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text
    assert again.digest == cfg.digest
    for name, value in data.items():
        if name in cli._SCHEMAS[cfg.experiment]:
            assert again.params[name] == value


def test_config_round_trips_bit_identically():
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "normest", "kind": "me_knapp", "d": 3, "k": 1,
         "eps": "2^-3..2^-6", "point": "3/4,1/4", "seed": 11})
    text = cfg.to_json()
    again = ExperimentConfig.from_json(text)
    assert again.to_json() == text
    assert again.digest == cfg.digest


def test_integral_floats_are_integers_in_a_config():
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "symbols", "d": 5.0, "k": 2.0, "points": 1e2,
         "seed": 7.0, "threads": 2.0})
    got = {name: cfg.to_mapping()[name]
           for name in ("d", "k", "points", "seed", "threads")}
    assert got == {"d": 5, "k": 2, "points": 100, "seed": 7, "threads": 2}
    assert all(type(value) is int for value in got.values())


def test_unknown_key_rejected_by_name():
    with pytest.raises(ValueError, match="grud"):
        ExperimentConfig.from_mapping({"experiment": "regions", "grud": 1})


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="nosuch"):
        ExperimentConfig.from_mapping({"experiment": "nosuch"})


def test_rational_point_strings_survive():
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "normest", "point": "7/8,3/40"})
    assert cfg.params["point"] == "7/8,3/40"
    assert json.loads(cfg.to_json())["point"] == "7/8,3/40"


def test_regions_run_writes_report(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "regions", "d": 7, "k": 2, "out": "fig.json",
         "out_dir": str(tmp_path)})
    report = run(cfg)
    assert isinstance(report, RunReport)
    assert report.all_green
    assert report.fingerprint == bump_fingerprint()
    on_disk = json.loads((tmp_path / "regions_report.json").read_text())
    assert on_disk["bump_fingerprint"] == bump_fingerprint()
    assert on_disk["config"]["d"] == 7
    assert {v["status"] for v in on_disk["verdicts"]} == {"pass"}
    fig = json.loads((tmp_path / "fig.json").read_text())
    assert fig["points"]["G"]["x"] == "55/84"


def test_same_seed_reproduces_measures(tmp_path):
    base = {"experiment": "symbols", "d": 3, "k": 1, "points": 800,
            "seed": 42, "out_dir": str(tmp_path)}
    first = run(ExperimentConfig.from_mapping(base))
    second = run(ExperimentConfig.from_mapping(base))
    for a, b in zip(first.verdicts, second.verdicts):
        assert a.measures == b.measures
        assert a.detail == b.detail


def test_symbols_rejects_an_eps_range_before_any_symbol(tmp_path,
                                                       monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was evaluated")

    monkeypatch.setattr(acceptance, "symbol_errors", refuse)
    for eps in ("2^-3..2^-6", "2^-3,2^-5"):
        report = run(ExperimentConfig.from_mapping(
            {"experiment": "symbols", "eps": eps, "out_dir": str(tmp_path)}))
        verdict, = report.verdicts
        assert verdict.id == "symbols-error" and verdict.status == "fail"
        assert "one eps scale" in verdict.detail


def test_symbols_rejects_points_below_one_before_any_symbol(tmp_path,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was evaluated")

    monkeypatch.setattr(acceptance, "symbol_errors", refuse)
    for points in ("0", "-3"):
        assert main(["--out-dir", str(tmp_path), "symbols",
                     "--points", points]) == 1
        report = json.loads((tmp_path / "symbols_report.json").read_text())
        verdict, = report["verdicts"]
        assert verdict["id"] == "symbols-error"
        assert "points must be >= 1" in verdict["detail"]


def test_lowerbound_csv_contract(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "lowerbound", "d": 5, "k": 2, "eps": "2^-4,2^-5",
         "out": "lb.csv", "out_dir": str(tmp_path)})
    report = run(cfg)
    assert report.all_green
    lines = (tmp_path / "lb.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert cfg.digest in lines[0]
    assert "units:" in lines[0]
    assert lines[1] == "eps,y_abs,t,abs_mtf,scaled_abs_mtf,in_resonant_set"
    assert len(lines) > 2
    first = lines[2].split(",")
    assert float(first[0]) == 2.0 ** -4
    assert first[5] in ("0", "1")


def test_lowerbound_names_scales_without_resonant_samples(tmp_path,
                                                          monkeypatch):
    # no sample at 2^-5 lies in the resonant set; at 2^-4 all are zero
    monkeypatch.setattr(acceptance, "in_resonant_set",
                        lambda params, y: params.eps != 2.0 ** -5)
    monkeypatch.setattr(acceptance, "mtilde_radial",
                        lambda d, k, eps, spec, y, t:
                        0.0 if eps == 2.0 ** -4 else 1.0)
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "lowerbound", "d": 5, "k": 2,
         "eps": "2^-4,2^-5,2^-6", "out": "lb.csv",
         "out_dir": str(tmp_path)})
    (verdict,) = run(cfg).verdicts
    assert verdict.id == "lowerbound-band"
    assert verdict.status == "fail"
    assert verdict.detail == ("no positive resonant-set sample at "
                              "eps = 0.0625, 0.03125")
    assert (tmp_path / "lb.csv").exists()


def test_lowerbound_rejects_a_bad_scale_before_any_evaluation(tmp_path,
                                                              monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "mtilde_radial",
                        lambda *args: calls.append(args) or 1.0)
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "lowerbound", "eps": "2^-8..2^-2", "out": "lb.csv",
         "out_dir": str(tmp_path)})  # 2^-2 has no resonant window
    (verdict,) = run(cfg).verdicts
    assert verdict.id == "lowerbound-error"
    assert verdict.status == "fail"
    assert verdict.detail.startswith("EmptyWindowError(")
    assert calls == []
    assert not (tmp_path / "lb.csv").exists()


@pytest.mark.parametrize("eps", ["2^-4..2^-4", "2^-4,2^-4"])
def test_lowerbound_skips_one_scale_before_any_centre(tmp_path, capsys,
                                                      monkeypatch, eps):
    # a band over one distinct scale compares that scale with itself
    calls = []
    monkeypatch.setattr(acceptance, "frak_s_sample",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(acceptance, "mtilde_radial",
                        lambda *args: calls.append(args) or 1.0)
    rc = main(["--out-dir", str(tmp_path), "lowerbound", "--eps", eps,
               "--out", "lb.csv"])
    out = capsys.readouterr().out
    assert rc == 0  # a skip is not a failure
    assert "lowerbound-band SKIP" in out
    assert "a band needs at least 2 scales, got 1" in out
    assert calls == []
    assert not (tmp_path / "lb.csv").exists()


def test_lowerbound_judges_a_repeated_scale_once(tmp_path, monkeypatch):
    # a repeated scale is one scale of the band, evaluated once
    calls = []
    monkeypatch.setattr(acceptance, "mtilde_radial",
                        lambda d, k, eps, spec, y, t: calls.append((eps, y))
                        or 1.0)
    details = []
    for eps in ("2^-5,2^-4,2^-5", "2^-5,2^-4"):
        (verdict,) = run(ExperimentConfig.from_mapping(
            {"experiment": "lowerbound", "eps": eps,
             "out_dir": str(tmp_path)})).verdicts
        details.append((verdict.detail, calls[:]))
        calls.clear()
    assert details[0] == details[1]
    assert details[0][0].endswith("band over 2 scales (tol 2)")


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_lowerbound_refuses_a_non_finite_time_before_any_centre(
        tmp_path, monkeypatch, t):
    calls = []
    monkeypatch.setattr(acceptance, "frak_s_sample",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(acceptance, "mtilde_radial",
                        lambda *args: calls.append(args) or 1.0)
    (verdict,) = run(ExperimentConfig.from_mapping(
        {"experiment": "lowerbound", "t": float(t),
         "out_dir": str(tmp_path)})).verdicts
    assert (verdict.id, verdict.status) == ("lowerbound-error", "fail")
    assert "need a finite time t" in verdict.detail
    assert calls == []


def test_a6_and_lowerbound_share_one_resonant_scan(tmp_path, monkeypatch):
    calls = []
    real = acceptance.mtilde_radial

    def counted(d, k, eps, spec, y, t):
        value = real(d, k, eps, spec, y, t)
        calls.append((eps, y, value))
        return value

    monkeypatch.setattr(acceptance, "mtilde_radial", counted)
    a6 = acceptance.run_criterion("A6")
    a6_calls = calls[:]
    calls.clear()
    (verdict,) = run(ExperimentConfig.from_mapping(
        {"experiment": "lowerbound", "out_dir": str(tmp_path)})).verdicts
    assert a6.status == verdict.status == "pass"
    assert len(a6_calls) == 40  # the window centres at 2^-4..2^-8
    assert calls == a6_calls
    assert a6.detail.startswith(verdict.detail + ", slope ")
    # the band as A6 computed it before the scan was shared
    mins = {}
    for eps, _, value in a6_calls:
        mins[eps] = min(mins.get(eps, math.inf), abs(value))
    normalized = [eps ** (2 - 5 / 2.0) * v for eps, v in mins.items()]
    assert verdict.measures["band"] == max(normalized) / min(normalized)


def test_accept_rejects_an_unknown_id_before_any_criterion(tmp_path,
                                                          monkeypatch):
    ran = []
    for cid, (name, _, budget) in list(acceptance.CRITERIA.items()):
        monkeypatch.setitem(acceptance.CRITERIA, cid,
                            (name, lambda *a, cid=cid: ran.append(cid)
                             or (True, "ran"), budget))
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "accept", "suites": "A1,A0,A2",
         "out_dir": str(tmp_path)})
    (verdict,) = run(cfg).verdicts
    assert ran == []
    assert verdict.id == "accept-error"
    assert verdict.status == "fail"
    assert "'A0'" in verdict.detail


def test_report_verdicts_carry_exactly_four_keys(tmp_path):
    configs = [{"experiment": "regions", "d": 5, "k": 2},
               {"experiment": "spectral", "d": 1, "n": 64},
               {"experiment": "accept", "suites": "A1"},
               {"experiment": "identities", "suite": "nosuch"}]
    for data in configs:
        run(ExperimentConfig.from_mapping({**data, "out_dir": str(tmp_path)}))
        report = json.loads(
            (tmp_path / f"{data['experiment']}_report.json").read_text())
        assert report["verdicts"]
        for v in report["verdicts"]:
            assert set(v) == {"id", "status", "detail", "measures"}
            assert v["status"] in ("pass", "fail", "skip")
            assert all(isinstance(x, float) and math.isfinite(x)
                       for x in v["measures"].values())


def test_normest_error_surfaces_as_failing_verdict(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "normest", "kind": "l2_ring", "eps": "2^-3",
         "out_dir": str(tmp_path)})  # ring validation fails at this scale
    report = run(cfg)
    assert not report.all_green
    assert report.verdicts[0].status == "fail"


def test_normest_rejects_a_ring_dimension_before_any_lattice(tmp_path,
                                                              monkeypatch):
    built = []
    monkeypatch.setattr(acceptance, "ring_grid", lambda *a: built.append(a))
    rc = main(["--out-dir", str(tmp_path), "normest", "--kind", "l2_ring",
               "--d", "5", "--eps", "2^-6"])
    report = json.loads((tmp_path / "normest_report.json").read_text())
    assert rc != 0 and built == []
    (verdict,) = report["verdicts"]
    assert verdict["status"] == "fail"
    assert "d = 5" in verdict["detail"]


def test_normest_refuses_ring_scale_ranges_before_any_lattice(tmp_path,
                                                              monkeypatch):
    built = []
    monkeypatch.setattr(acceptance, "ring_grid", lambda *a: built.append(a))
    for eps in ("2^-3..2^-6", "2^-5,2^-6"):
        report = run(ExperimentConfig.from_mapping(
            {"experiment": "normest", "kind": "l2_ring", "eps": eps,
             "out_dir": str(tmp_path)}))
        verdict, = report.verdicts
        assert verdict.id == "normest-error" and verdict.status == "fail"
        assert "one eps scale" in verdict.detail
    assert built == []


def test_the_ring_fit_reads_no_exponent_point(tmp_path, monkeypatch):
    # the ring law is L^2 -> L^6 at every point; a point the fit never reads
    # is not parsed, while a Knapp fit still refuses a malformed one
    fits = []

    def ring_fit(d, k, eps, seed):
        fits.append((d, k, eps, seed))
        return acceptance.SlopeCheck(
            acceptance.fit_scaling([1.0, 2.0], [1.0, 2.0]), 1.0, 0.2)
    monkeypatch.setattr(acceptance, "ring_fit", ring_fit)
    rc = main(["--out-dir", str(tmp_path), "normest", "--kind", "l2_ring",
               "--eps", "2^-6", "--point", "3/4"])
    assert rc == 0 and fits == [(3, 1, 2.0 ** -6, 0)]
    (verdict,) = run(ExperimentConfig.from_mapping(
        {"experiment": "normest", "kind": "tilde_knapp", "point": "3/4",
         "out_dir": str(tmp_path)})).verdicts
    assert (verdict.id, verdict.status) == ("normest-error", "fail")
    assert "expected two rationals" in verdict.detail


def test_normest_rejects_an_oversized_witness_before_allocating_it(
        tmp_path, monkeypatch):
    # d = 37 needs a radial axis of 35 dimensions, past the Bessel orders;
    # d = 5 and 7, refused on the Cartesian lattice, now run
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert math.prod(np.atleast_1d(shape)) < 2 ** 20, "lattice allocated"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    rc = main(["--out-dir", str(tmp_path), "normest", "--kind", "me_knapp",
               "--d", "37"])
    report = json.loads((tmp_path / "normest_report.json").read_text())
    assert rc != 0
    (verdict,) = report["verdicts"]
    assert (verdict["id"], verdict["status"]) == ("normest-error", "fail")
    assert "<= 16, got d = 37, m = 35" in verdict["detail"]


def test_a_lattice_axis_that_is_not_a_power_of_two_is_refused(tmp_path,
                                                               capsys):
    for build in (lambda: default_grid(2, n=100),
                  lambda: acceptance.ring_grid(0, 100, 16)):
        with pytest.raises(ValueError, match="100 is not a power of two"):
            build()
    rc = main(["--out-dir", str(tmp_path), "spectral", "--n", "100"])
    report = json.loads((tmp_path / "spectral_report.json").read_text())
    assert rc != 0
    assert [(v["id"], v["status"]) for v in report["verdicts"]] == \
        [("spectral-error", "fail")]
    assert "not a power of two" in report["verdicts"][0]["detail"]


def test_spectral_transforms_its_field_forward_once(tmp_path, monkeypatch):
    calls = []
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    report = run(ExperimentConfig.from_mapping(
        {"experiment": "spectral", "d": 3, "n": 32, "out_dir": str(tmp_path)}))
    assert report.all_green
    assert len(calls) == 1


def test_spectral_holds_one_full_size_array(tmp_path):
    # the noise is drawn by slices into one work array, transformed and
    # inverted in place, and re-drawn by slices from saved generator states;
    # the sums run a slice at a time
    import tracemalloc
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "spectral", "d": 3, "n": 64, "out_dir": str(tmp_path)})

    def check():
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        return cli._run_spectral(cfg, rng)

    assert all(v.status == "pass" for v in check())  # FFT plans built here
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        check()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * 64 ** 3


def _two_array_round_trip(d, n, seed):
    """The round trip and Parseval ``rel_err``s with the drawn noise kept
    beside a work array, the oracle for the one-array check."""
    rng = np.random.Generator(np.random.Philox(seed))
    grid = default_grid(d, n=n)
    shape, cell = grid.shape, grid.cell_volume
    noise = np.empty(shape, complex)
    for part in (noise.real, noise.imag):
        for i in range(shape[0]):
            part[i] = rng.standard_normal(shape[1:])
    work = np.empty_like(noise)
    np.fft.fftn(noise, out=work)
    work *= cell
    freq_cell = math.prod(2.0 * math.pi / p for p in grid.periods)
    e_freq = (math.fsum(np.sum(np.abs(x) ** 2) for x in work)
              * freq_cell * (2.0 * math.pi) ** -d)
    work /= cell
    np.fft.ifftn(work, out=work)
    rt = (max(float(np.abs(b - f).max()) for b, f in zip(work, noise))
          / max(float(np.abs(f).max()) for f in noise))
    e_space = math.fsum(np.sum(np.abs(f) ** 2) for f in noise) * cell
    return rt, abs(e_space - e_freq) / e_space


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("d, n", [(1, 64), (2, 64), (3, 32)])
def test_spectral_matches_the_two_array_round_trip_bit_for_bit(tmp_path, d,
                                                               n, seed):
    report = run(ExperimentConfig.from_mapping(
        {"experiment": "spectral", "d": d, "n": n, "seed": seed,
         "out_dir": str(tmp_path)}))
    assert [(v.id, v.status) for v in report.verdicts] == \
        [("spectral-roundtrip", "pass"), ("spectral-parseval", "pass")]
    got = tuple(v.measures["rel_err"] for v in report.verdicts)
    assert got == _two_array_round_trip(d, n, seed)


def test_spectral_refuses_a_lattice_of_no_axes(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "spectral", "--d", "0"])
    report = json.loads((tmp_path / "spectral_report.json").read_text())
    assert rc != 0
    (verdict,) = report["verdicts"]
    assert (verdict["id"], verdict["status"]) == ("spectral-error", "fail")
    assert verdict["detail"].startswith("ValueError(")
    assert "got d = 0" in verdict["detail"]


def test_normest_skips_on_two_octaves(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "normest", "--kind", "me_knapp",
               "--eps", "2^-3..2^-4"])
    out = capsys.readouterr().out
    assert rc == 0  # a skip is not a failure
    assert "normest-me_knapp SKIP" in out
    assert "insufficient octaves" in out


def test_cli_regions_exit_code(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "regions", "--d", "5",
               "--k", "2"])
    assert rc == 0
    assert "regions-exact PASS" in capsys.readouterr().out


def test_run_config_file_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "regions", "d": 9, "k": 3,
         "out_dir": str(tmp_path)}))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    report = json.loads((tmp_path / "regions_report.json").read_text())
    assert report["config"]["d"] == 9


@pytest.mark.parametrize("experiment", sorted(cli._SCHEMAS))
def test_an_experiment_without_options_parses_to_the_schema_defaults(
        experiment):
    args = cli._build_parser().parse_args([experiment])
    assert vars(args) == {"experiment": experiment}
    # the schema's params, and the dataclass defaults for the common keys
    assert cli.config_from_args(args) == ExperimentConfig(experiment)


def test_run_config_takes_the_global_flags_given_on_the_line(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"experiment": "regions", "out_dir": "elsewhere", "seed": 5,
         "threads": 3}))
    assert main(["run", "--config", "cfg.json"]) == 0
    kept = json.loads((tmp_path / "elsewhere" / "regions_report.json")
                      .read_text())["config"]
    assert (kept["seed"], kept["threads"]) == (5, 3)
    assert main(["--out-dir", ".", "--seed", "0", "--threads", "1", "run",
                 "--config", "cfg.json"]) == 0
    given = json.loads((tmp_path / "regions_report.json").read_text())
    assert given["config"]["out_dir"] == "."
    assert (given["config"]["seed"], given["config"]["threads"]) == (0, 1)


@pytest.mark.parametrize("argv, message", [
    (["--threads", "0", "regions"], "threads must be >= 1"),
    (["--seed", "-1", "regions"], "seed must fit"),
])
def test_bad_command_line_values_exit_through_the_parser(argv, message,
                                                         capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[1]", "must hold a JSON object; got list"),
    ('"x"', "must hold a JSON object; got str"),
    (None, "No such file or directory"),
    ('{"experiment": "regions", "d": 5.5}', "d must be an integer, got 5.5"),
    ('{"experiment": "regions", "seed": 1.7}', "seed must be an integer"),
    ('{"experiment": "regions", "threads": 2.9}', "threads must be an "),
    ('{"experiment": "regions", "d": true}', "d must be an integer, got True"),
    ('{"experiment": "regions", "k": NaN}', "k must be an integer, got nan"),
    ('{"experiment": "spectral", "n": false}', "n must be an integer"),
    ('{"experiment": "symbols", "points": 10.5}', "points must be an "),
])
def test_a_bad_config_file_exits_through_the_parser(tmp_path, capsys, text,
                                                    message):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    with pytest.raises(SystemExit) as stop:
        main(["run", "--config", str(cfg_path)])
    assert stop.value.code == 2
    assert message in capsys.readouterr().err


def test_threads_accepted_for_parallel_suites(tmp_path, capsys):
    rc = main(["--threads", "2", "--out-dir", str(tmp_path),
               "accept", "A1", "A2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A1 PASS" in out and "A2 PASS" in out
