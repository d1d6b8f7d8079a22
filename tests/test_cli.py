"""Config round-trips, report plumbing, CSV contracts, exit codes."""
import json

import pytest

from carlab import cli
from carlab.bump import bump_fingerprint
from carlab.cli import (ExperimentConfig, RunReport, main, parse_eps_range,
                        run)


def test_parse_eps_range_forms():
    assert parse_eps_range("2^-4..2^-6") == [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    assert parse_eps_range("2^-5") == [2.0 ** -5]
    assert parse_eps_range("2^-3,2^-5") == [2.0 ** -3, 2.0 ** -5]
    assert parse_eps_range("1/8") == [0.125]
    with pytest.raises(ValueError):
        parse_eps_range("")
    with pytest.raises(ValueError):
        parse_eps_range("0.3..0.1")


def test_config_round_trips_bit_identically():
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "normest", "kind": "me_knapp", "d": 3, "k": 1,
         "eps": "2^-3..2^-6", "point": "3/4,1/4", "seed": 11})
    text = cfg.to_json()
    again = ExperimentConfig.from_json(text)
    assert again.to_json() == text
    assert again.digest == cfg.digest


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
    monkeypatch.setattr(cli, "in_resonant_set",
                        lambda params, y: params.eps != 2.0 ** -5)
    monkeypatch.setattr(cli, "mtilde_radial",
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


def test_normest_error_surfaces_as_failing_verdict(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "normest", "kind": "l2_ring", "eps": "2^-3",
         "out_dir": str(tmp_path)})  # ring validation fails at this scale
    report = run(cfg)
    assert not report.all_green
    assert report.verdicts[0].status == "fail"


def test_accept_skip_on_two_octaves(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "accept", "A5",
               "--eps", "2^-3..2^-4"])
    out = capsys.readouterr().out
    assert rc == 0  # a skip is not a failure
    assert "A5 SKIP" in out
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


def test_threads_accepted_for_parallel_suites(tmp_path, capsys):
    rc = main(["--threads", "2", "--out-dir", str(tmp_path),
               "accept", "A1", "A2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A1 PASS" in out and "A2 PASS" in out
