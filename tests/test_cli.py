"""The hybridsim command: run, campaign, conformance."""

import csv
import json
import os

import pytest

from hybridsim.cli import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fly"])


def test_run_writes_metrics_json(tmp_path, capsys):
    out = str(tmp_path / "results")
    rc = main(["run", "--ses", "64", "--steps", "12", "--seed", "3",
               "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ses=64 lps=1 preset=good steps=12 seed=3" in text
    data = json.loads((tmp_path / "results" / "run.json").read_text())
    assert data["num_entities"] == 64
    assert data["total_timesteps"] == 12
    assert data["master_seed"] == 3
    assert data["config"]["preset"] == "good"


def test_run_hybrid_reports_wrappers(tmp_path, capsys):
    out = str(tmp_path / "results")
    rc = main(["run", "--ses", "64", "--steps", "12", "--seed", "3",
               "--spawn-at", "5", "--transfer-count", "4", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "wrappers=1 transferred=4" in text
    data = json.loads((tmp_path / "results" / "run.json").read_text())
    assert data["level1"]["spawns"] == 1
    assert data["level1"]["entities_transferred"] == 4


def test_run_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("ses = 64\nsteps = 10\nseed = 4\n"
                    f"out = {tmp_path / 'a'}\n")
    rc = main(["run", "--config", str(conf), "--seed", "9"])
    assert rc == 0
    data = json.loads((tmp_path / "a" / "run.json").read_text())
    assert data["master_seed"] == 9  # flag beat the file
    assert data["num_entities"] == 64


def test_run_rejects_sweep_values(capsys):
    rc = main(["run", "--ses", "100,200"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flag_value_is_a_config_error(capsys):
    rc = main(["run", "--steps", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'steps'" in err and "integer >= 1" in err


def test_seed_outside_63_bits_is_a_config_error(capsys):
    # 2**64 + 1 once ran seed 1's physics; 2**63 and up once shared keys
    for seed in (2**64 + 1, 2**63):
        rc = main(["run", "--ses", "10", "--steps", "2", "--seed", str(seed)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'seed'")
        assert "[0, 2**63)" in err and err.count("\n") == 1


def test_largest_seed_runs_alone_but_not_as_a_campaign(tmp_path, capsys):
    # a single run ignores repetitions (default 5); a campaign would run
    # seeds past 2**63 - 1, so it is refused before its first cell
    top = str(2**63 - 1)
    out = str(tmp_path / "out")
    rc = main(["run", "--ses", "10", "--steps", "2", "--seed", top,
               "--out", out])
    assert rc == 0
    capsys.readouterr()
    rc = main(["campaign", "--ses", "10", "--steps", "2", "--seed", top,
               "--repetitions", "2", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'seed'")
    assert "cell" not in err and err.count("\n") == 1


def test_infinite_barrier_timeout_is_a_config_error(tmp_path, capsys):
    # a process run once died in selectors with a raw OverflowError
    conf = tmp_path / "exp.conf"
    conf.write_text("ses = 20\nsteps = 2\nlps = 2\nmode = process\n"
                    "barrier_timeout = inf\n")
    rc = main(["run", "--config", str(conf)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'barrier_timeout'")
    assert "finite number > 0" in err and err.count("\n") == 1


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.conf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file")
    assert "nope.conf" in err and err.count("\n") == 1


def test_non_ascii_config_file_is_an_error_line(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_bytes("ses = 64  # \u00fcber\n".encode("utf-8"))
    rc = main(["run", "--config", str(conf)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-ASCII byte" in err
    assert "exp.conf:1" in err and err.count("\n") == 1


def test_more_lps_than_entities_is_an_error_line(capsys):
    rc = main(["run", "--ses", "64", "--lps", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: num_lps (100) exceeds entity count (64)\n"


def test_campaign_emits_csv(tmp_path, capsys):
    out = str(tmp_path / "camp")
    rc = main(["campaign", "--ses", "48", "--lps", "1,2", "--steps", "10",
               "--repetitions", "2", "--seed", "6", "--out", out])
    assert rc == 0
    captured = capsys.readouterr()
    assert "detail rows: 4" in captured.out
    assert "summary cells: 2" in captured.out
    with open(os.path.join(out, "detail.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["lps"] for r in rows} == {"1", "2"}
    assert {r["seed"] for r in rows} == {"6", "7"}
    # LP count must not leak into the physics
    by_lps = {}
    for r in rows:
        by_lps.setdefault(r["lps"], []).append(
            (r["seed"], r["generated"], r["delivered"], r["routed"]))
    assert by_lps["1"] == by_lps["2"]


def test_campaign_failure_exit_code(tmp_path, capsys):
    out = str(tmp_path / "camp")
    # lps 8 cannot host 4 entities; exit 1, failure named on stderr
    rc = main(["campaign", "--ses", "4", "--lps", "8", "--steps", "5",
               "--repetitions", "1", "--mode", "inprocess", "--out", out])
    assert rc == 1
    assert "FAILED cell ses=4 lps=8" in capsys.readouterr().err


def test_conformance_passes(capsys):
    rc = main(["conformance"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3 and "FAIL" not in out
