"""Command-line interface behaviour."""

import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hcransim
from hcransim import load_config
from hcransim.cli import main


@pytest.fixture()
def tiny_cfg(tmp_path):
    payload = {
        "scenario": {"num_rrh": 10, "num_ue": 5, "coverage_radius": 130.0},
        "training": {"tau": 3, "coherence": 30},
        "sweep": {"name": "tau", "values": [3, 4]},
        "num_realizations": 2,
        "schedulers": ["psa"],
        "beamformers": ["rtd"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_mse_sweep_default_output(tiny_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["mse-sweep", "--config", str(tiny_cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"\d+ rows written to mse-sweep\.csv", out)
    lines = (tmp_path / "mse-sweep.csv").read_text().splitlines()
    assert lines[0] == "sweep_value,metric,mean,stderr,n"
    assert any("sum_mse_psa" in line for line in lines[1:])


def test_out_seed_and_realization_overrides(tiny_cfg, tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["mse-sweep", "--config", str(tiny_cfg), "--out", str(a)]) == 0
    assert main(["mse-sweep", "--config", str(tiny_cfg), "--out", str(b), "--seed", "5"]) == 0
    assert main(["mse-sweep", "--config", str(tiny_cfg), "--out", str(c),
                 "--realizations", "3", "--jobs", "2"]) == 0
    assert a.exists() and a.read_bytes() != b.read_bytes()
    assert all(line.endswith(",3") for line in c.read_text().splitlines()[1:])
    capsys.readouterr()


def test_se_sweep_and_tightness(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "se.csv"
    assert main(["se-sweep", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "sum_se_lb_psa_rtd" in text and "sum_se_mc_psa_rtd" in text

    tight_cfg = tmp_path / "tight.json"
    cfg = json.loads(tiny_cfg.read_text())
    cfg["sweep"] = {"name": "rrh_antennas", "values": [2, 4]}
    tight_cfg.write_text(json.dumps(cfg))
    out2 = tmp_path / "tight.csv"
    assert main(["tightness", "--config", str(tight_cfg), "--out", str(out2)]) == 0
    assert "rel_gap_rue" in out2.read_text()
    capsys.readouterr()


def test_tightness_rejects_bad_sweep(tiny_cfg, capsys):
    code = main(["tightness", "--config", str(tiny_cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tightness" in err


def test_schedule_stdout_and_assignment_dump(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "assignment.csv"
    code = main(["schedule", "--config", str(tiny_cfg), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"psa: tau=\d+ sum_mse=\d+\.\d{6}e[+-]\d+", lines[0])
    assert lines[1] == f"assignment written to {out}"
    dump = out.read_text().splitlines()
    assert dump[0] == "ue_id,type,pilot"
    assert len(dump) == 1 + 5


def test_solve_one_artifacts(tiny_cfg, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(["solve-one", "--config", str(tiny_cfg), "--out", str(out_dir)])
    assert code == 0
    assert "artifacts in" in capsys.readouterr().out
    names = {p.name for p in out_dir.iterdir()}
    assert names >= {"topology.csv", "assignment.csv", "rates.csv", "trace.csv"}


def test_solve_one_reports_a_pilot_overflow(tmp_path, capsys):
    """At master seed 12, realization 0 has all 12 users MBS-served, so the
    pilots fill the 11-symbol coherence block; solve-one says so."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": {"num_ue": 12, "num_rrh": 10, "coverage_radius": 60.0},
        "training": {"tau": 2, "coherence": 11},
        "sweep": {"name": "tau", "values": [2]},
    }))
    code = main(["solve-one", "--config", str(path), "--seed", "12", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: effective tau 12 (tau 2 lifted to the larger of the coloring number 0 and "
        "the MBS-served user count 12) reaches the coherence length 11\n"
    )


def test_bad_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scheduler": ["psa"]}))
    assert main(["mse-sweep", "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert main(["mse-sweep", "--config", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"sweep": {"values": 5}}, "'values'"),
        ({"schedulers": "psa"}, "'schedulers'"),
        ({"scenario": {"num_ue": "8"}}, "'num_ue'"),
        ({"scenario": {"num_rrh": 25.5}}, "'num_rrh'"),
        ({"scenario": [25]}, "'scenario'"),
        ({"num_realizations": None}, "'num_realizations'"),
        ({"training": {"tau": None}}, "'tau'"),
        ({"budgets": {"rrh_dbm": None}}, "'rrh_dbm'"),
        # Numbers are never coerced to the field's type.
        ({"num_realizations": 2.7}, "'num_realizations'"),
        ({"training": {"tau": 4.5}}, "'tau'"),
        ({"master_seed": "12"}, "'master_seed'"),
        ({"jobs": True}, "'jobs'"),
        ({"training": {"p_rue": "1e-3"}}, "'p_rue'"),
        ({"budgets": {"mbs": False}}, "'mbs'"),
        ({"sweep": {"name": ["tau"]}}, "'name'"),
        ({"sweep": {"name": "tau", "values": [3, 4.5]}}, "'values'"),
        ({"sweep": {"name": "coverage_radius", "values": ["100"]}}, "'values'"),
        ({"output_path": ["out.csv"]}, "'output_path'"),
        # json.dumps writes these as JSON NaN
        ({"training": {"p_rue": float("nan")}}, "p_rue must be finite"),
        ({"scenario": {"coverage_radius": float("nan")}}, "coverage_radius must be finite"),
        # Every sweep value's configs are checked before any realization runs
        # (defaults: 8 users, tau 5, coherence 50).
        ({"sweep": {"name": "tau", "values": [3, 50]}}, "need 0 < tau < coherence"),
        ({"sweep": {"name": "tau", "values": [3, 9]}}, "tau cannot exceed the UE count"),
        ({"sweep": {"name": "num_ue", "values": [8, 4]}}, "tau cannot exceed the UE count"),
    ],
)
def test_malformed_config_values_report_errors(tmp_path, capsys, payload, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["mse-sweep", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_integer_output_path_is_rejected_not_opened_as_a_descriptor(tmp_path, capsys):
    """``open(7, "w")`` would write the CSV to file descriptor 7: an integer
    output path is a config error, and nothing reaches the descriptor."""
    read_end, write_end = os.pipe()
    try:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"output_path": write_end, "num_realizations": 1, "sweep": {"values": [3]}}
        ))
        assert main(["mse-sweep", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'output_path'" in err
    finally:
        with contextlib.suppress(OSError):  # already closed if it was opened
            os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        assert fh.read() == b""


def _set_quadrature_count(path):
    cfg = json.loads(path.read_text())
    cfg["mc_trials"] = 400
    path.write_text(json.dumps(cfg))


def test_a_config_that_sets_the_quadrature_count_is_rejected(tiny_cfg):
    """The exact-rate quadrature count is no longer a setting: a config file
    that still sets it, even to the default, fails the loader's unknown-key
    check by name."""
    _set_quadrature_count(tiny_cfg)
    with pytest.raises(ValueError, match=r"unknown config keys: \['mc_trials'\]"):
        load_config(tiny_cfg)


def test_se_sweep_rejects_a_config_that_sets_the_quadrature_count(tiny_cfg, tmp_path, capsys):
    """The CLI reports the removed key by name and exits 1 before any CSV is
    written."""
    _set_quadrature_count(tiny_cfg)
    out = tmp_path / "se.csv"
    assert main(["se-sweep", "--config", str(tiny_cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mc_trials" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_se_sweep_rejects_non_finite_budgets(tiny_cfg, tmp_path, capsys, value):
    cfg = json.loads(tiny_cfg.read_text())
    cfg["budgets"] = {"rrh": value}
    tiny_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "se.csv"
    assert main(["se-sweep", "--config", str(tiny_cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


def test_console_script_entry_point(tiny_cfg):
    # The child imports the package under test, installed or not.
    path = [str(Path(hcransim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "hcransim.cli", "schedule", "--config", str(tiny_cfg)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("psa: tau=")
