import json

import numpy as np
import pytest

import rhflow.flow
from rhflow.cli import main
from rhflow.runio import (ConfigError, load_config, parse_config, read_manifest,
                          read_series)
from rhflow.verification import run_verification

FLAT_CONFIG = """\
scenario: flat_stationary
n: 4
alpha: 1.0
t_end: 0.1
m: 16
dt: 2.0e-3
output_every: 10
snapshot_every: 20
"""

CYLINDER_CONFIG = """\
scenario: shrinking_cylinder
n: 4
alpha: 0.0
t_end: 0.3
m: 16
dt: 1.0e-3
blowup_threshold: 1.0e6
output_every: 10
snapshot_every: 100
params:
  psi0: 1.0
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_flat_scenario(tmp_path):
    cfg = write_config(tmp_path, FLAT_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    rows = read_series(out / "series.jsonl")
    assert len(rows) > 2
    assert all(row["min_s"] == 0.0 and row["max_rm"] == 0.0 for row in rows)
    manifest = read_manifest(out / "manifest.json")
    assert manifest["termination"] == "reached_t_end"


def test_manifest_lists_every_emitted_file(tmp_path):
    cfg = write_config(tmp_path, FLAT_CONFIG)
    out = tmp_path / "out"
    main(["run", str(cfg), "-o", str(out)])
    manifest = read_manifest(out / "manifest.json")
    emitted = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert sorted(manifest["files"]) == emitted


def test_run_cylinder_blowup(tmp_path):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    manifest = read_manifest(out / "manifest.json")
    assert manifest["termination"] == "blowup_threshold"
    assert abs(manifest["summary"]["final_t"] - 0.25) <= 0.01 * 0.25


def test_missing_alpha_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario: flat_stationary\nn: 4\nt_end: 0.1\n")
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert "alpha" in capsys.readouterr().err


def test_unknown_field_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_CONFIG + "coupling: 2.0\n")
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert "coupling" in capsys.readouterr().err


def test_yaml_error_reports_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario: [unclosed\nn: 4\n")
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert "YAML" in capsys.readouterr().err


def test_parse_config_validation():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"n": 4, "alpha": 1.0, "t_end": 1.0})
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config({"scenario": "x", "n": 4, "alpha": 1.0, "t_end": 1.0})
    with pytest.raises(ConfigError, match="amplitude"):
        parse_config({"scenario": "perturbed_torus", "n": 2, "alpha": 1.0,
                      "t_end": 1.0, "params": {"amplitude": 2.0}})
    with pytest.raises(ConfigError, match="homogeneous"):
        parse_config({"scenario": "perturbed_torus", "n": 2, "alpha": 1.0,
                      "t_end": 1.0, "representation": "homogeneous",
                      "params": {"amplitude": 0.1}})
    for scenario, n in (("torus_list", 3), ("perturbed_torus", 5), ("flat_stationary", 1)):
        with pytest.raises(ConfigError, match=f"needs n .* got n={n}"):
            parse_config({"scenario": scenario, "n": n, "alpha": 1.0, "t_end": 1.0})
    for scenario, param in (("perturbed_cylinder", "winding"), ("shrinking_cylinder", "a0")):
        with pytest.raises(ConfigError, match=f"does not read parameter '{param}'"):
            parse_config({"scenario": scenario, "n": 4, "alpha": 1.0, "t_end": 1.0,
                          "params": {param: 3}})
    raw = {"scenario": "shrinking_cylinder", "n": 4, "alpha": 1.0, "t_end": 1.0}
    for key, value in (("n", 4.9), ("m", 16.7), ("output_every", 2.5)):
        with pytest.raises(ConfigError, match=f"'{key}' must be a whole number"):
            parse_config(dict(raw, **{key: value}))
    for key in ("alpha", "output_every"):
        with pytest.raises(ConfigError, match=f"'{key}' must be a number, got True"):
            parse_config(dict(raw, **{key: True}))
    with pytest.raises(ConfigError, match=r"snapshot_every \(15\) must be a multiple "
                                          r"of output_every \(10\)"):
        parse_config(dict(raw, output_every=10, snapshot_every=15))


@pytest.mark.parametrize("text", [
    "scenario: torus_list\nn: 3\nalpha: 1.0\nt_end: 0.1\n",
    "scenario: perturbed_cylinder\nn: 4\nalpha: 1.0\nt_end: 0.1\nparams:\n  winding: 3\n",
    CYLINDER_CONFIG.replace("blowup_threshold: 1.0e6", "blowup_threshold: 1.0"),
    FLAT_CONFIG.replace("snapshot_every: 20", "snapshot_every: 15"),
], ids=["torus_list_n3", "unread_winding", "threshold_below_initial_rm",
        "snapshots_off_the_record_cadence"])
def test_bad_scenario_input_exits_2_without_output(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "-o", str(out1)]) == 0
    assert main(["run", str(cfg), "-o", str(out2)]) == 0
    assert (out1 / "series.jsonl").read_bytes() == (out2 / "series.jsonl").read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    # interrupt mid-run (not on a record boundary), then resume
    assert main(["run", str(cfg), "-o", str(part), "--max-steps", "137"]) == 0
    assert not (part / "manifest.json").exists()
    assert main(["resume", str(part)]) == 0
    assert (part / "series.jsonl").read_bytes() == (full / "series.jsonl").read_bytes()
    assert read_manifest(part / "manifest.json")["termination"] == "blowup_threshold"


def test_resume_completed_run_is_noop(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_CONFIG)
    out = tmp_path / "out"
    main(["run", str(cfg), "-o", str(out)])
    before = (out / "series.jsonl").read_bytes()
    assert main(["resume", str(out)]) == 0
    assert "already complete" in capsys.readouterr().out
    assert (out / "series.jsonl").read_bytes() == before


def test_resume_corrupt_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    main(["run", str(cfg), "-o", str(out), "--max-steps", "50"])
    with np.load(out / "checkpoint.npz") as data:
        arrays = dict(data)
    arrays["mon"][2] = np.nan  # acc_r
    np.savez(out / "checkpoint.npz", **arrays)
    assert main(["resume", str(out)]) == 2
    assert "checkpoint error" in capsys.readouterr().err
    (out / "checkpoint.npz").write_bytes(b"not a checkpoint")
    assert main(["resume", str(out)]) == 2
    assert "checkpoint" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("edit, message", [
    (("m: 16", "m: 32"), "checkpoint error: checkpoint m 16 does not match config m 32"),
    (("n: 4", "n: 5"), "checkpoint error: checkpoint n 4 does not match config n 5"),
    (("alpha: 0.0", "alpha: 0.5"), "checkpoint error: checkpoint alpha 0.0"),
    (("blowup_threshold: 1.0e6", "blowup_threshold: 3.0"), "config error: blowup_threshold 3"),
    (("m: 16", "m: 16\nrepresentation: homogeneous"),
     "checkpoint error: checkpoint representation warped does not match "
     "config representation homogeneous"),
], ids=["m", "n", "alpha", "threshold_below_checkpoint_rm", "representation"])
def test_resume_refuses_config_contradicting_checkpoint(tmp_path, capsys, edit, message):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "10"]) == 0
    series = (out / "series.jsonl").read_bytes()
    config = out / "config.yaml"
    config.write_text(config.read_text().replace(*edit))
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert (out / "series.jsonl").read_bytes() == series
    assert not (out / "manifest.json").exists()


def test_verify_subset(tmp_path):
    out = tmp_path / "report"
    code = main(["verify", "--scenario", "torus_list", "-o", str(out)])
    assert code == 0
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"]
    assert all(row["scenario"] == "torus_list" for row in payload["rows"])


def test_verify_empty_scenario_set():
    report = run_verification([])
    assert report.rows == [] and report.all_passed


def test_verify_unknown_scenario(capsys):
    assert main(["verify", "--scenario", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_mutated_coupling_fails_volume_check(monkeypatch):
    # flipping the sign of the map coupling must break the volume identity
    monkeypatch.setattr(rhflow.flow, "_COUPLING_SIGN", -1.0)
    report = run_verification(["torus_list"])
    failed = {row.check for row in report.rows if not row.passed}
    assert "volume_residual" in failed


def test_converge_cylinder(tmp_path, capsys):
    out = tmp_path / "conv"
    assert main(["converge", "shrinking_cylinder", "-o", str(out)]) == 0
    payload = json.loads((out / "converge_shrinking_cylinder.json").read_text())
    study = payload["studies"][0]
    assert study["name"] == "temporal"
    assert study["order"] >= 3.8


def test_converge_flat_reports_exact(capsys):
    assert main(["converge", "flat_stationary"]) == 0
    assert "exact" in capsys.readouterr().out


def test_load_config_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, CYLINDER_CONFIG)
    config, scn, representation = load_config(cfg_path)
    assert config.scenario == "shrinking_cylinder"
    assert config.dt == pytest.approx(1e-3)
    assert scn.psi0 == 1.0
    assert representation == "warped"


def test_converge_reports_residual_order(tmp_path):
    out = tmp_path / "conv"
    assert main(["converge", "torus_list", "-o", str(out)]) == 0
    payload = json.loads((out / "converge_torus_list.json").read_text())
    by_name = {s["name"]: s for s in payload["studies"]}
    assert by_name["temporal"]["exact"]  # RK4 error at rounding level here
    assert by_name["s_residual"]["order"] >= 1.9


SPHERE_CONFIG = """\
scenario: shrinking_sphere
n: 3
alpha: 0.0
t_end: 0.3
dt: 1.0e-3
blowup_threshold: 1.0e6
output_every: 10
snapshot_every: 50
"""


def test_homogeneous_run_and_resume(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CONFIG)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    manifest = read_manifest(full / "manifest.json")
    assert manifest["termination"] == "blowup_threshold"
    assert abs(manifest["summary"]["final_t"] - 0.25) <= 0.01 * 0.25

    assert main(["run", str(cfg), "-o", str(part), "--max-steps", "83"]) == 0
    assert main(["resume", str(part)]) == 0
    assert (part / "series.jsonl").read_bytes() == (full / "series.jsonl").read_bytes()
    resumed = read_manifest(part / "manifest.json")
    assert resumed["summary"]["records"] == manifest["summary"]["records"]
