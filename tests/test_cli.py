import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rhflow.flow
from rhflow import runio
from rhflow.cli import main
from rhflow.flow import run
from rhflow.geometry import Grid
from rhflow.runio import (CheckpointError, ConfigError, load_config, load_snapshot,
                          parse_config, read_manifest, read_series)
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

# a shrinking cylinder run to blow-up at t = 1/4; tests/golden/rundir.json
# records its run directory
CYLINDER_CONFIG = (Path(__file__).with_name("golden") / "cylinder.yaml").read_text()


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def load_checkpoint(rundir):
    """runio.load_checkpoint of a run directory, read against its config."""
    return runio.load_checkpoint(rundir / "checkpoint.npz", *load_config(rundir / "config.yaml"))


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


def test_eps0_is_not_a_config_field(tmp_path, capsys):
    # the gradient-bound slack is the constant analysis.EPS0, not a setting
    cfg = write_config(tmp_path, CYLINDER_CONFIG + "eps0: 1.0e-8\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 2
    assert "config error: unknown config field 'eps0'" in capsys.readouterr().err
    assert not out.exists()


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
    # n and alpha are run fields, not scenario parameters; params entries
    # keep that label
    for key, value, message in (("alpha", True, "field 'alpha' must be a number, got True"),
                                ("n", "four", "field 'n' must be a number, got 'four'")):
        with pytest.raises(ConfigError) as err:
            parse_config(dict(raw, **{key: value}))
        assert str(err.value) == message
    with pytest.raises(ConfigError) as err:
        parse_config(dict(raw, params={"psi0": "abc"}))
    assert str(err.value) == ("invalid scenario parameters: "
                              "field 'psi0' must be a number, got 'abc'")
    with pytest.raises(ConfigError, match=r"snapshot_every \(15\) must be a multiple "
                                          r"of output_every \(10\)"):
        parse_config(dict(raw, output_every=10, snapshot_every=15))
    # nan and inf would run: no steps for t_end, no rate limit, no blow-up test
    for key, value in (("t_end", math.nan), ("t_end", math.inf), ("rate_limit", math.nan),
                       ("blowup_threshold", math.nan),
                       ("dt", math.nan), ("alpha", math.nan), ("m", -math.inf)):
        with pytest.raises(ConfigError) as err:
            parse_config(dict(raw, **{key: value}))
        assert str(err.value) == f"field {key!r} must be a finite number, got {value!r}"
    with pytest.raises(ConfigError, match="'psi0' must be a finite number, got inf"):
        parse_config(dict(raw, params={"psi0": math.inf}))


def test_params_are_typed_like_run_fields(tmp_path):
    # PyYAML reads 1e0 and 1e-1 as strings; params hold the numbers the
    # scenario reads, so an equal value written another way still resumes
    raw = {"scenario": "perturbed_cylinder", "n": 4, "alpha": 1.0, "t_end": 1.0,
           "params": {"psi0": "1e-1", "amplitude": 0}}
    assert parse_config(raw)[0].params == {"psi0": 0.1, "amplitude": 0.0}
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "10"]) == 0
    config = out / "config.yaml"
    config.write_text(config.read_text().replace("psi0: 1.0", "psi0: 1e0"))
    assert main(["resume", str(out)]) == 0


SETUP_CONFIG = "scenario: {}\nn: {}\nalpha: 1.0\nt_end: 0.01\nm: 16\n{}\n"


@pytest.mark.parametrize("text", [
    "scenario: torus_list\nn: 3\nalpha: 1.0\nt_end: 0.1\n",
    "scenario: perturbed_cylinder\nn: 4\nalpha: 1.0\nt_end: 0.1\nparams:\n  winding: 3\n",
    CYLINDER_CONFIG.replace("blowup_threshold: 1.0e6", "blowup_threshold: 1.0"),
    FLAT_CONFIG.replace("snapshot_every: 20", "snapshot_every: 15"),
    FLAT_CONFIG + "c_cfl: 3.0\n",
    FLAT_CONFIG.replace("t_end: 0.1", "t_end: .nan"),
    FLAT_CONFIG.replace("m: 16", "m: 4"),
    CYLINDER_CONFIG.replace("dt: 1.0e-3", "dt: 1.0e-16"),
    # a first step bound at the floor: the CFL bound, or the rate limiter on
    # the cylinder's nonzero rates
    CYLINDER_CONFIG + "c_cfl: 1.0e-300\n",
    CYLINDER_CONFIG + "rate_limit: 1.0e-300\n",
    # set-up overflows a Python float: in the closed form or in the initial fields
    CYLINDER_CONFIG.replace("psi0: 1.0", "psi0: 1.0e200"),
    SETUP_CONFIG.format("shrinking_sphere", 3, "params: {a0: 1.0e-200}"),
    SETUP_CONFIG.format("shrinking_sphere", 3, "params: {a0: 1.0e308}"),
    SETUP_CONFIG.format("torus_list", 2, "params: {winding: 1.0e200}"),
    *(SETUP_CONFIG.format(scenario, 400, "") for scenario in (
        "flat_stationary", "shrinking_sphere", "shrinking_cylinder", "perturbed_cylinder")),
], ids=["torus_list_n3", "unread_winding", "threshold_below_initial_rm",
        "snapshots_off_the_record_cadence", "c_cfl_above_rk4_limit", "t_end_nan",
        "grid_too_small", "dt_below_step_floor", "cfl_bound_below_step_floor",
        "rate_bound_below_step_floor", "psi0_squared_overflows",
        "sphere_curvature_overflows", "sphere_volume_overflows", "winding_squared_overflows",
        "flat_n400", "sphere_n400", "cylinder_n400", "perturbed_cylinder_n400"])
def test_bad_scenario_input_exits_2_without_output(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_a_grid_above_the_cap_is_refused_before_it_is_allocated(tmp_path, capsys):
    # Grid refuses such an m before anything of its size exists, so the
    # config below never reaches an allocation of m floats
    huge = 10**9
    with pytest.raises(ValueError, match=f"m={huge}$"):
        Grid(huge)
    with pytest.raises(ValueError, match=f"m={Grid.MAX_M + 1}$"):
        Grid(Grid.MAX_M + 1)
    assert Grid(Grid.MAX_M).m == Grid.MAX_M
    raw = {"scenario": "perturbed_cylinder", "n": 4, "alpha": 1.0, "t_end": 0.1, "m": huge}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"at most {Grid.MAX_M} points, got m={huge}$"):
            parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    cfg = write_config(tmp_path, FLAT_CONFIG.replace("m: 16", f"m: {huge}"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 2
    assert f"m={huge}" in capsys.readouterr().err and not out.exists()


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
    manifest = read_manifest(part / "manifest.json")
    assert manifest["termination"] == "blowup_threshold"
    lines = (part / "series.jsonl").read_bytes().count(b"\n")
    assert manifest["summary"]["records"] == lines == 34
    assert read_manifest(full / "manifest.json")["summary"]["records"] == lines


@pytest.mark.parametrize("output_every, back, resumed_every", [
    (10, 2, 10), (1, 0, 1), (10, 0, 1), (1, 0, 10),
], ids=["split_off_cadence", "resumed_leg_without_records", "resume_on_a_finer_cadence",
        "resume_on_a_coarser_cadence"])
def test_resume_of_a_nonfinite_run_matches_uninterrupted_run(tmp_path, output_every, back,
                                                             resumed_every):
    # past a threshold it cannot reach, the cylinder's pinch ends non-finite;
    # split `back` steps before the last accepted step: with output_every 10
    # that state is off the cadence and belongs to the resumed leg; with
    # output_every 1 and a split at it, the resumed leg makes no record.
    # A resume that changes output_every records by the new cadence from
    # the checkpoint on; split at the last accepted step, that leaves the
    # rows of the uninterrupted run at the old cadence, each state once.
    text = (CYLINDER_CONFIG.replace("blowup_threshold: 1.0e6", "blowup_threshold: 1.0e300")
            .replace("output_every: 10", f"output_every: {output_every}"))
    cfg = write_config(tmp_path, text)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["run", str(cfg), "-o", str(full)]) == 3
    summary = read_manifest(full / "manifest.json")["summary"]
    assert None not in summary.values()
    split = summary["steps"] - back
    assert main(["run", str(cfg), "-o", str(part), "--max-steps", str(split)]) == 0
    config = part / "config.yaml"
    config.write_text(config.read_text().replace(f"output_every: {output_every}",
                                                 f"output_every: {resumed_every}"))
    assert main(["resume", str(part)]) == 3
    series = (part / "series.jsonl").read_bytes()
    assert series == (full / "series.jsonl").read_bytes()
    resumed = read_manifest(part / "manifest.json")["summary"]
    assert resumed == summary and resumed["records"] == series.count(b"\n")


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


def test_resume_after_the_spacetime_integral_overflows(tmp_path):
    # at n = 200, |R|^{(n+2)/2} is beyond float64 from the first step on:
    # acc_r read nan (inf times an underflowed psi^{n-1}), which the
    # checkpoint then refused, so resume exited 2
    text = "scenario: perturbed_cylinder\nn: 200\nalpha: 1.0\nt_end: 0.3\nm: 16\n"
    cfg = write_config(tmp_path, text)
    full, part = tmp_path / "full", tmp_path / "part"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "-o", str(full)]) == 0
        assert main(["run", str(cfg), "-o", str(part), "--max-steps", "20"]) == 0
        assert main(["resume", str(part)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    series = (part / "series.jsonl").read_bytes()
    assert series == (full / "series.jsonl").read_bytes() and b"NaN" not in series
    rows = read_series(full / "series.jsonl")
    assert rows[0]["acc_r"] == 0.0 and all(row["acc_r"] == math.inf for row in rows[1:])
    assert read_manifest(full / "manifest.json")["summary"]["acc_r"] == math.inf


@pytest.mark.parametrize("index, value", [
    *((i, math.nan) for i in range(7)), *((i, math.inf) for i in (0, 1, 4)),
    (2, -math.inf), (6, -math.inf),
])
def test_checkpoint_monitor_state_is_finite_but_for_overflowed_integrals(tmp_path, index,
                                                                         value):
    # MonitorState's fields: min_s0, sup_r, acc_r, acc_w, prev_t, prev_ir,
    # prev_iw; only the four integrals may read +inf
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "50"]) == 0
    with np.load(out / "checkpoint.npz") as data:
        arrays = dict(data)
    arrays["mon"][[2, 3, 5, 6]] = math.inf
    np.savez(out / "checkpoint.npz", **arrays)
    monitor_state = load_checkpoint(out)[2]
    assert [getattr(monitor_state, name) for name in monitor_state.INTEGRALS] == [math.inf] * 4
    arrays["mon"][index] = value
    np.savez(out / "checkpoint.npz", **arrays)
    with pytest.raises(CheckpointError, match="malformed monitor state"):
        load_checkpoint(out)


@pytest.mark.parametrize("name, text, message", [
    ("manifest.json", "{not json", "is not JSON"),
    ("manifest.json", "[1, 2]", "holds a JSON list, not an object"),
    ("series.jsonl", None, "row 8 is not a series record"),
], ids=["manifest_not_json", "manifest_list", "series_row_not_json"])
def test_resume_corrupt_run_file(tmp_path, capsys, name, text, message):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "65"]) == 0
    path = out / name
    if text is None:  # a complete row past the checkpoint, but not JSON
        text = path.read_text() + '{"t":0.07,"min_s"\n'
    path.write_text(text)
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"run file error: {path} {message}" in capsys.readouterr().err
    assert directory_bytes(out) == before


def without_format(arrays):
    return {key: value for key, value in arrays.items() if key != "format"}


# CYLINDER_CONFIG's run constants as state files stored them, beside the
# config, before the file format was numbered
OLD_CONSTANTS = dict(kind="warped", n=4, alpha=0.0, fiber="round_sphere", winding=0)


def checkpoint_with_the_eps0_slot(arrays):
    # eps0 in the config and as the monitor state's eighth value
    config = json.loads(str(arrays["config"]))
    return {**without_format(arrays), **OLD_CONSTANTS,
            "config": json.dumps({**config, "eps0": 1e-08}),
            "mon": np.append(arrays["mon"], 1e-08)}


# Each layout this rhflow refuses: (file, the edit of its arrays that writes
# that layout, the format it holds).  Every layout before FORMAT was stored
# holds none, as a file the last unnumbered layout wrote does.
REFUSED_LAYOUTS = {
    "checkpoint_of_the_last_unnumbered_layout":
        ("checkpoint", lambda arrays: {**without_format(arrays), **OLD_CONSTANTS}, "none"),
    # scenario and step control as separate keys, no config, no row count
    "checkpoint_without_config":
        ("checkpoint", lambda arrays: {
            **{key: value for key, value in without_format(arrays).items()
               if key not in ("config", "rows")},
            **OLD_CONSTANTS, "scenario": "shrinking_cylinder", "c_cfl": 1.0, "dt": 1.0e-3,
            "rate_limit": 0.05}, "none"),
    "checkpoint_with_the_eps0_slot": ("checkpoint", checkpoint_with_the_eps0_slot, "none"),
    "checkpoint_of_a_newer_format":
        ("checkpoint", lambda arrays: {**arrays, "format": runio.FORMAT + 1},
         str(runio.FORMAT + 1)),
    "snapshot_of_the_last_unnumbered_layout":
        ("snapshot", lambda arrays: {**without_format(arrays), **OLD_CONSTANTS}, "none"),
    # one state per file, with a scalar step
    "one_state_snapshot":
        ("snapshot", lambda arrays: {**OLD_CONSTANTS, **{
            key: arrays[key][0] for key in ("step", "t", "f", "psi", "u")}}, "none"),
    "snapshot_of_a_newer_format":
        ("snapshot", lambda arrays: {**arrays, "format": runio.FORMAT + 1},
         str(runio.FORMAT + 1)),
}


@pytest.mark.parametrize("layout", REFUSED_LAYOUTS)
def test_a_state_file_of_another_format_is_refused(tmp_path, capsys, layout):
    # one rule for every other layout: the message names the file, the
    # format it holds and the one this rhflow reads; resume exits 2 and
    # changes no file
    kind, edit, held = REFUSED_LAYOUTS[layout]
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "100"]) == 0
    path = out / ("checkpoint.npz" if kind == "checkpoint"
                  else "snapshots/states_00000000_00000100.npz")
    with np.load(path) as data:
        arrays = dict(data)
    np.savez(path, **edit(arrays))
    message = f"{kind} {path} is in format {held}; this rhflow reads only format {runio.FORMAT}"
    if kind == "snapshot":
        with pytest.raises(CheckpointError) as exc:
            load_snapshot(path, load_config(cfg)[1])
        assert str(exc.value) == message
        return
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"checkpoint error: {message}" in capsys.readouterr().err
    assert directory_bytes(out) == before


@pytest.mark.parametrize("kind", ["checkpoint", "snapshot"])
def test_an_unreadable_state_file_is_refused(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "100"]) == 0
    path = out / ("checkpoint.npz" if kind == "checkpoint"
                  else "snapshots/states_00000000_00000100.npz")
    path.write_bytes(b"not a state file")
    if kind == "snapshot":
        with pytest.raises(CheckpointError, match=f"cannot read snapshot {path}"):
            load_snapshot(path, load_config(cfg)[1])
        return
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"checkpoint error: cannot read checkpoint {path}" in capsys.readouterr().err
    assert directory_bytes(out) == before


@pytest.mark.parametrize("edit, message", [
    # the checkpoint's run constants are the config's; a checkpoint edited to
    # another n and grid was integrated as n = 5 on 32 points to blow-up
    (lambda arrays: {**arrays, "n": 5,
                     **{key: np.repeat(arrays[key], 2) for key in ("f", "psi", "u")}},
     "holds arrays of shape (3, 32); the run's state has (3, 16)"),
    (lambda arrays: {**arrays, "psi": -arrays["psi"]},
     "holds a state the run refuses: psi must be positive; first violation at grid index 0"),
    (lambda arrays: {key: value for key, value in arrays.items() if key != "u"},
     "has no 'u' array"),
], ids=["other_n_and_grid", "negative_psi", "row_missing"])
def test_resume_builds_the_state_from_the_runs_config(tmp_path, capsys, edit, message):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "50"]) == 0
    path = out / "checkpoint.npz"
    with np.load(path) as data:
        arrays = dict(data)
    np.savez(path, **edit(arrays))
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"checkpoint error: checkpoint {path} {message}" in capsys.readouterr().err
    assert directory_bytes(out) == before


@pytest.mark.parametrize("edit, message", [
    (("m: 16", "m: 32"), "checkpoint error: checkpoint m 16 does not match config m 32"),
    (("n: 4", "n: 5"), "checkpoint error: checkpoint n 4 does not match config n 5"),
    (("alpha: 0.0", "alpha: 0.5"), "checkpoint error: checkpoint alpha 0.0"),
    (("blowup_threshold: 1.0e6", "blowup_threshold: 3.0"), "config error: blowup_threshold 3"),
    # t_end is resumable, but the checkpoint's state is already at t=0.01
    (("t_end: 0.3", "t_end: 0.01"), "config error: t_end 0.01 must exceed the initial t 0.01"),
    (("m: 16", "m: 16\nrepresentation: homogeneous"),
     "checkpoint error: checkpoint representation warped does not match "
     "config representation homogeneous"),
    (("m: 16", "m: 16\nc_cfl: 0.1"),
     "checkpoint error: checkpoint c_cfl 1.0 does not match config c_cfl 0.1"),
    (("dt: 1.0e-3\n", ""),
     "checkpoint error: checkpoint dt 0.001 does not match config dt None"),
    (("m: 16", "m: 16\nrate_limit: 0.1"),
     "checkpoint error: checkpoint rate_limit 0.05 does not match config rate_limit 0.1"),
], ids=["m", "n", "alpha", "threshold_below_checkpoint_rm", "t_end_at_checkpoint_t",
        "representation", "c_cfl", "dt", "rate_limit"])
def test_resume_refuses_config_contradicting_checkpoint(tmp_path, capsys, edit, message):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "10"]) == 0
    config = out / "config.yaml"
    config.write_text(config.read_text().replace(*edit))
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert directory_bytes(out) == before


# The benchmark's checkpoint_io config (perfbench/workloads.py).
TORUS_CONFIG = """\
scenario: perturbed_torus
n: 2
alpha: 1.0
t_end: 0.5
m: 64
dt: 0.0004
output_every: 1
snapshot_every: 1
params:
  winding: 1
  amplitude: 0.1
"""


# One config edit per config key (key, base config, edit, checkpoint value,
# config value); the values are None for the keys in runio.RESUMABLE.
RESUME_EDITS = [
    ("scenario", CYLINDER_CONFIG,
     ("scenario: shrinking_cylinder", "scenario: perturbed_cylinder"),
     "shrinking_cylinder", "perturbed_cylinder"),
    ("n", CYLINDER_CONFIG, ("n: 4", "n: 5"), 4, 5),
    ("alpha", CYLINDER_CONFIG, ("alpha: 0.0", "alpha: 0.5"), 0.0, 0.5),
    ("m", CYLINDER_CONFIG, ("m: 16", "m: 32"), 16, 32),
    ("c_cfl", CYLINDER_CONFIG, ("m: 16", "m: 16\nc_cfl: 0.5"), 1.0, 0.5),
    ("dt", CYLINDER_CONFIG, ("dt: 1.0e-3", "dt: 5.0e-4"), 0.001, 0.0005),
    ("rate_limit", CYLINDER_CONFIG, ("m: 16", "m: 16\nrate_limit: 0.1"), 0.05, 0.1),
    ("params", CYLINDER_CONFIG, ("psi0: 1.0", "psi0: 2.0"), {"psi0": 1.0}, {"psi0": 2.0}),
    # a params entry the resumed run never read, recorded in its manifest
    ("params", TORUS_CONFIG, ("amplitude: 0.1", "amplitude: 0.3"),
     {"winding": 1, "amplitude": 0.1}, {"winding": 1, "amplitude": 0.3}),
    ("representation", CYLINDER_CONFIG, ("m: 16", "m: 16\nrepresentation: homogeneous"),
     "warped", "homogeneous"),
    ("t_end", CYLINDER_CONFIG, ("t_end: 0.3", "t_end: 0.2"), None, None),
    ("blowup_threshold", CYLINDER_CONFIG,
     ("blowup_threshold: 1.0e6", "blowup_threshold: 1.0e5"), None, None),
    ("output_every", CYLINDER_CONFIG, ("output_every: 10", "output_every: 5"), None, None),
    ("snapshot_every", CYLINDER_CONFIG, ("snapshot_every: 100", "snapshot_every: 50"),
     None, None),
]


def test_resume_edits_cover_every_config_key():
    assert {key for key, *_ in RESUME_EDITS} == runio._CONFIG_KEYS


@pytest.mark.parametrize("key, base, edit, old, new", RESUME_EDITS, ids=[
    "scenario", "n", "alpha", "m", "c_cfl", "dt", "rate_limit", "params",
    "params_amplitude", "representation", "t_end", "blowup_threshold", "output_every",
    "snapshot_every"])
def test_resume_accepts_only_resumable_config_edits(tmp_path, capsys, key, base, edit,
                                                    old, new):
    cfg = write_config(tmp_path, base)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "10"]) == 0
    config = out / "config.yaml"
    config.write_text(config.read_text().replace(*edit))
    before = directory_bytes(out)
    capsys.readouterr()
    if old is None:
        assert key in runio.RESUMABLE
        assert main(["resume", str(out)]) == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"][key] == getattr(load_config(config)[0], key)
        lines = (out / "series.jsonl").read_bytes().count(b"\n")
        assert manifest["summary"]["records"] == lines
        return
    assert key not in runio.RESUMABLE
    assert main(["resume", str(out)]) == 2
    assert (f"checkpoint error: checkpoint {key} {old} does not match config {key} {new}"
            in capsys.readouterr().err)
    assert directory_bytes(out) == before


@pytest.mark.parametrize("damage, message", [
    (lambda lines: lines[:1] + [b'{"t":0.01,"min_s"\n'] + lines[2:],
     "row 2 is not a series record"),
    (lambda lines: lines[:1] + [b"[0.01, 0.5]\n"] + lines[2:],
     "row 2 is not a series record: it holds a JSON list"),
    (lambda lines: lines[:-1], "holds 3 complete rows, fewer than the 4 that the "
                               "checkpoint committed"),
    (lambda lines: lines[:-1] + [lines[-1].rstrip(b"\n")],
     "holds 3 complete rows, fewer than the 4 that the checkpoint committed"),
], ids=["row_2_not_json", "row_2_a_list", "row_missing", "last_row_torn"])
def test_resume_refuses_a_damaged_committed_series(tmp_path, capsys, damage, message):
    # the rows the checkpoint committed are read before the leg runs: a
    # damaged one, also one before the last, exits 2 and changes no file
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "35"]) == 0
    series = out / "series.jsonl"
    lines = series.read_bytes().splitlines(keepends=True)
    assert len(lines) == load_checkpoint(out)[3] == 4
    series.write_bytes(b"".join(damage(lines)))
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"run file error: {series} {message}" in capsys.readouterr().err
    assert directory_bytes(out) == before


def test_read_series_skips_a_torn_last_line(tmp_path):
    path = tmp_path / "series.jsonl"
    path.write_bytes(b'{"t":0.0}\n{"t":0.1}\n{"t":0.2,"mi')
    assert read_series(path) == [{"t": 0.0}, {"t": 0.1}]
    path.write_bytes(b'{"t":0.0}\n\n')
    with pytest.raises(runio.RunFileError, match="row 2 is not a series record"):
        read_series(path)


def test_verify_subset(tmp_path):
    out = tmp_path / "report"
    code = main(["verify", "--scenario", "torus_list", "-o", str(out)])
    assert code == 0
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"]
    assert all(row["scenario"] == "torus_list" for row in payload["rows"])
    # wall seconds per case, kept out of the deterministic rows
    assert set(payload["case_seconds"]) == {"torus_list"}
    assert payload["case_seconds"]["torus_list"] > 0.0
    assert all("seconds" not in key for row in payload["rows"] for key in row)


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
    config, initial = load_config(cfg_path)
    assert config.scenario == "shrinking_cylinder"
    assert config.dt == pytest.approx(1e-3)
    assert config.params == {"psi0": 1.0}
    assert runio.config_to_dict(config, initial)["representation"] == "warped"
    assert initial.t == 0.0 and np.all(initial.psi == 1.0)


def test_converge_reports_residual_order(tmp_path):
    out = tmp_path / "conv"
    assert main(["converge", "torus_list", "-o", str(out)]) == 0
    payload = json.loads((out / "converge_torus_list.json").read_text())
    by_name = {s["name"]: s for s in payload["studies"]}
    assert by_name["temporal"]["exact"]  # RK4 error at rounding level here
    assert by_name["s_residual"]["order"] >= 1.9
    assert (by_name["temporal"]["expected"], by_name["s_residual"]["expected"]) == (4.0, 2.0)
    assert by_name["temporal"]["passed"] and by_name["s_residual"]["passed"]


def test_converge_fails_on_mutated_coupling(monkeypatch, capsys):
    # with the map coupling's sign flipped the closed form no longer solves
    # the flow: both fitted orders fall to about 0
    monkeypatch.setattr(rhflow.flow, "_COUPLING_SIGN", -1.0)
    assert main(["converge", "torus_list"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2 and "PASS" not in out


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


PERTURBED_TORUS_CONFIG = """\
scenario: perturbed_torus
n: 2
alpha: 1.0
t_end: 0.05
m: 32
dt: 1.0e-3
output_every: 5
snapshot_every: 10
params:
  amplitude: 0.1
"""


def snapshot_steps(rundir):
    """{step: (state, file name)} over every snapshot file of a run
    directory; a step held twice fails."""
    found = {}
    initial = load_config(rundir / "config.yaml")[1]
    for name in read_manifest(rundir / "manifest.json")["files"]:
        if name.startswith("snapshots/"):
            for state, step in load_snapshot(rundir / name, initial):
                assert step not in found
                found[step] = (state, name)
    return found


@pytest.mark.parametrize("text, split", [(PERTURBED_TORUS_CONFIG, 23), (SPHERE_CONFIG, 83)],
                         ids=["warped_perturbed_torus", "homogeneous_shrinking_sphere"])
def test_snapshots_reload_bit_exactly(tmp_path, text, split):
    cfg = write_config(tmp_path, text)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    assert main(["run", str(cfg), "-o", str(part), "--max-steps", str(split)]) == 0
    assert main(["resume", str(part)]) == 0

    config, initial = load_config(cfg)
    traj = run(config, initial)
    want = {rec.step: rec.state for rec in traj.records
            if rec.step % config.snapshot_every == 0}
    assert len(want) >= 5
    legs = sorted((part / "snapshots").iterdir())
    assert len(legs) == 2 and len(list((full / "snapshots").iterdir())) == 1
    for rundir in (full, part):
        found = snapshot_steps(rundir)
        assert sorted(found) == sorted(want)  # every snapshot step exactly once
        for step, (state, name) in found.items():
            expected = want[step]
            assert type(state) is type(expected) and state.t == expected.t
            for got, array in zip(state.arrays(), expected.arrays()):
                assert got.dtype == array.dtype and got.tobytes() == array.tobytes()
    assert {name for _, name in snapshot_steps(part).values()} == {
        f"snapshots/{path.name}" for path in legs}
    first, second = (path.name for path in legs)
    assert first == f"states_00000000_{max(s for s in want if s <= split):08d}.npz"
    assert second.startswith(f"states_{min(s for s in want if s > split):08d}_")


@pytest.mark.parametrize("split, first, resumed, want", [
    (150, 100, 50, [0, 100, 150, 200, 250, 300]),
    (150, 50, 100, [0, 50, 100, 150, 200, 300]),
    (200, 100, 50, [0, 100, 200, 250, 300]),
], ids=["finer_owes_the_checkpoint_snapshot", "coarser", "finer_at_a_taken_step"])
def test_resume_that_changes_snapshot_every_keeps_each_snapshot_once(tmp_path, split, first,
                                                                     resumed, want):
    # the resumed leg starts on the checkpoint's state: it takes that state's
    # snapshot by the new cadence unless the first leg's file already ends at it
    text = CYLINDER_CONFIG.replace("snapshot_every: 100", f"snapshot_every: {first}")
    cfg = write_config(tmp_path, text)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    assert main(["run", str(cfg), "-o", str(part), "--max-steps", str(split)]) == 0
    config = part / "config.yaml"
    config.write_text(config.read_text().replace(f"snapshot_every: {first}",
                                                 f"snapshot_every: {resumed}"))
    assert main(["resume", str(part)]) == 0
    assert (part / "series.jsonl").read_bytes() == (full / "series.jsonl").read_bytes()
    assert sorted(snapshot_steps(part)) == want  # each step once
    assert sorted(read_manifest(part / "manifest.json")["files"]) == sorted(
        directory_bytes(part))


def directory_bytes(rundir):
    return {str(p.relative_to(rundir)): p.read_bytes()
            for p in sorted(rundir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["run", "resume"])
@pytest.mark.parametrize("value", ["0", "-3", "ten"])
def test_max_steps_below_one_exits_2(tmp_path, capsys, command, value):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    if command == "resume":
        assert main(["run", str(cfg), "-o", str(out), "--max-steps", "10"]) == 0
    before = directory_bytes(tmp_path)
    argv = ["run", str(cfg), "-o", str(out)] if command == "run" else ["resume", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-steps", value])
    assert exc.value.code == 2
    assert "--max-steps" in capsys.readouterr().err
    assert directory_bytes(tmp_path) == before


@pytest.mark.parametrize("value", ["5", "10"])
def test_resume_max_steps_at_or_below_checkpoint_exits_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "10"]) == 0
    before = directory_bytes(out)
    capsys.readouterr()
    assert main(["resume", str(out), "--max-steps", value]) == 2
    assert (f"--max-steps {value} must exceed the 10 steps the checkpoint has "
            f"already taken") in capsys.readouterr().err
    assert directory_bytes(out) == before
    assert main(["resume", str(out), "--max-steps", "11"]) == 0
    assert load_checkpoint(out)[1] == 11


def test_run_refuses_a_directory_holding_a_run(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    before = directory_bytes(out)
    shorter = write_config(tmp_path, FLAT_CONFIG.replace("t_end: 0.1", "t_end: 0.05"),
                           name="shorter.yaml")
    capsys.readouterr()
    assert main(["run", str(shorter), "-o", str(out)]) == 2
    assert "already holds a run" in capsys.readouterr().err
    assert directory_bytes(out) == before


@pytest.mark.parametrize("entry", ["config.yaml", "series.jsonl", "checkpoint.npz",
                                   "manifest.json", "snapshots/"])
def test_run_refuses_any_run_entry_but_accepts_an_empty_directory(tmp_path, capsys, entry):
    cfg = write_config(tmp_path, FLAT_CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(cfg), "-o", str(out)]) == 0  # empty: accepted
    held = tmp_path / "held"
    held.mkdir()
    if entry.endswith("/"):
        (held / entry).mkdir()
    else:
        (held / entry).write_text("")
    assert main(["run", str(cfg), "-o", str(held)]) == 2
    assert f"already holds a run ({entry.rstrip('/')})" in capsys.readouterr().err
    assert [p.name for p in held.iterdir()] == [entry.rstrip("/")]


@pytest.mark.parametrize("failing", ["snapshot", "checkpoint"])
def test_failed_write_keeps_the_previous_checkpoint(tmp_path, capsys, monkeypatch, failing):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    full, out = tmp_path / "full", tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "150"]) == 0
    checkpoint = (out / "checkpoint.npz").read_bytes()
    before = set(directory_bytes(out))

    savez = np.savez

    def torn_savez(file, **arrays):  # the checkpoint is the write with "mon"
        if ("mon" in arrays) == (failing == "checkpoint"):
            file.write(b"PK\x03\x04 torn")
            raise OSError("No space left on device")
        savez(file, **arrays)

    monkeypatch.setattr(np, "savez", torn_savez)
    capsys.readouterr()
    assert main(["resume", str(out), "--max-steps", "250"]) == 2
    assert "I/O error: No space left on device" in capsys.readouterr().err
    monkeypatch.undo()

    # no temp file is left; the previous checkpoint is intact and resumes
    left = set(directory_bytes(out))
    assert left == before | ({"snapshots/states_00000200_00000200.npz"}
                             if failing == "checkpoint" else set())
    assert (out / "checkpoint.npz").read_bytes() == checkpoint
    assert load_checkpoint(out)[1] == 150
    assert main(["resume", str(out)]) == 0
    assert (out / "series.jsonl").read_bytes() == (full / "series.jsonl").read_bytes()
    manifest = read_manifest(out / "manifest.json")
    assert sorted(manifest["files"]) == sorted(directory_bytes(out))
    assert sorted(snapshot_steps(out)) == sorted(snapshot_steps(full)) == [0, 100, 200, 300]


def test_resume_drops_a_torn_series_row(tmp_path):
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    full, out = tmp_path / "full", tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "137"]) == 0
    with open(out / "series.jsonl", "ab") as fh:
        fh.write(b'{"t":0.14,"min_s"')  # a leg killed while appending
    assert main(["resume", str(out)]) == 0
    assert (out / "series.jsonl").read_bytes() == (full / "series.jsonl").read_bytes()


@pytest.mark.parametrize("stray", ["states_notes_x.npz", "extra.npz"])
def test_resume_leaves_a_stray_file_under_snapshots_alone(tmp_path, stray):
    # only files named as rhflow names snapshot files are parsed, dropped
    # past the checkpoint and listed in the manifest
    cfg = write_config(tmp_path, CYLINDER_CONFIG)
    full, out = tmp_path / "full", tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(full)]) == 0
    assert main(["run", str(cfg), "-o", str(out), "--max-steps", "150"]) == 0
    path = out / "snapshots" / stray
    path.write_bytes(b"notes")
    assert main(["resume", str(out)]) == 0
    assert (out / "series.jsonl").read_bytes() == (full / "series.jsonl").read_bytes()
    files = read_manifest(out / "manifest.json")["files"]
    assert sorted(files) == sorted(set(directory_bytes(out)) - {f"snapshots/{stray}"})
    assert path.read_bytes() == b"notes"
