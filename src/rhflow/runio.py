"""On-disk formats: config files, time series, snapshots, checkpoints,
manifests, and the run directory that holds them.

One canonical config format (YAML, documented in the README), one
line-delimited JSON time-series format, and float64 .npz snapshots (one
file per run leg) chosen so checkpointed state round-trips bit-exactly
for resume.  Snapshot files and checkpoints hold only what a leg changes
and the FORMAT of their layout; their readers rebuild each state from the
run's initial state.  Snapshot files, checkpoints and manifests are
replaced atomically.  This module alone names, writes and reads a run directory.

PyYAML is imported in load_config, the only reader of a config file, so
the library, `rhflow verify` and `rhflow converge` start without it.
"""
from __future__ import annotations

import json
import os
import re
import shutil
from collections import namedtuple
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import MonitorState
from .flow import FlowConfig, Trajectory
from .geometry import State, WarpedState
from .oracles import SCENARIO_IDS, SCENARIOS, Scenario, scenario_run

SERIES_FIELDS = ("t", "min_s", "max_s", "max_grad_phi_sq", "max_ric", "max_rm",
                 "grad_margin", "phi_min", "phi_max", "length", "volume",
                 "volume_integrand", "distortion_rate", "acc_r", "acc_w")

# Config keys: FlowConfig's fields, whose defaults fill in every key a
# file leaves out, except the fiber (a scenario fact), plus the
# representation.
_CONFIG_KEYS = {fld.name for fld in fields(FlowConfig)} - {"fiber"} | {"representation"}
_REQUIRED_KEYS = ("scenario", "n", "alpha", "t_end")
_NUMBER = {"int": int, "float": float, "float | None": float}


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending field."""


class CheckpointError(RuntimeError):
    """Unreadable or inconsistent checkpoint or snapshot file."""


class RunFileError(RuntimeError):
    """Unreadable series or manifest file of a run; the message names it."""


# ---------------------------------------------------------------------------
# config


def _typed(cls, values: dict) -> dict:
    """values with each entry converted to the int (whole numbers only) or
    float that the dataclass cls annotates for it (YAML reads 1e-3 as a
    string); None stays None where the annotation allows it.  A boolean,
    anything else float() cannot read, and nan or inf are refused naming
    the field."""
    kinds = {fld.name: fld.type for fld in fields(cls)}
    out = {}
    for key, value in values.items():
        kind = kinds[key]
        if kind in _NUMBER and not (value is None and kind.endswith("None")):
            try:
                number = None if isinstance(value, bool) else float(value)
            except (TypeError, ValueError, OverflowError):
                number = None
            if number is None:
                raise ConfigError(f"field {key!r} must be a number, got {value!r}")
            if not np.isfinite(number):
                raise ConfigError(f"field {key!r} must be a finite number, got {value!r}")
            if kind == "int" and not number.is_integer():
                raise ConfigError(f"field {key!r} must be a whole number, got {value!r}")
            value = _NUMBER[kind](number)
        out[key] = value
    return out


def parse_config(raw: dict) -> tuple[FlowConfig, State]:
    """Validate a config mapping and build the run's (config, initial state)
    with oracles.scenario_run.  The scenario's registry entry gives the fiber,
    the allowed representations and parameters; keys the mapping leaves out
    take FlowConfig's defaults.  Initial data the grid rejects is refused."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of keys to values")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config field {key!r}")
    scenario_id = raw["scenario"]
    if scenario_id not in SCENARIO_IDS:
        raise ConfigError(f"unknown scenario {scenario_id!r}; expected one of {SCENARIO_IDS}")
    spec = SCENARIOS[scenario_id]

    params = raw.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError("config field 'params' must be a mapping")
    unread = set(params) - spec.params
    if unread:
        raise ConfigError(f"scenario {scenario_id!r} does not read parameter "
                          f"{sorted(unread)[0]!r}; it reads {sorted(spec.params)}")

    # n and alpha are run fields: typed with the others, named without the
    # scenario-parameter label that params entries get
    settings = _typed(FlowConfig, {key: raw[key] for key in raw
                                   if key not in ("scenario", "representation", "params")})
    try:
        params = _typed(Scenario, params)
        scn = Scenario(scenario_id, n=settings.pop("n"), alpha=settings.pop("alpha"), **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc

    representation = raw.get("representation", spec.representations[0])
    if representation not in spec.representations:
        raise ConfigError(f"scenario {scenario_id!r} has no {representation!r} "
                          f"representation; it has {spec.representations}")

    try:
        return scenario_run(scn, representation, **settings, params=params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    except OverflowError as exc:  # the closed form is evaluated in Python floats
        raise ConfigError(f"scenario parameters out of floating-point range: {exc}") from exc


def load_config(path) -> tuple[FlowConfig, State]:
    """parse_config of a YAML config file: the run's (config, initial state)."""
    import yaml  # here, not at module level: see the module docstring
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"config is not valid YAML{where}: {exc}") from exc
    return parse_config(raw)


def config_to_dict(cfg: FlowConfig, state: State) -> dict:
    """cfg as plain values, with the kind of state (a state of the run) as representation."""
    out = asdict(cfg)
    out["fiber"] = cfg.fiber.value
    out["representation"] = "warped" if isinstance(state, WarpedState) else "homogeneous"
    return out


# ---------------------------------------------------------------------------
# time series


def record_to_row(rec) -> dict:
    mon = rec.monitor
    return {name: float(getattr(mon, name)) if name != "t" else float(rec.t)
            for name in SERIES_FIELDS}


def series_lines(records) -> list[str]:
    return [json.dumps(record_to_row(rec), separators=(",", ":")) for rec in records]


def write_series(path, records):
    Path(path).write_text("".join(line + "\n" for line in series_lines(records)))


def append_series(path, records):
    with open(path, "a") as fh:
        for line in series_lines(records):
            fh.write(line + "\n")


def read_series(path) -> list[dict]:
    """The records of a series file, one per complete line.  A last line
    without its newline is a torn write, not a record, and is skipped; a
    complete line that is not a JSON object raises RunFileError naming
    the file and the 1-based row."""
    *lines, _torn = Path(path).read_bytes().split(b"\n")
    rows = []
    for k, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise RunFileError(f"{path} row {k} is not a series record: {exc}") from exc
        if not isinstance(row, dict):
            raise RunFileError(f"{path} row {k} is not a series record: it holds a "
                               f"JSON {type(row).__name__}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# snapshots and checkpoints


def _replace_atomically(path, write):
    """Call write(fh) on a temp file beside path, then os.replace it onto
    path: a reader, or a resume after a killed process, sees the old file
    or the new one, never part of one.  The temp file is removed if the
    write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The layout of snapshot and checkpoint files, stored under "format" in
# each; a reader refuses a file of any other (or of none: files written
# before the layout was numbered).  Bump it with every layout change.
FORMAT = 1

def _read_state_file(path, what: str) -> dict:
    """Every array of a snapshot or checkpoint file (what says which) of
    this FORMAT."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            data = {key: npz[key] for key in npz.files}
    except Exception as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    held = repr(data["format"].tolist()) if "format" in data else "none"
    if held != repr(FORMAT):
        raise CheckpointError(f"{what} {path} is in format {held}; this rhflow reads only "
                              f"format {FORMAT}")
    return data


def _states(path, what: str, initial: State, data: dict) -> list[tuple[State, int]]:
    """(initial.evolved(block, t), step) for each step of a state file: the
    checkpoint's one (a scalar step and t), or a snapshot's one per state
    (a leading axis of step, t and each row array).  A block of another
    shape than the run's state, or a state that evolved() refuses, is
    refused naming the file."""
    want = initial.arrays().shape
    try:
        steps, times = data["step"], np.asarray(data["t"], dtype=float)
        blocks = np.stack([data[key] for key in initial.ROWS], axis=steps.ndim)
    except KeyError as exc:
        raise CheckpointError(f"{what} {path} has no {exc} array") from exc
    except ValueError as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    if blocks.shape != steps.shape + want:
        raise CheckpointError(f"{what} {path} holds arrays of shape {blocks.shape}; the run's "
                              f"state has {want}" + (f" at each of {steps.size} steps"
                                                     if steps.ndim else ""))
    if times.shape != steps.shape:
        raise CheckpointError(f"{what} {path} holds t of shape {times.shape} for steps of "
                              f"shape {steps.shape}")
    try:
        return [(initial.evolved(block, t), step) for block, t, step in
                zip(blocks.reshape(-1, *want), times.ravel().tolist(), steps.ravel().tolist())]
    except ValueError as exc:
        raise CheckpointError(f"{what} {path} holds a state the run refuses: {exc}") from exc


def save_snapshot(path, states: list[State], steps: list[int]):
    """Write the states of one run leg, in step order, to one file: step, t
    and each arrays() row stacked along a leading axis with one entry per
    state."""
    if not states or len(states) != len(steps) or np.any(np.diff(steps) <= 0):
        raise ValueError("a snapshot file needs one state per step, in increasing step order")
    rows = np.stack([state.arrays() for state in states], axis=1)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _replace_atomically(path, lambda fh: np.savez(
        fh, format=FORMAT, step=np.array(steps), t=np.array([state.t for state in states]),
        **dict(zip(states[0].ROWS, rows))))


def load_snapshot(path, initial: State) -> list[tuple[State, int]]:
    """The (state, step) pairs of a snapshot file of the run whose initial
    state is initial (its config's), in step order, bit-exact."""
    return _states(path, "snapshot", initial, _read_state_file(path, "snapshot"))


# The config keys a resumed leg may change: where and how often it stops
# and records.  Any other change would continue a different run than the
# checkpoint holds.  flow.run refuses a t_end the checkpoint's t, and a
# blowup_threshold its max|Rm|, already reaches.
RESUMABLE = ("t_end", "blowup_threshold", "output_every", "snapshot_every")


def save_checkpoint(path, traj: Trajectory, rows: int):
    """Commit a leg: its final state's arrays() rows and t, its step and
    monitor accumulators (MonitorState's fields in order), the run's config
    as one JSON string, and rows, the series rows written so far."""
    state = traj.final_state
    _replace_atomically(path, lambda fh: np.savez(
        fh, format=FORMAT, step=traj.steps, t=state.t, rows=rows,
        mon=np.array(astuple(traj.monitor_state)),
        config=json.dumps(config_to_dict(traj.config, state)),
        **dict(zip(state.ROWS, state.arrays()))))


def load_checkpoint(path, config: FlowConfig, initial: State):
    """Returns (state, steps, MonitorState, rows) of the checkpoint of the
    run with the given config and initial state; the state is
    initial.evolved of the stored arrays.  Raises CheckpointError on a file
    of another format, on any difference from the checkpoint's config
    outside RESUMABLE, and on unreadable data."""
    data = _read_state_file(path, "checkpoint")
    try:
        rows = int(data["rows"])
        vals = np.asarray(data["mon"], dtype=float)
        stored = json.loads(str(data["config"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    # the stored side went through a JSON round trip; so does this one
    wanted = json.loads(json.dumps(config_to_dict(config, initial)))
    for key in dict.fromkeys([*wanted, *stored]):
        if key not in RESUMABLE and stored.get(key) != wanted.get(key):
            raise CheckpointError(f"checkpoint {key} {stored.get(key)} does not match "
                                  f"config {key} {wanted.get(key)}")
    may_overflow = np.isin([f.name for f in fields(MonitorState)], MonitorState.INTEGRALS)
    if vals.shape != may_overflow.shape or not np.all(
            np.isfinite(vals) | may_overflow & (vals == np.inf)):
        raise CheckpointError(f"checkpoint {path} has malformed monitor state")
    [(state, steps)] = _states(path, "checkpoint", initial, data)
    return state, steps, MonitorState(*vals), rows


# ---------------------------------------------------------------------------
# run directory

# What a run directory holds; `rhflow run` refuses a directory with any of it.
RUN_ENTRIES = CONFIG, SERIES, CHECKPOINT, MANIFEST, SNAPSHOT_DIR = (
    "config.yaml", "series.jsonl", "checkpoint.npz", "manifest.json", "snapshots")
_SNAPSHOT_NAME = "states_{:08d}_{:08d}.npz"  # a leg's first and last snapshot step


def write_manifest(path, traj: Trajectory, records: int, files: list[str]):
    """Write the completion marker of a run whose series holds records
    rows: config echo, version, termination, summary and the run's files.
    The summary's final values are those of the state the last leg, traj,
    ended on."""
    final = traj.final.monitor
    summary = {"final_t": traj.final_t, "steps": traj.steps, "records": records,
               "min_s_final": final.min_s, "max_rm_final": final.max_rm,
               "acc_r": final.acc_r, "acc_w": final.acc_w}
    payload = {"version": __version__, "config": config_to_dict(traj.config, traj.final_state),
               "termination": traj.termination, "summary": summary, "files": sorted(files)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _replace_atomically(path, lambda fh: fh.write(text.encode()))


def read_manifest(path) -> dict | None:
    p = Path(path)
    if not p.exists():
        return None
    try:
        manifest = json.loads(p.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise RunFileError(f"{p} is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise RunFileError(f"{p} holds a JSON {type(manifest).__name__}, not an object")
    return manifest


def _snapshot_files(rundir) -> dict[str, int]:
    """{path relative to rundir: last step} of the files that _SNAPSHOT_NAME
    names in SNAPSHOT_DIR; any other file there is not rhflow's."""
    found = {}
    for path in Path(rundir, SNAPSHOT_DIR).glob("*.npz"):
        steps = re.fullmatch(r"states_([0-9]+)_([0-9]+)\.npz", path.name)
        if steps and path.name == _SNAPSHOT_NAME.format(*map(int, steps.groups())):
            found[f"{SNAPSHOT_DIR}/{path.name}"] = int(steps[2])
    return found


def discard_past(rundir, step: int, rows: int):
    """Drop what a failed leg wrote past the checkpoint at step, which
    committed rows series rows: every later byte of the series (a torn
    row too), and the snapshot files that hold a step past step."""
    series = Path(rundir, SERIES)
    data = series.read_bytes()
    kept = b"".join(line + b"\n" for line in data.split(b"\n")[:rows])
    if kept != data:
        _replace_atomically(series, lambda fh: fh.write(kept))
    for name, last in _snapshot_files(rundir).items():
        if last > step:
            Path(rundir, name).unlink()


class RunComplete(Exception):
    """A resume of a run whose manifest records its end; the message is why."""


# Where an interrupted run resumes: its config, the checkpoint's state, step,
# MonitorState and committed series rows, and the last of those rows' t.
ResumePoint = namedtuple("ResumePoint", "config state steps monitor_state rows last_t")


def open_resume(rundir) -> ResumePoint:
    """Where an interrupted run resumes; changes no file.  The config file's
    (config, initial state) is checked against the checkpoint.  Raises
    RunComplete, and RunFileError for fewer series rows than it committed."""
    rundir = Path(rundir)
    manifest = read_manifest(rundir / MANIFEST)
    if manifest is not None and manifest.get("termination"):
        raise RunComplete(manifest["termination"])
    config, initial = load_config(rundir / CONFIG)
    state, steps, monitor_state, rows = load_checkpoint(rundir / CHECKPOINT, config, initial)
    found = read_series(rundir / SERIES)
    if len(found) < rows:
        raise RunFileError(f"{rundir / SERIES} holds {len(found)} complete rows, fewer "
                           f"than the {rows} that the checkpoint committed")
    return ResumePoint(config, state, steps, monitor_state, rows,
                       found[rows - 1].get("t") if rows else None)


def commit_leg(rundir, traj: Trajectory, *, config_file=None,
               start: ResumePoint | None = None) -> int:
    """Write a leg's series rows, snapshot file, checkpoint and, once the
    run has ended, manifest, in that order; returns the series row count.
    A fresh run (start None) first creates rundir and copies config_file
    into it; a resumed leg first drops what a failed leg left past start.
    Its first record, the checkpoint's state, is kept once: no new row if
    the last committed row holds it (the same t), no new snapshot if a
    committed snapshot file ends at its step (snapshot_every may change)."""
    rundir = Path(rundir)
    if start is None:
        rundir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(config_file, rundir / CONFIG)
        rows, last_t = 0, None
    else:
        discard_past(rundir, start.steps, start.rows)
        rows, last_t = start.rows, start.last_t
    every = traj.config.snapshot_every
    taken = [rec for rec in traj.records if every and rec.step % every == 0]
    if taken and start is not None and taken[0].step in _snapshot_files(rundir).values():
        taken = taken[1:]
    records = traj.records
    if records and records[0].t == last_t:
        records = records[1:]
    (append_series if rows else write_series)(rundir / SERIES, records)
    if taken:
        save_snapshot(rundir / SNAPSHOT_DIR / _SNAPSHOT_NAME.format(taken[0].step,
                                                                    taken[-1].step),
                      [rec.state for rec in taken], [rec.step for rec in taken])
    rows += len(records)
    save_checkpoint(rundir / CHECKPOINT, traj, rows)
    if traj.termination is not None:
        write_manifest(rundir / MANIFEST, traj, rows,
                       [CONFIG, SERIES, CHECKPOINT, MANIFEST, *_snapshot_files(rundir)])
    return rows
