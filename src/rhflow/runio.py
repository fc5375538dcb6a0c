"""On-disk formats: config files, time series, snapshots, checkpoints,
manifests.

One canonical config format (YAML, documented in the README), one
line-delimited JSON time-series format, and float64 .npz snapshots (one
file per run leg) chosen so checkpointed state round-trips bit-exactly
for resume.  Snapshot files, checkpoints and manifests are replaced
atomically.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import MonitorState
from .flow import FlowConfig, Trajectory
from .geometry import Factor, Fiber, HomogeneousState, State, WarpedState
from .oracles import SCENARIO_IDS, SCENARIOS, Scenario

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


def parse_config(raw: dict) -> tuple[FlowConfig, Scenario, str]:
    """Validate a config mapping and build the run objects.  The scenario's
    registry entry gives the fiber, the allowed representations and
    parameters; keys the mapping leaves out take FlowConfig's defaults."""
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
                                   if key not in ("representation", "params")})
    try:
        params = _typed(Scenario, params)
        scn = Scenario(scenario_id, n=settings["n"], alpha=settings["alpha"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc

    representation = raw.get("representation", spec.representations[0])
    if representation not in spec.representations:
        raise ConfigError(f"scenario {scenario_id!r} has no {representation!r} "
                          f"representation; it has {spec.representations}")

    try:
        cfg = FlowConfig(**settings, fiber=spec.fiber, params=params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    return cfg, scn, representation


def load_config(path) -> tuple[FlowConfig, Scenario, str]:
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


def config_to_dict(cfg: FlowConfig, representation: str) -> dict:
    out = asdict(cfg)
    out["fiber"] = cfg.fiber.value
    out["representation"] = representation
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


# The arrays a state evolves, by state kind, in State.arrays() order.
_ARRAY_KEYS = {"warped": ("f", "psi", "u"), "homogeneous": ("coeffs",)}


def _state_constants(state: State) -> dict:
    """The keys a run keeps fixed, as plain values (comparable with ==)."""
    if isinstance(state, WarpedState):
        return dict(kind="warped", n=state.n, alpha=state.alpha,
                    fiber=state.fiber.value, winding=state.winding)
    return dict(kind="homogeneous", n=state.n, alpha=state.alpha,
                factor_kinds=[fac.kind.value for fac in state.factors],
                factor_dims=[fac.dim for fac in state.factors],
                factor_slopes=[fac.slope for fac in state.factors])


def _state_arrays(state: State) -> dict:
    constants = _state_constants(state)
    return dict(constants, t=state.t, **dict(zip(_ARRAY_KEYS[constants["kind"]],
                                                 state.arrays())))


def _state_from_arrays(data) -> State:
    kind = str(data["kind"])
    if kind == "warped":
        return WarpedState(int(data["n"]), Fiber(str(data["fiber"])), float(data["alpha"]),
                           np.asarray(data["f"], dtype=float),
                           np.asarray(data["psi"], dtype=float),
                           int(data["winding"]), np.asarray(data["u"], dtype=float),
                           float(data["t"]))
    if kind == "homogeneous":
        factors = tuple(
            Factor(float(a), Fiber(str(k)), int(d), float(s))
            for a, k, d, s in zip(data["coeffs"], data["factor_kinds"],
                                  data["factor_dims"], data["factor_slopes"]))
        return HomogeneousState(int(data["n"]), float(data["alpha"]), factors,
                                float(data["t"]))
    raise CheckpointError(f"unknown state kind {kind!r}")


SNAPSHOT_DIR = "snapshots"


def snapshot_leg(records, every: int) -> tuple[str, list[State], list[int]] | None:
    """The snapshot file of one run leg (one `rhflow run` or `resume`): its
    name relative to the run directory, and the states and steps of the
    records on the snapshot_every cadence.  None when the leg takes no
    snapshot."""
    taken = [rec for rec in records if every > 0 and rec.step % every == 0]
    if not taken:
        return None
    first, last = taken[0].step, taken[-1].step
    return (f"{SNAPSHOT_DIR}/states_{first:08d}_{last:08d}.npz",
            [rec.state for rec in taken], [rec.step for rec in taken])


def snapshot_files(rundir) -> list[str]:
    """The snapshot files in a run directory, relative to it, sorted."""
    return sorted(f"{SNAPSHOT_DIR}/{p.name}" for p in Path(rundir, SNAPSHOT_DIR).glob("*.npz"))


def save_snapshot(path, states: list[State], steps: list[int]):
    """Write the states of one run leg, in step order, to one file: the
    run constants once, and step, t and each state array stacked along a
    leading axis with one entry per state."""
    if not states or len(states) != len(steps) or np.any(np.diff(steps) <= 0):
        raise ValueError("a snapshot file needs one state per step, in increasing step order")
    constants = _state_constants(states[0])
    if any(_state_constants(state) != constants for state in states[1:]):
        raise ValueError("the states of a snapshot file must come from one run")
    columns = zip(*(state.arrays() for state in states))
    stacked = {key: np.stack(column)
               for key, column in zip(_ARRAY_KEYS[constants["kind"]], columns)}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _replace_atomically(path, lambda fh: np.savez(
        fh, **constants, step=np.array(steps), t=np.array([state.t for state in states]),
        **stacked))


def load_snapshot(path) -> list[tuple[State, int]]:
    """The (state, step) pairs of a snapshot file, in step order, bit-exact.
    A file in the one-state layout of older rhflow versions is refused."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            data = {key: npz[key] for key in npz.files}
        per_state = _ARRAY_KEYS[str(data["kind"])] + ("t",)
        steps = data["step"]
    except Exception as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    if steps.ndim != 1:
        raise CheckpointError(f"snapshot {path} holds a single state in the old "
                              f"state_NNNNNNNN.npz layout; this rhflow reads only "
                              f"per-leg states_<first>_<last>.npz files")
    return [(_state_from_arrays({**data, **{key: data[key][i] for key in per_state}}),
             int(step)) for i, step in enumerate(steps)]


def discard_past(rundir, step: int, rows: int):
    """Drop what a failed leg wrote past the checkpoint at step, which
    committed rows series rows: every later byte of the series (a torn
    row too), and snapshot files that start after step.  A leg writes
    its series rows, then its snapshot file, then the checkpoint."""
    series = Path(rundir, "series.jsonl")
    data = series.read_bytes()
    kept = b"".join(line + b"\n" for line in data.split(b"\n")[:rows])
    if kept != data:
        _replace_atomically(series, lambda fh: fh.write(kept))
    for path in Path(rundir, SNAPSHOT_DIR).glob("states_*_*.npz"):
        if int(path.stem.split("_")[1]) > step:
            path.unlink()


# The config keys a resumed leg may change: where and how often it stops
# and records.  Any other change would continue a different run than the
# checkpoint holds.  flow.run refuses a t_end the checkpoint's t, and a
# blowup_threshold its max|Rm|, already reaches.
RESUMABLE = ("t_end", "blowup_threshold", "output_every", "snapshot_every")


def save_checkpoint(path, traj: Trajectory, representation: str, rows: int):
    """Commit a leg: its final state and monitor accumulators (MonitorState's
    fields in order), the run's config as one JSON string, and rows, the
    series rows written so far."""
    _replace_atomically(path, lambda fh: np.savez(
        fh, step=traj.steps, rows=rows, mon=np.array(astuple(traj.monitor_state)),
        config=json.dumps(config_to_dict(traj.config, representation)),
        **_state_arrays(traj.final_state)))


def load_checkpoint(path, config: FlowConfig | None = None,
                    representation: str | None = None):
    """Returns (state, steps, MonitorState, rows).  Raises CheckpointError
    on unreadable data, and, given the run's config and representation,
    on any difference from the checkpoint's config outside RESUMABLE."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "config" not in data:
                raise CheckpointError(f"checkpoint {path} has no run config; it was "
                                      f"written by an older rhflow and cannot be resumed")
            state = _state_from_arrays(data)
            steps, rows = int(data["step"]), int(data["rows"])
            vals = np.asarray(data["mon"], dtype=float)
            stored = json.loads(str(data["config"]))
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if vals.shape != (len(fields(MonitorState)),) or not np.all(np.isfinite(vals)):
        raise CheckpointError(f"checkpoint {path} has malformed monitor state")
    if config is not None:
        # the stored side went through a JSON round trip; so does this one
        wanted = json.loads(json.dumps(config_to_dict(config, representation)))
        for key in dict.fromkeys([*wanted, *stored]):
            if key not in RESUMABLE and stored.get(key) != wanted.get(key):
                raise CheckpointError(f"checkpoint {key} {stored.get(key)} does not match "
                                      f"config {key} {wanted.get(key)}")
    return state, steps, MonitorState(*vals), rows


# ---------------------------------------------------------------------------
# manifest


def write_manifest(path, config: dict, termination: str, summary: dict, files: list[str]):
    payload = {
        "version": __version__,
        "config": config,
        "termination": termination,
        "summary": summary,
        "files": sorted(files),
    }
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


def trajectory_summary(traj: Trajectory, records: int) -> dict:
    """The manifest summary of a run whose series holds records rows; the
    final values are those of the state the last leg, traj, ended on."""
    final = traj.final.monitor
    return {
        "final_t": traj.final_t,
        "steps": traj.steps,
        "records": records,
        "min_s_final": final.min_s,
        "max_rm_final": final.max_rm,
        "acc_r": final.acc_r,
        "acc_w": final.acc_w,
    }
