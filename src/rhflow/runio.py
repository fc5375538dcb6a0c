"""On-disk formats: config files, time series, snapshots, checkpoints,
manifests.

One canonical config format (YAML, documented in the README), one
line-delimited JSON time-series format, and float64 .npz snapshots
chosen so checkpointed state round-trips bit-exactly for resume.
"""
from __future__ import annotations

import json
from dataclasses import asdict, fields
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
    """Unreadable or inconsistent checkpoint file."""


# ---------------------------------------------------------------------------
# config


def _typed(cls, values: dict) -> dict:
    """values with each entry converted to the int (whole numbers only) or
    float that the dataclass cls annotates for it (YAML reads 1e-3 as a
    string); None stays None where the annotation allows it.  A boolean
    is not taken as a number."""
    kinds = {fld.name: fld.type for fld in fields(cls)}
    out = {}
    for key, value in values.items():
        kind = kinds[key]
        if kind in _NUMBER and not (value is None and kind.endswith("None")):
            if isinstance(value, bool):
                raise ConfigError(f"field {key!r} must be a number, got {value!r}")
            number = float(value)
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

    try:
        scn = Scenario(scenario_id, **_typed(Scenario, dict(params, n=raw["n"],
                                                            alpha=raw["alpha"])))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc

    representation = raw.get("representation", spec.representations[0])
    if representation not in spec.representations:
        raise ConfigError(f"scenario {scenario_id!r} has no {representation!r} "
                          f"representation; it has {spec.representations}")

    settings = {key: raw[key] for key in raw if key not in ("representation", "params")}
    settings.update(n=scn.n, alpha=scn.alpha)
    try:
        cfg = FlowConfig(**_typed(FlowConfig, settings), fiber=spec.fiber,
                         params=dict(params))
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
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ---------------------------------------------------------------------------
# snapshots and checkpoints


def _state_arrays(state: State) -> dict:
    if isinstance(state, WarpedState):
        return dict(kind="warped", n=state.n, alpha=state.alpha, t=state.t,
                    fiber=state.fiber.value, winding=state.winding,
                    f=state.f, psi=state.psi, u=state.u)
    return dict(kind="homogeneous", n=state.n, alpha=state.alpha, t=state.t,
                coeffs=state.coefficients(),
                factor_kinds=np.array([fac.kind.value for fac in state.factors]),
                factor_dims=np.array([fac.dim for fac in state.factors]),
                factor_slopes=np.array([fac.slope for fac in state.factors]))


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


def save_snapshot(path, state: State, step: int):
    np.savez(path, step=step, **_state_arrays(state))


def load_snapshot(path) -> tuple[State, int]:
    with np.load(path, allow_pickle=False) as data:
        return _state_from_arrays(data), int(data["step"])


def save_checkpoint(path, traj: Trajectory):
    mon = traj.monitor_state
    np.savez(path, step=traj.steps,
             mon=np.array([mon.min_s0, mon.sup_r, mon.acc_r, mon.acc_w,
                           mon.prev_t, mon.prev_ir, mon.prev_iw, mon.eps0]),
             scenario=traj.config.scenario,
             **_state_arrays(traj.final_state))


def load_checkpoint(path, config: FlowConfig | None = None,
                    representation: str | None = None):
    """Returns (state, steps, MonitorState).  Raises CheckpointError on
    unreadable or inconsistent data, also with the given config and
    representation."""
    try:
        with np.load(path, allow_pickle=False) as data:
            state = _state_from_arrays(data)
            steps = int(data["step"])
            vals = np.asarray(data["mon"], dtype=float)
            stored = dict(scenario=str(data["scenario"]), representation=str(data["kind"]))
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if vals.shape != (8,) or not np.all(np.isfinite(vals)):
        raise CheckpointError(f"checkpoint {path} has malformed monitor state")
    for key in ("scenario", "representation", "n", "alpha", "fiber", "m"):
        found = stored.get(key, getattr(state, key, None))  # fiber, m: warped states only
        want = representation if key == "representation" else getattr(config, key, None)
        if found is not None and want is not None and found != want:
            raise CheckpointError(f"checkpoint {key} {found} does not match config {key} {want}")
    mon = MonitorState(min_s0=vals[0], sup_r=vals[1], acc_r=vals[2], acc_w=vals[3],
                       prev_t=vals[4], prev_ir=vals[5], prev_iw=vals[6], eps0=vals[7])
    return state, steps, mon


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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict | None:
    p = Path(path)
    if not p.exists():
        return None
    return json.loads(p.read_text())


def trajectory_summary(traj: Trajectory) -> dict:
    last = traj.records[-1].monitor if traj.records else None
    return {
        "final_t": traj.final_t,
        "steps": traj.steps,
        "records": len(traj.records),
        "min_s_final": None if last is None else last.min_s,
        "max_rm_final": None if last is None else last.max_rm,
        "acc_r": None if last is None else last.acc_r,
        "acc_w": None if last is None else last.acc_w,
    }
