"""The benchmark's workloads: inputs made from a seed, the run, its gates.

Each workload has ``setup(seed, tmpdir)``, which builds the configs,
initial data and directories the run needs, and ``run(inputs)``, which
calls rhflow through its public module attributes (so a Tracer sees
every call) and returns the correctness gates and a digest of every
record the program produced.  rhflow receives only the generated
WarpedState/FlowConfig or config file, never the seed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random

import numpy as np

from rhflow import analysis, christoffel, cli, flow, verification
from rhflow.geometry import Fiber, Grid, WarpedState

NECK_AMPLITUDE = 0.05
# Blow-up time of the perturbed_cylinder neck (n=4, alpha=1), as the
# verification suite measures it; the gate allows 1%.
NECK_BLOWUP_TIME = 0.230415


class Gates:
    """Correctness gates of one repetition: (name, passed, value)."""

    def __init__(self):
        self.rows: list[tuple[str, bool, object]] = []

    def check(self, name: str, passed, value=None):
        self.rows.append((name, bool(passed), value))

    @property
    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.rows if not passed]


# ---------------------------------------------------------------------------
# shared helpers


def neck_state(seed: int, m: int) -> WarpedState:
    """perturbed_cylinder initial data psi = 1 + 0.05 sin(x - theta) with
    the neck phase theta drawn from the seed."""
    theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    psi = 1.0 + NECK_AMPLITUDE * np.sin(Grid(m).x - theta)
    return WarpedState(4, Fiber.ROUND_SPHERE, 1.0, np.ones(m), psi, 0, np.zeros(m), 0.0)


def neck_config(m: int, t_end: float = 0.3, **kw) -> flow.FlowConfig:
    return flow.FlowConfig(scenario="perturbed_cylinder", n=4, alpha=1.0,
                           fiber=Fiber.ROUND_SPHERE, m=m, t_end=t_end, **kw)


def _hash_trajectory(h, traj):
    for rec in traj.records:
        state = rec.state
        if isinstance(state, WarpedState):
            arrays = (state.f, state.psi, state.u)
        else:
            arrays = (state.coefficients(),)
        h.update(np.float64(rec.t).tobytes())
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        values = [getattr(rec.monitor, fld.name) for fld in dataclasses.fields(rec.monitor)]
        h.update(np.asarray(values, dtype=np.float64).tobytes())
    h.update(repr((traj.termination, traj.steps)).encode())


def trajectory_digest(*trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        _hash_trajectory(h, traj)
    return h.hexdigest()


def _main_run_gates(gates: Gates, traj):
    """The estimate gates the verification suite applies to a main run."""
    gates.check("min_s_monotone", analysis.check_min_S_monotone(traj) <= 1e-8)
    gates.check("gradient_margin", analysis.check_gradient_bound(traj) >= -1e-8)
    _, margin = analysis.check_volume_evolution(traj)
    gates.check("volume_lower_bound", margin >= -1e-10, margin)
    violation = analysis.check_phi_max_principle(traj)
    first = traj.records[0].monitor
    tol = 1e-8 * (first.phi_max - first.phi_min) + 1e-12
    gates.check("phi_max_principle", violation is not None and violation <= tol, violation)


# ---------------------------------------------------------------------------
# blowup_run: step control and per-step kernels, no post-hoc analysis, no I/O


class BlowupRun:
    @staticmethod
    def setup(seed, tmpdir):
        return neck_config(256, output_every=10), neck_state(seed, 256)

    @staticmethod
    def run(inputs):
        config, initial = inputs
        traj = flow.run(config, initial)
        gates = Gates()
        gates.check("termination", traj.termination == "blowup_threshold", traj.termination)
        err = abs(traj.final_t - NECK_BLOWUP_TIME) / NECK_BLOWUP_TIME
        gates.check("blowup_time", err <= 0.01, traj.final_t)
        _main_run_gates(gates, traj)
        return gates, trajectory_digest(traj)


# ---------------------------------------------------------------------------
# estimate_audit: every estimate monitor over a densely recorded run


class EstimateAudit:
    @staticmethod
    def setup(seed, tmpdir):
        main = neck_config(192, output_every=1)
        uniform = neck_config(192, dt=1e-4, t_end=0.1, output_every=1)
        return main, uniform, neck_state(seed, 192)

    @staticmethod
    def run(inputs):
        main_cfg, uniform_cfg, initial = inputs
        main = flow.run(main_cfg, initial)
        uniform = flow.run(uniform_cfg, initial)
        gates = Gates()
        gates.check("termination", main.termination == "blowup_threshold", main.termination)
        _main_run_gates(gates, main)
        distortion = analysis.check_metric_distortion(main)
        gates.check("distortion_excess", distortion <= 1e-8, distortion)
        residual, _ = analysis.check_volume_evolution(uniform)
        gates.check("volume_residual", residual <= 1e-4, residual)
        s_residual = analysis.monitor_S_evolution(uniform)
        gates.check("s_evolution_residual", s_residual <= 5e-2, s_residual)

        picks = analysis.pick_blowup_points(main)
        gates.check("picker_nonempty", len(picks) > 0, len(picks))
        qs = [p.q for p in picks]
        gates.check("picker_q_nondecreasing", all(b >= a for a, b in zip(qs, qs[1:])))
        last = picks[-1] if picks else None
        rec = next((r for r in main.records if last and r.t == last.t), None)
        gates.check("picker_at_neck",
                    rec is not None and last.index == int(np.argmin(rec.state.psi)))
        try:
            if rec is not None:
                analysis.parabolic_rescale(rec.state, last.q)
            rescaled = rec is not None
        except ValueError:
            rescaled = False
        gates.check("parabolic_rescale", rescaled)
        oracle = christoffel.curvature_oracle_check(initial)
        gates.check("curvature_oracle", oracle <= 5e-3, oracle)
        return gates, trajectory_digest(main, uniform)


# ---------------------------------------------------------------------------
# verify_suite: many short runs, per-call overhead


class VerifySuite:
    @staticmethod
    def setup(seed, tmpdir):
        # The suite is fixed; the seed is ignored on purpose.
        return None

    @staticmethod
    def run(inputs):
        report = verification.run_verification()
        gates = Gates()
        h = hashlib.sha256()
        for row in report.rows:
            gates.check(f"{row.scenario}.{row.check}", row.passed, row.value)
            h.update(repr((row.scenario, row.check, row.value, row.passed)).encode())
        for key in sorted(report.trajectories):
            _hash_trajectory(h, report.trajectories[key])
        return gates, h.hexdigest()


# ---------------------------------------------------------------------------
# checkpoint_io: the CLI's run / resume path and every on-disk format


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
TORUS_STEPS = 1250
SPLITS = 4


class CheckpointIO:
    @staticmethod
    def setup(seed, tmpdir):
        config = tmpdir / "config.yaml"
        config.write_text(TORUS_CONFIG)
        splits = sorted(random.Random(seed).sample(range(1, TORUS_STEPS), SPLITS))
        full, chain = tmpdir / "full", tmpdir / "chain"
        full.mkdir()
        chain.mkdir()
        return config, full, chain, splits

    @staticmethod
    def run(inputs):
        config, full, chain, splits = inputs
        gates = Gates()
        with contextlib.redirect_stdout(io.StringIO()):
            gates.check("run", cli.main(["run", str(config), "-o", str(full)]) == 0)
            code = cli.main(["run", str(config), "-o", str(chain), "--max-steps", str(splits[0])])
            gates.check(f"run_to_{splits[0]}", code == 0)
            for split in splits[1:]:
                code = cli.main(["resume", str(chain), "--max-steps", str(split)])
                gates.check(f"resume_to_{split}", code == 0)
            gates.check("resume_to_end", cli.main(["resume", str(chain)]) == 0)
        full_series = (full / "series.jsonl").read_bytes()
        chain_series = (chain / "series.jsonl").read_bytes()
        gates.check("series_identical", full_series == chain_series)
        return gates, hashlib.sha256(full_series + chain_series).hexdigest()


WORKLOADS = {
    "blowup_run": BlowupRun,
    "estimate_audit": EstimateAudit,
    "verify_suite": VerifySuite,
    "checkpoint_io": CheckpointIO,
}
