"""The monitors settle in stacks, and nothing they report depends on it.

MonitorState queues the accepted steps and the records of a run and
settles them in one pass over up to analysis.MONITOR_STACK rows.  Runs
with the stack patched to 1 (every row settled alone) and to 7 (a size
that none of the cadences below divides) must equal the default bit for
bit: every MonitorRecord, the final record, the final MonitorState and the
run files.  Every run also checks that flow.run returns with nothing
queued.
"""
import dataclasses
import warnings

import numpy as np
import pytest

from rhflow import analysis, cli, flow, verification
from rhflow.cli import main
from rhflow.flow import FlowConfig
from rhflow.geometry import Fiber, WarpedState
from rhflow.oracles import Scenario, scenario_run

SIZES = [1, 7]

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


def _settled_run(run):
    """flow.run asserting that the run left nothing queued."""
    def checked(*args, **kwargs):
        traj = run(*args, **kwargs)
        assert traj.monitor_state.queued == 0
        return traj
    return checked


def _patched(monkeypatch, size):
    """Runs as every caller sees them, with a stack of `size` rows (None:
    the default) and the queue checked when each returns."""
    if size is not None:
        monkeypatch.setattr(analysis, "MONITOR_STACK", size)
    checked = _settled_run(flow.run)
    for module in (flow, cli, verification):
        monkeypatch.setattr(module, "run", checked)


def _floats(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def monitor_bytes(traj):
    """Every number the monitors produced for a trajectory, as bytes."""
    records = [(rec.step, rec.t, *dataclasses.astuple(rec.monitor)) for rec in traj.records]
    final = (traj.final.step, traj.final.t, *dataclasses.astuple(traj.final.monitor))
    return (traj.termination, _floats(records), _floats(final),
            _floats(dataclasses.astuple(traj.monitor_state)))


def verification_bytes():
    report = verification.run_verification()
    return {key: monitor_bytes(traj) for key, traj in report.trajectories.items()}


@pytest.fixture(scope="module")
def default_verification():
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patched(monkeypatch, None)
        return verification_bytes()


@pytest.mark.parametrize("size", SIZES)
def test_verification_trajectories_do_not_depend_on_the_stack(monkeypatch, size,
                                                               default_verification):
    _patched(monkeypatch, size)
    assert verification_bytes() == default_verification


def directory_bytes(rundir):
    return {str(p.relative_to(rundir)): p.read_bytes()
            for p in sorted(rundir.rglob("*")) if p.is_file()}


def cli_runs(tmp_path, size, monkeypatch):
    """Run directories of CYLINDER_CONFIG, whole and split at 37 and 137
    steps then resumed, under a stack of `size` rows."""
    with monkeypatch.context() as patch:
        _patched(patch, size)
        config = tmp_path / "config.yaml"
        config.write_text(CYLINDER_CONFIG)
        whole, split = tmp_path / f"whole{size}", tmp_path / f"split{size}"
        assert main(["run", str(config), "-o", str(whole)]) == 0
        assert main(["run", str(config), "-o", str(split), "--max-steps", "37"]) == 0
        assert main(["resume", str(split), "--max-steps", "137"]) == 0
        assert main(["resume", str(split)]) == 0
    return directory_bytes(whole), directory_bytes(split)


@pytest.mark.parametrize("size", SIZES)
def test_cli_run_and_resume_do_not_depend_on_the_stack(tmp_path, monkeypatch, size):
    whole, split = cli_runs(tmp_path, size, monkeypatch)
    assert (whole, split) == cli_runs(tmp_path, None, monkeypatch)
    assert whole["series.jsonl"] == split["series.jsonl"]


def overflow_run():
    # |R|^{(n+2)/2} is beyond float64 from the first step on: the spacetime
    # integrals read +inf
    cfg, initial = scenario_run(Scenario("perturbed_cylinder", n=200, alpha=1.0), m=16,
                                t_end=0.3, output_every=3)
    return cfg, initial


def nonfinite_run():
    # an unreachable threshold: the pinch stalls the step size
    m = 16
    state = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), np.ones(m))
    cfg = FlowConfig(scenario="custom", n=4, alpha=0.0, m=m, t_end=0.3, dt=1e-3,
                     blowup_threshold=1e250, output_every=9)
    return cfg, state


def homogeneous_run():
    # circle factors whose map slope grows them at alpha w^2
    return scenario_run(Scenario("torus_list", n=2, alpha=1.0, winding=2), "homogeneous",
                        t_end=1.0, dt=1e-2, output_every=3)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("make", [overflow_run, nonfinite_run, homogeneous_run],
                         ids=["overflowed_integrals", "nonfinite", "homogeneous"])
def test_library_runs_do_not_depend_on_the_stack(monkeypatch, size, make):
    def runs():
        cfg, initial = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            whole = flow.run(cfg, initial)
            first = flow.run(cfg, initial, stop_after_steps=11)
            rest = flow.run(cfg, first.final_state, steps_done=11,
                            monitor_state=first.monitor_state)
        return whole, monitor_bytes(whole), monitor_bytes(first), monitor_bytes(rest)

    with monkeypatch.context() as patch:
        _patched(patch, None)
        whole, *default = runs()
    _patched(monkeypatch, size)
    assert runs()[1:] == tuple(default)
    expected = {overflow_run: "blowup_threshold", nonfinite_run: "nonfinite",
                homogeneous_run: "reached_t_end"}[make]
    assert whole.termination == expected and whole.steps > 2 * analysis.MONITOR_STACK
    if make is overflow_run:
        assert whole.monitor_state.acc_r == np.inf == whole.records[-1].monitor.acc_r


def test_monitor_state_settles_only_what_it_queued():
    cfg, initial = nonfinite_run()
    traj = flow.run(cfg, initial, stop_after_steps=5)
    monitor_state = traj.monitor_state
    before = dataclasses.astuple(monitor_state)
    assert monitor_state.queued == 0 and monitor_state.settle() == []
    assert dataclasses.astuple(monitor_state) == before
