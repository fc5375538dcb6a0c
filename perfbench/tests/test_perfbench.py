"""Tests of the benchmark itself (not part of rhflow's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rhflow import flow  # noqa: E402

SEED = 7

# Per-layer metrics that must be nonzero on the workload where the layer runs.
LAYER_RUNS = {
    "blowup_run": ("flow.steps", "flow.cfl_share", "flow.rhs.calls", "flow.rhs.us",
                   "flow.step_us.p99", "flow.run.self_s", "geometry.curvature.flow.calls",
                   "geometry.warped_states_per_step", "analysis.records",
                   "analysis.monitor_update.us"),
    "estimate_audit": tuple(f"analysis.{check}.s" for check in tracer.ANALYSIS_CHECKS)
    + ("geometry.curvature.analysis.calls", "christoffel.oracle_check.s"),
    "verify_suite": tuple(f"verification.case.{sid}.s" for sid in tracer.SCENARIO_IDS)
    + ("verification.rows", "oracles.exact_state.calls"),
    "checkpoint_io": ("runio.save_snapshot.calls", "runio.save_snapshot.us", "runio.series.s",
                      "runio.checkpoint.s", "runio.read_series.s", "runio.bytes_written",
                      "cli.run.self_s", "cli.resume.self_s"),
}


def _targets():
    for owner_path, attr, *_ in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS:
        owner = tracer._resolve(owner_path)
        yield owner, attr, vars(owner)[attr]


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_bit_for_bit(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    gates, plain = workload.run(workload.setup(SEED, tmp_path / "plain"))
    assert not gates.failed

    originals = list(_targets())
    trace = tracer.Tracer()
    with trace.installed():
        traced_gates, traced = workload.run(workload.setup(SEED, tmp_path / "traced"))
    assert traced == plain
    assert traced_gates.rows == gates.rows
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)

    summary = trace.summary()
    assert set(summary) == _per_layer_names() - {"trace.overhead_s", "host.slowdown"}
    for metric in LAYER_RUNS[name]:
        assert summary[metric] > 0.0, metric
    if name == "verify_suite":
        assert summary["verification.rows"] == len(gates.rows)


def test_wrappers_restored_on_error():
    originals = list(_targets())
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with trace.installed():
            assert all(hasattr(vars(owner)[attr], "__wrapped__")
                       for owner, attr, _ in originals)
            raise RuntimeError("inside the traced region")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_host_speed_sampling_leaves_records_unchanged(tmp_path):
    # checkpoint_io does file I/O, which the sampler's signals interrupt.
    workload = workloads.CheckpointIO
    (tmp_path / "plain").mkdir()
    (tmp_path / "sampled").mkdir()
    _, plain = workload.run(workload.setup(SEED, tmp_path / "plain"))

    previous = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed()
    host.start()
    try:
        begin = time.perf_counter()
        gates, sampled = workload.run(workload.setup(SEED, tmp_path / "sampled"))
        end = time.perf_counter()
    finally:
        host.stop()
    assert sampled == plain
    assert not gates.failed
    assert signal.getsignal(signal.SIGALRM) is previous

    net, slowdown = host.window(begin, end)
    assert len(host.samples) > 10
    assert 0.0 < net < end - begin
    assert slowdown > 0.0


def test_gates_bite_on_coupling_sign_mutation(monkeypatch):
    monkeypatch.setattr(flow, "_COUPLING_SIGN", -1.0)
    gates, _ = workloads.VerifySuite.run(workloads.VerifySuite.setup(SEED, None))
    assert len(gates.rows) > 0
    assert len(gates.failed) > 0


def test_launcher_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blowup_run",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
