"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""
import math

import numpy as np
import pytest

from rhflow import analysis
from rhflow.analysis import fit_order
from rhflow.christoffel import curvature_oracle_check
from rhflow.cli import main
from rhflow.convergence import s_residual_study
from rhflow.flow import FlowConfig, run
from rhflow.geometry import (Factor, Fiber, Grid, HomogeneousState, WarpedState,
                             compute_curvature, scale_state)
from rhflow.oracles import Scenario, exact_state
from rhflow.runio import read_manifest
from rhflow.verification import run_verification


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"[criterion {num:02d}] {status}: {desc}{extra}")
    assert ok, f"criterion {num}: {desc}{extra}"


@pytest.fixture(scope="module")
def suite():
    return run_verification()


def _rows(suite, check):
    return [row for row in suite.rows if row.check == check]


def test_criterion_01_oracle_trajectory_accuracy():
    scn = Scenario("torus_list", 2, 1.0, a0=1.0, winding=1)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=1.0, m=16, dt=1e-3, t_end=1.0,
                     output_every=100)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    torus_err = max(abs(rec.state.f[0] ** 2 - (1.0 + rec.t)) / (1.0 + rec.t)
                    for rec in traj.records)

    scn = Scenario("shrinking_cylinder", 4, 0.0, psi0=1.0)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=0.0, m=16, dt=1e-3, t_end=0.2,
                     output_every=10)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    cyl_err = max(abs(rec.state.psi[0] ** 2 - (1.0 - 4.0 * rec.t))
                  / (1.0 - 4.0 * rec.t) for rec in traj.records)

    _report(1, "closed-form trajectories tracked to 1e-6 relative",
            torus_err <= 1e-6 and cyl_err <= 1e-6,
            f"torus {torus_err:.2e}, cylinder {cyl_err:.2e}")


def test_criterion_02_blowup_time(suite):
    traj = suite.trajectories[("shrinking_cylinder", "main")]
    dev = abs(traj.final_t - 0.25) / 0.25
    _report(2, "cylinder blow-up within 1% of the singular time 0.25",
            traj.termination == "blowup_threshold" and dev <= 0.01,
            f"t={traj.final_t:.6f}, deviation {dev:.2e}")


def test_criterion_03_curvature_oracle_convergence():
    rng = np.random.default_rng(1789)
    ms = (64, 128, 256)
    hs = [2.0 * math.pi / m for m in ms]
    orders = []
    for _ in range(5):
        seed = rng.integers(0, 2**32)
        errors = []
        for m in ms:
            srng = np.random.default_rng(seed)
            x = Grid(m).x
            modes = np.arange(1, 4)
            def trig(scale):
                a = srng.uniform(-scale, scale, size=3)
                b = srng.uniform(-scale, scale, size=3)
                return (a[None, :] * np.cos(np.outer(x, modes))
                        + b[None, :] * np.sin(np.outer(x, modes))).sum(axis=1)
            state = WarpedState(4, Fiber.ROUND_SPHERE, 0.8, 1.0 + trig(0.04),
                                2.0 + trig(0.12), int(srng.integers(0, 2)),
                                trig(0.08))
            errors.append(curvature_oracle_check(state))
        orders.append(fit_order(hs, errors))
    _report(3, "FD Christoffel oracle agrees at order >= 1.9 on 5 random states",
            all(o >= 1.9 for o in orders),
            "orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_04_s_evolution_identity(suite):
    scn = Scenario("perturbed_cylinder", 4, 1.0, winding=0, amplitude=0.05)
    study = s_residual_study(scn, [32, 64, 128], theta=0.05, t_star=0.05)
    torus_resid = analysis.monitor_S_evolution(
        suite.trajectories[("torus_list", "uniform")])
    _report(4, "evolution identity: order >= 1.9 joint refinement; torus <= 1e-6",
            study.order >= 1.9 and torus_resid <= 1e-6,
            f"order {study.order:.2f}, torus residual {torus_resid:.2e}")


def test_criterion_05_minimum_principle(suite):
    worst = max(analysis.check_min_S_monotone(traj)
                for traj in suite.trajectories.values())
    _report(5, "min S nondecreasing across the scenario suite (1e-8 per step)",
            worst <= 1e-8, f"worst normalized decrease {worst:.2e}")


def test_criterion_06_gradient_bound(suite):
    margins = {key: analysis.check_gradient_bound(traj)
               for key, traj in suite.trajectories.items()
               if traj.records[0].state.alpha > 0}
    worst = min(margins.values())
    _report(6, "gradient-bound margin >= -1e-8 on every run with alpha > 0",
            worst >= -1e-8, f"worst margin {worst:.2e} over {len(margins)} runs")


def test_criterion_07_metric_distortion(suite):
    worst = max(analysis.check_metric_distortion(traj)
                for traj in suite.trajectories.values())
    _report(7, "coefficient and arc-length distortion within measured C (eps0=1e-8)",
            worst <= 1e-8, f"worst excess {worst:.2e}")


def test_criterion_08_volume_control(suite):
    orders = []
    for scn, t_end in ((Scenario("shrinking_cylinder", 4, 0.0), 0.2),
                       (Scenario("torus_list", 2, 1.0, winding=1), 0.5)):
        spacings, resids = [], []
        for every in (8, 4, 2):
            cfg = FlowConfig(scenario=scn.id, n=scn.n, alpha=scn.alpha, m=16,
                             dt=5e-4, t_end=t_end, output_every=every,
                             blowup_threshold=1e6)
            traj = run(cfg, exact_state(scn, 0.0, 16))
            resid, _ = analysis.check_volume_evolution(traj)
            spacings.append(every * 5e-4)
            resids.append(resid)
        orders.append(fit_order(spacings, resids))
    margin = min(analysis.check_volume_evolution(traj)[1]
                 for traj in suite.trajectories.values())
    _report(8, "volume identity refines at O(dt^2); exponential lower bound holds",
            all(o >= 1.9 for o in orders) and margin >= -1e-10,
            f"orders {orders[0]:.2f}/{orders[1]:.2f}, worst margin {margin:.2e}")


def test_criterion_09_parabolic_rescaling(suite):
    state = suite.trajectories[("shrinking_cylinder", "main")].records[-1].state
    fields = compute_curvature(state)
    q = fields.max_rm
    rescaled = analysis.parabolic_rescale(state, q)
    new = compute_curvature(rescaled)
    rm_dev = abs(new.max_rm - 1.0)
    s_dev = float(np.max(np.abs(new.s_scalar - fields.s_scalar / q))) \
        / (1.0 + float(np.max(np.abs(fields.s_scalar / q))))

    # flow-then-rescale versus rescale-then-flow on a smooth coupled state
    m, tau, dt, qq = 32, 0.02, 2e-4, 4.0
    x = Grid(m).x
    smooth = WarpedState(4, Fiber.ROUND_SPHERE, 0.7, 1.0 + 0.05 * np.sin(x),
                         1.0 + 0.05 * np.cos(x), 1, 0.1 * np.sin(x))
    cfg_a = FlowConfig(scenario="custom", n=4, alpha=0.7, m=m, dt=dt, t_end=tau,
                       output_every=10**6, rate_limit=1e9)
    path_a = scale_state(run(cfg_a, smooth).final_state, qq)
    cfg_b = FlowConfig(scenario="custom", n=4, alpha=0.7, m=m, dt=qq * dt,
                       t_end=qq * tau, output_every=10**6, rate_limit=1e9)
    path_b = run(cfg_b, scale_state(smooth, qq)).final_state
    commute_dev = max(
        float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(a))))
        for a, b in ((path_a.f, path_b.f), (path_a.psi, path_b.psi),
                     (path_a.u, path_b.u)))

    _report(9, "rescaling laws at 1e-12; flow/rescale commute at 1e-8",
            rm_dev <= 1e-12 and s_dev <= 1e-12 and commute_dev <= 1e-8,
            f"|Rm| dev {rm_dev:.1e}, S dev {s_dev:.1e}, commute {commute_dev:.1e}")


def test_criterion_10_ball_volume_expansion():
    s3 = HomogeneousState(3, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 3),))
    c = analysis.ball_volume_expansion_fit(s3, np.linspace(0.05, 0.2, 7))
    flat = HomogeneousState(3, 0.0, tuple(Factor(1.0, Fiber.FLAT_TORUS, 1)
                                          for _ in range(3)))
    c_flat = analysis.ball_volume_expansion_fit(flat, np.linspace(0.05, 0.2, 7))
    _report(10, "ball-volume coefficient: S^3 fit = 0.2 within 2%, flat exactly 0",
            abs(c - 0.2) <= 0.02 * 0.2 and c_flat == 0.0,
            f"S^3 fit {c:.5f}, flat {c_flat}")


def test_criterion_11_curvature_ratio_diagnostic(suite):
    cyl = suite.trajectories[("shrinking_cylinder", "main")]
    rics = [rec.monitor.max_ric for rec in cyl.records]
    growth = max(rics) / rics[0]
    _, ratios = analysis.curvature_ratio_diagnostic(cyl)
    cyl_spread = float(np.max(ratios) / np.min(ratios))
    pert = suite.trajectories[("perturbed_cylinder", "main")]
    _, ratios_p = analysis.curvature_ratio_diagnostic(pert)
    pert_spread = float(np.max(ratios_p) / np.min(ratios_p))
    _report(11, "max|Rm|/(1+max|Ric|) spread <= 2 (cylinder), <= 4 (perturbed)",
            growth >= 100.0 and cyl_spread <= 2.0 and pert_spread <= 4.0,
            f"Ric growth {growth:.1e}, spreads {cyl_spread:.2f}/{pert_spread:.2f}")


def test_criterion_12_spacetime_norms(suite):
    traj = suite.trajectories[("shrinking_cylinder", "norms")]
    nr, _ = analysis.spacetime_norms(traj)
    want = 432.0 * math.pi**3 * ((1.0 - 4.0 * traj.final_t) ** -0.5 - 1.0)
    rel = abs(nr - want) / want
    flat = suite.trajectories[("flat_stationary", "main")]
    nr_flat, nw_flat = analysis.spacetime_norms(flat)
    _report(12, "curvature norm accumulator matches closed form to 1%; flat gives 0",
            rel <= 0.01 and nr_flat == 0.0 and nw_flat == 0.0,
            f"cylinder rel err {rel:.2e}")


def test_criterion_13_determinism_and_resume(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "scenario: shrinking_cylinder\nn: 4\nalpha: 0.0\nt_end: 0.3\nm: 16\n"
        "dt: 1.0e-3\nblowup_threshold: 1.0e6\noutput_every: 10\nsnapshot_every: 100\n")
    out1, out2, part = tmp_path / "r1", tmp_path / "r2", tmp_path / "part"
    assert main(["run", str(config), "-o", str(out1)]) == 0
    assert main(["run", str(config), "-o", str(out2)]) == 0
    identical = (out1 / "series.jsonl").read_bytes() == (out2 / "series.jsonl").read_bytes()

    assert main(["run", str(config), "-o", str(part), "--max-steps", "123"]) == 0
    assert main(["resume", str(part)]) == 0
    resumed = (part / "series.jsonl").read_bytes() == (out1 / "series.jsonl").read_bytes()
    done = read_manifest(part / "manifest.json")["termination"] == "blowup_threshold"
    _report(13, "byte-identical reruns; resumed run equals uninterrupted run",
            identical and resumed and done)
