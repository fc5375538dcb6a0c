"""Scenario verification suite.

Runs every registry scenario, evaluates each estimate monitor at a
pinned tolerance, and reports a pass/fail table.  One table, _SUITE,
holds what differs between scenarios: the main run (through blow-up
where there is one), a short fixed-step run with uniformly spaced
records, the tolerances, and the checks only that scenario gets.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .convergence import state_error
from .flow import Trajectory, run
from .oracles import (SCENARIO_IDS, Scenario, default_scenario, exact_state, scenario_run,
                      singular_time)


@dataclass
class CheckRow:
    scenario: str
    check: str
    value: float | None
    threshold: float | None
    op: str                  # "<=", ">=", "==" (booleans use value 1.0/0.0)
    passed: bool
    note: str = ""


@dataclass
class SuiteCase:
    scenario: Scenario
    expected_termination: str
    main: dict               # run fields beyond the scenario's
    uniform: dict            # the same, for fixed steps and uniformly spaced records
    s_evolution_tol: float
    volume_residual_tol: float
    state_error_tol: float | None = None    # None: no closed form at t > 0
    ratio_spread_tol: float | None = None
    checks: tuple = ()       # the scenario's own checks, in report order


@dataclass
class VerifyReport:
    rows: list[CheckRow]
    trajectories: dict
    case_seconds: dict[str, float] = field(default_factory=dict)  # wall s per scenario id

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _run(scn: Scenario, **fields) -> Trajectory:
    """A run of scn with the given run fields, from its closed form at t = 0."""
    return run(*scenario_run(scn, **fields))


# Scenario-specific checks.  Each takes (case, trajectories, add) and
# reports through add(check, value, op, threshold, note).


def _spacetime_norms_zero(case, trajs, add):
    nr, nw = analysis.spacetime_norms(trajs["main"])
    add("spacetime_norms_zero", max(abs(nr), abs(nw)), "<=", 1e-14)


def _picker_empty(case, trajs, add):
    picks = analysis.pick_blowup_points(trajs["main"])
    add("picker_empty", len(picks) == 0, "==", None, f"{len(picks)} picks on a flat run")


def _s_min_closed_form(case, trajs, add):
    scn = case.scenario
    worst = 0.0
    for rec in trajs["main"].records:
        a = scn.a0 + scn.alpha * scn.winding**2 * rec.t
        want = -scn.alpha * scn.winding**2 / a
        worst = max(worst, abs(rec.monitor.min_s - want) / abs(want))
    add("s_min_closed_form", worst, "<=", 1e-9)


def _cylinder_norms(case, trajs, add):
    """Norms over the main run's steps to t = 0.2, recorded at each step.
    For n=4, f = 1, psi0 = 1, the integrand of int_0^t int |R|^3 dmu ds
    is 864 pi^3 (1-4s)^{-3/2}; the map part is zero."""
    scn = case.scenario
    assert scn.n == 4 and scn.psi0 == 1.0
    trajs["norms"] = norms = _run(scn, **{**case.main, "t_end": 0.2, "output_every": 1})
    nr, nw = analysis.spacetime_norms(norms)
    want = 432.0 * math.pi**3 * ((1.0 - 4.0 * norms.final_t) ** -0.5 - 1.0)
    add("spacetime_norm_r", abs(nr - want) / want, "<=", 0.01)
    add("spacetime_norm_w_zero", abs(nw), "<=", 1e-10)


def _toward_blowup(case, trajs, add):
    main = trajs["main"]
    _, ratios = analysis.curvature_ratio_diagnostic(main)
    rics = [rec.monitor.max_ric for rec in main.records]
    growth = max(rics) / max(rics[0], 1e-300)
    add("curvature_ratio_spread", np.max(ratios) / np.min(ratios), "<=",
        case.ratio_spread_tol, f"max|Ric| grew {growth:.1e}x")
    picks = analysis.pick_blowup_points(main)
    add("picker_nonempty", len(picks) > 0, "==", None, f"{len(picks)} picks")
    qs = [p.q for p in picks]
    add("picker_q_nondecreasing", all(b >= a for a, b in zip(qs, qs[1:])), "==", None)
    return picks


def _toward_blowup_at_neck(case, trajs, add):
    last = _toward_blowup(case, trajs, add)[-1]
    rec = next(r for r in trajs["main"].records if r.t == last.t)
    neck = int(np.argmin(rec.state.psi))
    add("picker_at_neck", last.index == neck, "==", None,
        f"picked index {last.index}, neck at {neck}")


# What differs between scenarios, one row per registry id: the expected
# termination, the fields of the main and uniform runs beyond the
# scenario's own, the tolerances and the scenario's own checks.
_SUITE = {
    "flat_stationary": dict(
        expected_termination="reached_t_end", checks=(_spacetime_norms_zero, _picker_empty),
        main=dict(m=32, dt=2e-3, t_end=0.5, output_every=25),
        uniform=dict(m=32, dt=2e-3, t_end=0.1, output_every=1),
        s_evolution_tol=1e-12, volume_residual_tol=1e-12, state_error_tol=1e-12),
    "torus_list": dict(
        expected_termination="reached_t_end", checks=(_spacetime_norms_zero, _s_min_closed_form),
        main=dict(m=32, dt=1e-3, t_end=1.0, output_every=20),
        uniform=dict(m=32, dt=5e-4, t_end=0.1, output_every=1),
        s_evolution_tol=1e-6, volume_residual_tol=1e-6, state_error_tol=1e-6),
    "shrinking_sphere": dict(
        expected_termination="blowup_threshold",
        main=dict(dt=1e-3, t_end=0.3, output_every=5),
        uniform=dict(dt=5e-4, t_end=0.1, output_every=1),
        s_evolution_tol=5e-3, volume_residual_tol=1e-5, state_error_tol=1e-9),
    "shrinking_cylinder": dict(
        expected_termination="blowup_threshold", checks=(_cylinder_norms, _toward_blowup),
        main=dict(m=32, dt=1e-3, t_end=0.3, output_every=2),
        uniform=dict(m=32, dt=5e-4, t_end=0.1, output_every=1),
        s_evolution_tol=5e-3, volume_residual_tol=1e-5, state_error_tol=1e-6,
        ratio_spread_tol=2.0),
    "perturbed_cylinder": dict(
        expected_termination="blowup_threshold", checks=(_toward_blowup_at_neck,),
        main=dict(m=64, t_end=0.3, output_every=5),
        uniform=dict(m=64, dt=4e-4, t_end=0.1, output_every=2),
        s_evolution_tol=5e-2, volume_residual_tol=1e-4, ratio_spread_tol=4.0),
    "perturbed_torus": dict(
        expected_termination="reached_t_end",
        main=dict(m=64, dt=4e-4, t_end=0.5, output_every=10),
        uniform=dict(m=64, dt=4e-4, t_end=0.1, output_every=2),
        s_evolution_tol=5e-2, volume_residual_tol=1e-4),
}


def build_suite() -> dict[str, SuiteCase]:
    """One case per registry id: its _SUITE row on its default scenario."""
    return {sid: SuiteCase(default_scenario(sid), **_SUITE[sid]) for sid in SCENARIO_IDS}


def evaluate_case(case: SuiteCase) -> tuple[list[CheckRow], dict[str, Trajectory]]:
    """The checks every scenario gets, then the case's own."""
    scn = case.scenario
    rows: list[CheckRow] = []

    def add(check, value, op, threshold, note=""):
        if op == "<=":
            ok = value <= threshold
        elif op == ">=":
            ok = value >= threshold
        else:
            ok = bool(value)
        rows.append(CheckRow(scn.id, check, float(value), threshold, op, bool(ok), note))

    main, uni = _run(scn, **case.main), _run(scn, **case.uniform)
    trajs = {"main": main, "uniform": uni}
    add("termination", main.termination == case.expected_termination, "==", None,
        f"expected {case.expected_termination}, got {main.termination}")

    add("min_s_monotone", analysis.check_min_S_monotone(main), "<=", 1e-8)
    add("gradient_margin", analysis.check_gradient_bound(main), ">=", -1e-8)
    add("distortion_excess", analysis.check_metric_distortion(main), "<=", analysis.EPS0)
    _, vol_margin = analysis.check_volume_evolution(main)
    add("volume_lower_bound", vol_margin, ">=", -1e-10)

    phi_viol = analysis.check_phi_max_principle(main)
    if phi_viol is None:
        rows.append(CheckRow(scn.id, "phi_max_principle", None, None, "==", True,
                             "skipped: circle-valued phi (nonzero winding)"))
    else:
        osc0 = main.records[0].monitor.phi_max - main.records[0].monitor.phi_min
        add("phi_max_principle", phi_viol, "<=", 1e-8 * osc0 + 1e-12)

    add("s_evolution_residual", analysis.monitor_S_evolution(uni), "<=",
        case.s_evolution_tol)
    vol_resid, _ = analysis.check_volume_evolution(uni)
    add("volume_residual", vol_resid, "<=", case.volume_residual_tol)

    t_sing = singular_time(scn)
    if t_sing is not None:
        add("blowup_time", abs(main.final_t - t_sing) / t_sing, "<=", 0.01,
            f"terminated at t={main.final_t:.6f}, exact {t_sing}")

    if case.state_error_tol is not None:
        worst = 0.0
        for rec in uni.records:
            exact = exact_state(scn, rec.t, uni.config.m)
            worst = max(worst, state_error(rec.state, exact))
        add("state_vs_exact", worst, "<=", case.state_error_tol)

    for check in case.checks:
        check(case, trajs, add)
    return rows, trajs


def run_verification(ids=None) -> VerifyReport:
    suite = build_suite()
    if ids is None:
        ids = list(suite)
    report = VerifyReport([], {})
    for sid in ids:
        if sid not in suite:
            raise ValueError(f"unknown scenario {sid!r}; expected one of {sorted(suite)}")
        start = time.perf_counter()
        case_rows, trajs = evaluate_case(suite[sid])
        report.case_seconds[sid] = time.perf_counter() - start
        report.rows.extend(case_rows)
        for name, traj in trajs.items():
            report.trajectories[(sid, name)] = traj
    return report


def format_report(report: VerifyReport) -> str:
    lines = [f"{'scenario':<20} {'check':<26} {'value':>12} {'threshold':>12}  status"]
    lines.append("-" * len(lines[0]))
    for row in report.rows:
        value = "-" if row.value is None else f"{row.value:.3e}"
        thr = "-" if row.threshold is None else f"{row.op} {row.threshold:.0e}"
        status = "PASS" if row.passed else "FAIL"
        note = f"  ({row.note})" if row.note and not row.passed else ""
        lines.append(f"{row.scenario:<20} {row.check:<26} {value:>12} {thr:>12}  {status}{note}")
    total = len(report.rows)
    good = sum(row.passed for row in report.rows)
    lines.append(f"{good}/{total} checks passed")
    return "\n".join(lines)
