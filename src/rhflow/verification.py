"""Scenario verification suite.

Runs the closed-form and perturbed scenarios, evaluates every estimate
monitor at a pinned tolerance, and reports a pass/fail table.  Each
scenario gets a main run (through blow-up where applicable) plus, where
a monitor needs uniformly spaced snapshots or a smooth window, short
fixed-step auxiliary runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .convergence import state_error
from .flow import FlowConfig, Trajectory, run
from .geometry import WarpedState
from .oracles import SCENARIOS, Scenario, default_scenario, exact_state, singular_time


@dataclass
class CheckRow:
    scenario: str
    check: str
    value: float | None
    threshold: float | None
    op: str                  # "<=", ">=", "==" (booleans use value 1.0/0.0)
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "check": self.check, "value": self.value,
                "threshold": self.threshold, "op": self.op, "passed": self.passed,
                "note": self.note}


@dataclass
class SuiteCase:
    scenario: Scenario
    representation: str
    expected_termination: str
    main: FlowConfig
    uniform: FlowConfig | None = None
    extras: dict = field(default_factory=dict)
    s_evolution_tol: float = 5e-2
    volume_residual_tol: float = 1e-4
    state_error_tol: float | None = None


@dataclass
class VerifyReport:
    rows: list[CheckRow]
    trajectories: dict

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _cfg(scn: Scenario, **kw) -> FlowConfig:
    base = dict(scenario=scn.id, n=scn.n, alpha=scn.alpha, fiber=SCENARIOS[scn.id].fiber)
    base.update(kw)
    return FlowConfig(**base)


def build_suite() -> dict[str, SuiteCase]:
    suite: dict[str, SuiteCase] = {}

    def add(scn: Scenario, expected_termination: str, **kw):
        suite[scn.id] = SuiteCase(scn, SCENARIOS[scn.id].representations[0],
                                  expected_termination, **kw)

    scn = default_scenario("flat_stationary")
    add(scn, "reached_t_end",
        main=_cfg(scn, m=32, dt=2e-3, t_end=0.5, output_every=25),
        uniform=_cfg(scn, m=32, dt=2e-3, t_end=0.1, output_every=1),
        s_evolution_tol=1e-12, volume_residual_tol=1e-12, state_error_tol=1e-12)

    scn = default_scenario("torus_list")
    add(scn, "reached_t_end",
        main=_cfg(scn, m=32, dt=1e-3, t_end=1.0, output_every=20),
        uniform=_cfg(scn, m=32, dt=5e-4, t_end=0.1, output_every=1),
        s_evolution_tol=1e-6, volume_residual_tol=1e-6, state_error_tol=1e-6)

    scn = default_scenario("shrinking_sphere")
    add(scn, "blowup_threshold",
        main=_cfg(scn, dt=1e-3, t_end=0.3, output_every=5),
        uniform=_cfg(scn, dt=5e-4, t_end=0.1, output_every=1),
        s_evolution_tol=5e-3, volume_residual_tol=1e-5, state_error_tol=1e-9)

    scn = default_scenario("shrinking_cylinder")
    add(scn, "blowup_threshold",
        main=_cfg(scn, m=32, dt=1e-3, t_end=0.3, output_every=2),
        uniform=_cfg(scn, m=32, dt=5e-4, t_end=0.1, output_every=1),
        extras={"norms": _cfg(scn, m=32, dt=1e-3, t_end=0.2, output_every=1)},
        s_evolution_tol=5e-3, volume_residual_tol=1e-5, state_error_tol=1e-6)

    scn = default_scenario("perturbed_cylinder")
    add(scn, "blowup_threshold",
        main=_cfg(scn, m=64, t_end=0.3, output_every=5),
        uniform=_cfg(scn, m=64, dt=4e-4, t_end=0.1, output_every=2),
        s_evolution_tol=5e-2, volume_residual_tol=1e-4)

    scn = default_scenario("perturbed_torus")
    add(scn, "reached_t_end",
        main=_cfg(scn, m=64, dt=4e-4, t_end=0.5, output_every=10),
        uniform=_cfg(scn, m=64, dt=4e-4, t_end=0.1, output_every=2),
        s_evolution_tol=5e-2, volume_residual_tol=1e-4)

    return suite


def _cylinder_norm_closed_form(scn: Scenario, t: float) -> float:
    """Accumulated int_0^t int |R|^3 dmu ds for the n=4 shrinking cylinder
    with f = 1 and psi0 = 1: the integrand is 864 pi^3 (1-4s)^{-3/2}."""
    assert scn.n == 4 and scn.psi0 == 1.0
    return 432.0 * math.pi**3 * ((1.0 - 4.0 * t) ** -0.5 - 1.0)


def evaluate_case(case: SuiteCase) -> tuple[list[CheckRow], dict[str, Trajectory]]:
    scn = case.scenario
    rows: list[CheckRow] = []
    trajs: dict[str, Trajectory] = {}

    def add(check, value, op, threshold, note=""):
        if op == "<=":
            ok = value <= threshold
        elif op == ">=":
            ok = value >= threshold
        else:
            ok = bool(value)
        rows.append(CheckRow(scn.id, check, None if value is None else float(value),
                             threshold, op, bool(ok), note))

    main = run(case.main, exact_state(scn, 0.0, case.main.m, case.representation))
    trajs["main"] = main
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

    if case.uniform is not None:
        uni = run(case.uniform, exact_state(scn, 0.0, case.uniform.m, case.representation))
        trajs["uniform"] = uni
        add("s_evolution_residual", analysis.monitor_S_evolution(uni), "<=",
            case.s_evolution_tol)
        vol_resid, _ = analysis.check_volume_evolution(uni)
        add("volume_residual", vol_resid, "<=", case.volume_residual_tol)

    t_sing = singular_time(scn)
    if t_sing is not None:
        add("blowup_time", abs(main.final_t - t_sing) / t_sing, "<=", 0.01,
            f"terminated at t={main.final_t:.6f}, exact {t_sing}")

    if case.state_error_tol is not None:
        source = trajs.get("uniform", main)
        worst = 0.0
        for rec in source.records:
            m = rec.state.m if isinstance(rec.state, WarpedState) else None
            exact = exact_state(scn, rec.t, m) if m else exact_state(scn, rec.t)
            worst = max(worst, state_error(rec.state, exact))
        add("state_vs_exact", worst, "<=", case.state_error_tol)

    if scn.id in ("flat_stationary", "torus_list"):
        nr, nw = analysis.spacetime_norms(main)
        add("spacetime_norms_zero", max(abs(nr), abs(nw)), "<=", 1e-14)
        picks = analysis.pick_blowup_points(main)
        if scn.id == "flat_stationary":
            add("picker_empty", len(picks) == 0, "==", None,
                f"{len(picks)} picks on a flat run")

    if scn.id == "torus_list":
        worst = 0.0
        for rec in main.records:
            a = scn.a0 + scn.alpha * scn.winding**2 * rec.t
            want = -scn.alpha * scn.winding**2 / a
            worst = max(worst, abs(rec.monitor.min_s - want) / abs(want))
        add("s_min_closed_form", worst, "<=", 1e-9)

    if scn.id == "shrinking_cylinder":
        norms_cfg = case.extras["norms"]
        norms_run = run(norms_cfg, exact_state(scn, 0.0, norms_cfg.m, case.representation))
        trajs["norms"] = norms_run
        nr, _ = analysis.spacetime_norms(norms_run)
        want = _cylinder_norm_closed_form(scn, norms_run.final_t)
        add("spacetime_norm_r", abs(nr - want) / want, "<=", 0.01)
        _, nw = analysis.spacetime_norms(norms_run)
        add("spacetime_norm_w_zero", abs(nw), "<=", 1e-10)

    if scn.id in ("shrinking_cylinder", "perturbed_cylinder"):
        times, ratios = analysis.curvature_ratio_diagnostic(main)
        spread = float(np.max(ratios) / np.min(ratios))
        rics = [rec.monitor.max_ric for rec in main.records]
        growth = max(rics) / max(rics[0], 1e-300)
        bound = 2.0 if scn.id == "shrinking_cylinder" else 4.0
        add("curvature_ratio_spread", spread, "<=", bound,
            f"max|Ric| grew {growth:.1e}x")
        picks = analysis.pick_blowup_points(main)
        add("picker_nonempty", len(picks) > 0, "==", None, f"{len(picks)} picks")
        qs = [p.q for p in picks]
        add("picker_q_nondecreasing", all(b >= a for a, b in zip(qs, qs[1:])),
            "==", None)

    if scn.id == "perturbed_cylinder":
        last = picks[-1]
        rec = next(r for r in main.records if r.t == last.t)
        neck = int(np.argmin(rec.state.psi))
        add("picker_at_neck", last.index == neck, "==", None,
            f"picked index {last.index}, neck at {neck}")

    if case.main.monitors is not None:
        rows = [row for row in rows if row.check in case.main.monitors]
    return rows, trajs


def run_verification(ids=None) -> VerifyReport:
    suite = build_suite()
    if ids is None:
        ids = list(suite)
    rows: list[CheckRow] = []
    trajectories: dict = {}
    for sid in ids:
        if sid not in suite:
            raise ValueError(f"unknown scenario {sid!r}; expected one of {sorted(suite)}")
        case_rows, trajs = evaluate_case(suite[sid])
        rows.extend(case_rows)
        for name, traj in trajs.items():
            trajectories[(sid, name)] = traj
    return VerifyReport(rows, trajectories)


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
