"""Grid- and step-refinement studies with fitted convergence orders."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import fit_order, monitor_S_evolution
from .flow import run
from .oracles import SCENARIOS, Scenario, exact_state, scenario_run

_EXACT_FLOOR = 1e-12

# The order each study's error should show: 4 from RK4 in time, 2 from the
# central differences in space and in the residual's time derivative.  A
# study passes when exact or when its fitted order reaches PASS_SHARE of it.
EXPECTED_ORDER = {"temporal": 4.0, "spatial": 2.0, "s_residual": 2.0}
PASS_SHARE = 0.95


@dataclass
class StudyResult:
    name: str
    scales: list[float]
    errors: list[float]
    order: float | None   # None when errors sit at rounding level
    exact: bool
    expected: float       # EXPECTED_ORDER of the study
    passed: bool


def _finish(name, scales, errors) -> StudyResult:
    errors = [float(e) for e in errors]
    exact = max(errors) < _EXACT_FLOOR
    order = None if exact else fit_order(scales, errors)
    expected = EXPECTED_ORDER[name]
    return StudyResult(name, list(scales), errors, order, exact, expected,
                       exact or order >= PASS_SHARE * expected)


def state_error(state, reference) -> float:
    """Max relative error of arrays() between two states of the same kind;
    a warped reference may sit on a grid that refines the state's."""
    worst = 0.0
    for got, want in zip(state.arrays(), reference.arrays()):
        want = want[::want.size // got.size]
        worst = max(worst, float(np.max(np.abs(got - want))) /
                    (1.0 + float(np.max(np.abs(want)))))
    return worst


def temporal_study(scn: Scenario, dts, t_star: float, m: int = 16) -> StudyResult:
    """Global error at t_star against the closed form, for a sequence of
    fixed step sizes.  RK4 gives order 4 on the curved closed forms."""
    errors = []
    for dt in dts:
        traj = run(*scenario_run(scn, m=m, dt=float(dt), t_end=t_star, output_every=10**9,
                                 rate_limit=1e9))
        errors.append(state_error(traj.final_state, exact_state(scn, t_star, m)))
    return _finish("temporal", dts, errors)


def spatial_study(scn: Scenario, ms, dt: float, t_star: float,
                  ref_factor: int = 2) -> StudyResult:
    """Solution error at t_star against a fine-grid reference run (grid
    ref_factor times the finest study grid), at a shared small dt."""
    ms = [int(m) for m in ms]
    m_ref = ms[-1] * ref_factor

    def evolve(m):
        return run(*scenario_run(scn, m=m, dt=dt, t_end=t_star,
                                 output_every=10**9)).final_state

    reference = evolve(m_ref)
    errors = [state_error(evolve(m), reference) for m in ms]
    hs = [2.0 * np.pi / m for m in ms]
    return _finish("spatial", hs, errors)


def s_residual_study(scn: Scenario, ms, theta: float = 0.05,
                     t_star: float = 0.05) -> StudyResult:
    """Joint (h, dt) refinement of the evolution-identity residual with
    dt = theta * h^2, so both error sources shrink together."""
    errors = []
    hs = []
    for m in ms:
        h = 2.0 * np.pi / int(m)
        dt = theta * h * h
        traj = run(*scenario_run(scn, m=int(m), dt=dt, t_end=t_star, output_every=1))
        errors.append(monitor_S_evolution(traj))
        hs.append(h)
    return _finish("s_residual", hs, errors)


def s_residual_temporal_study(scn: Scenario, dts, t_star: float = 0.05,
                              m: int = 16) -> StudyResult:
    """dt-refinement of the evolution-identity residual on spatially
    constant data, where the only error source is the time derivative."""
    errors = []
    for dt in dts:
        traj = run(*scenario_run(scn, m=m, dt=float(dt), t_end=t_star, output_every=1))
        errors.append(monitor_S_evolution(traj))
    return _finish("s_residual", dts, errors)


def studies_for(scn: Scenario) -> list[StudyResult]:
    """Default study battery for a scenario, used by the CLI: solution
    error plus evolution-identity residual, refined in dt for spatially
    constant scenarios and in (h, dt) for the perturbed ones."""
    if SCENARIOS[scn.id].closed_form:
        return [temporal_study(scn, [4e-3, 2e-3, 1e-3], 0.2),
                s_residual_temporal_study(scn, [2e-3, 1e-3, 5e-4])]
    return [spatial_study(scn, [32, 64, 128], dt=3e-5, t_star=0.02),
            s_residual_study(scn, [32, 64, 128])]
