"""Scenario registry (SCENARIOS), the closed-form reference solutions
used as ground truth by tests, and scenario_run, the one place a
scenario becomes a run's config and initial state.

Scenarios with exact solutions:

* flat_stationary      everything constant (fixed point of the flow)
* torus_list           flat torus, circle-valued phi with winding w:
                       the base coefficient grows as a(t) = a0 + alpha w^2 t
* shrinking_sphere     round S^n: coefficient a0 - 2(n-1) t
* shrinking_cylinder   S^1 x S^{n-1}: psi(t)^2 = psi0^2 - 2(n-2) t

The perturbed scenarios (perturbed_cylinder, perturbed_torus) have no
closed form; they only define initial data for the property-based
monitors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import FlowConfig
from .geometry import Factor, Fiber, Grid, HomogeneousState, WarpedState


@dataclass(frozen=True)
class Scenario:
    """Named initial-data family with its parameters."""

    id: str
    n: int
    alpha: float
    a0: float = 1.0
    psi0: float = 1.0
    winding: int = 1
    amplitude: float = 0.0

    def __post_init__(self):
        spec = SCENARIOS.get(self.id)
        if spec is None:
            raise ValueError(f"unknown scenario id {self.id!r}; "
                             f"expected one of {SCENARIO_IDS}")
        if self.a0 <= 0.0 or self.psi0 <= 0.0:
            raise ValueError("a0 and psi0 must be positive")
        if abs(self.amplitude) >= min(1.0, self.psi0, math.sqrt(self.a0)):
            raise ValueError("perturbation amplitude too large for positivity")
        if not spec.n_min <= self.n <= spec.n_max:
            rule = f"n = {spec.n_min}" if spec.n_min == spec.n_max else f"n >= {spec.n_min}"
            raise ValueError(f"scenario {self.id!r} needs {rule}, got n={self.n}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry entry: every fact about one named scenario.

    builders maps each representation the scenario has to its closed-form
    builder; the first one is the default.  A "warped" builder takes
    (scenario, t, grid x) and returns (f, psi, winding, u); a
    "homogeneous" builder takes (scenario, t) and returns the factors.
    """

    fiber: Fiber
    builders: dict[str, Callable]
    params: frozenset[str]           # Scenario parameters the builders read
    defaults: dict                   # Scenario arguments of verify and converge
    n_min: int = 2
    n_max: float = math.inf
    closed_form: bool = True         # False: the builders give t = 0 only
    singular_time: Callable[[Scenario], float] | None = None

    @property
    def representations(self) -> tuple[str, ...]:
        return tuple(self.builders)


def _torus_a(scn: Scenario, t: float) -> float:
    # da/dt = alpha * w^2 from dg_xx/dt = alpha * phi_x^2
    return scn.a0 + scn.alpha * scn.winding**2 * t


def _cylinder_psi_sq(scn: Scenario, t: float) -> float:
    return scn.psi0**2 - 2.0 * (scn.n - 2) * t


def _flat_warped(scn, t, x):
    ones = np.ones(x.size)
    return ones, ones.copy(), 0, np.zeros(x.size)


def _flat_factors(scn, t):
    return tuple(Factor(1.0, Fiber.FLAT_TORUS, 1) for _ in range(scn.n))


def _torus_warped(scn, t, x):
    ones = np.ones(x.size)
    return math.sqrt(_torus_a(scn, t)) * ones, ones.copy(), scn.winding, np.zeros(x.size)


def _torus_factors(scn, t):
    return (Factor(_torus_a(scn, t), Fiber.FLAT_TORUS, 1, slope=float(scn.winding)),
            Factor(1.0, Fiber.FLAT_TORUS, 1))


def _sphere_factors(scn, t):
    return (Factor(scn.a0 - 2.0 * (scn.n - 1) * t, Fiber.ROUND_SPHERE, scn.n),)


def _cylinder_warped(scn, t, x):
    ones = np.ones(x.size)
    return ones.copy(), math.sqrt(_cylinder_psi_sq(scn, t)) * ones, 0, np.zeros(x.size)


def _cylinder_factors(scn, t):
    return (Factor(1.0, Fiber.FLAT_TORUS, 1),
            Factor(_cylinder_psi_sq(scn, t), Fiber.ROUND_SPHERE, scn.n - 1))


def _perturbed_cylinder_warped(scn, t, x):
    return np.ones(x.size), scn.psi0 + scn.amplitude * np.sin(x), 0, np.zeros(x.size)


def _perturbed_torus_warped(scn, t, x):
    ones = np.ones(x.size)
    return (math.sqrt(scn.a0) * ones, ones.copy(), scn.winding,
            scn.amplitude * np.sin(x))


SCENARIOS: dict[str, ScenarioSpec] = {
    "flat_stationary": ScenarioSpec(
        Fiber.FLAT_TORUS, {"warped": _flat_warped, "homogeneous": _flat_factors},
        params=frozenset(), defaults=dict(n=4, alpha=1.0)),
    "torus_list": ScenarioSpec(
        Fiber.FLAT_TORUS, {"warped": _torus_warped, "homogeneous": _torus_factors},
        params=frozenset({"a0", "winding"}), defaults=dict(n=2, alpha=1.0), n_max=2),
    "shrinking_sphere": ScenarioSpec(
        Fiber.ROUND_SPHERE, {"homogeneous": _sphere_factors},
        params=frozenset({"a0"}), defaults=dict(n=3, alpha=1.0),
        singular_time=lambda scn: scn.a0 / (2.0 * (scn.n - 1))),
    "shrinking_cylinder": ScenarioSpec(
        Fiber.ROUND_SPHERE, {"warped": _cylinder_warped, "homogeneous": _cylinder_factors},
        params=frozenset({"psi0"}), defaults=dict(n=4, alpha=1.0), n_min=3,
        singular_time=lambda scn: scn.psi0**2 / (2.0 * (scn.n - 2))),
    "perturbed_cylinder": ScenarioSpec(
        Fiber.ROUND_SPHERE, {"warped": _perturbed_cylinder_warped},
        params=frozenset({"psi0", "amplitude"}),
        defaults=dict(n=4, alpha=1.0, amplitude=0.05), n_min=3, closed_form=False),
    "perturbed_torus": ScenarioSpec(
        Fiber.FLAT_TORUS, {"warped": _perturbed_torus_warped},
        params=frozenset({"a0", "winding", "amplitude"}),
        defaults=dict(n=2, alpha=1.0, amplitude=0.1), n_max=2, closed_form=False),
}

SCENARIO_IDS = tuple(SCENARIOS)


def default_scenario(scenario_id: str) -> Scenario:
    """The scenario with the parameters the verify suite and converge use."""
    return Scenario(scenario_id, **SCENARIOS[scenario_id].defaults)


def singular_time(scn: Scenario) -> float | None:
    """Blow-up time of the closed-form solution, or None (no blow-up or
    no closed form)."""
    rule = SCENARIOS[scn.id].singular_time
    return None if rule is None else rule(scn)


def exact_state(scn: Scenario, t: float, m: int = 64, representation: str | None = None):
    """Closed-form state at time t (grid of m points for warped states) in
    the given representation; None selects the scenario's default."""
    spec = SCENARIOS[scn.id]
    representation = representation or spec.representations[0]
    if representation not in spec.builders:
        raise ValueError(f"scenario {scn.id!r} has no {representation} representation")
    t_sing = singular_time(scn)
    if t_sing is not None and t >= t_sing:
        raise ValueError(f"t={t} is at or past the singular time {t_sing}")
    if t != 0.0 and not spec.closed_form:
        raise ValueError(f"scenario {scn.id!r} has no closed form for t > 0")
    build = spec.builders[representation]
    if representation == "homogeneous":
        return HomogeneousState(scn.n, scn.alpha, build(scn, t), t)
    f, psi, winding, u = build(scn, t, Grid(m).x)
    return WarpedState(scn.n, spec.fiber, scn.alpha, f, psi, winding, u, t)


def scenario_run(scn: Scenario, representation: str | None = None, **fields):
    """(config, initial state) of a run of scn: a config of its id, n, alpha and
    registry fiber plus the given run fields, and its closed form at t = 0."""
    cfg = FlowConfig(scenario=scn.id, n=scn.n, alpha=scn.alpha, fiber=SCENARIOS[scn.id].fiber,
                     **fields)
    return cfg, exact_state(scn, 0.0, cfg.m, representation)
