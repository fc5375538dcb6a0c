"""Time integration of the coupled metric/map flow.

The reduced system on the warped ansatz g = f^2 dx^2 + psi^2 g_F,
phi = w*x + u is

    df/dt   = f [ (n-1) psi_ss/psi + (alpha/2) phi_s^2 ]
    dpsi/dt = psi_ss - (n-2)(c - psi_s^2)/psi
    du/dt   = Lap phi = phi_ss + (n-1)(psi_s/psi) phi_s

with c the fiber curvature; the winding number w is constant in time.
These are the restriction of dg/dt = -2 Ric + alpha dphi x dphi to the
two coordinate blocks plus the heat flow of phi, and the implementation
is validated against the independent curvature oracle, the closed-form
product solutions and the parabolic scaling laws.

Homogeneous product states reduce further to constant-rate ODEs:
round S^d factors shrink at da/dt = -2(d-1), flat circle factors with
map slope w grow at da/dt = alpha w^2.

Integration is one classical four-stage Runge-Kutta for both kinds of
state, over the state's arrays() (f, psi, u or the coefficients), with
the parabolic step bound dt <= c_cfl * min(f h)^2 on warped grids, a
relative-change rate limiter for the approach to blow-up, and a
halve-and-retry policy on steps that produce non-finite values or lose
positivity of the metric arrays.

The parabolic bound comes from the scheme.  The second s-derivatives
(psi_ss, phi_ss) are the nested central difference (1/f) Dx((1/f) Dx),
whose eigenvalues are -sin^2(kh)/(f h)^2 when f is constant; when f
varies, Gershgorin's theorem bounds its spectral radius by
1/min(f h)^2.  RK4's stability polynomial on the negative real axis,
R(-z) = 1 - z + z^2/2 - z^3/6 + z^4/24, has |R| <= 1 up to
z = _RK4_REAL_LIMIT = 2.7853 (where R = 1 again), so c_cfl may not
exceed that.  The default 1.0 keeps a factor 2.8 below the linear limit
for the lower-order and nonlinear terms; on the perturbed_cylinder neck
every c_cfl up to the limit reaches the same blow-up time with every
estimate monitor passing, and 3.0 breaks the minimum principle.

Steps are first-same-as-last: the curvature fields of each accepted
state, which the blow-up test and the monitors need anyway, give the
next k1 through the derivative kernel that rhs uses, so k1 equals
rhs(state) bit for bit.  The other three
stages are bare arrays passed to rhs; a stage whose metric arrays are
not positive rejects the step.  Only the accepted state is built, and
validated, through state.evolved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import EPS0, MonitorRecord, MonitorState, make_monitor_record
from .geometry import (Fiber, HomogeneousState, State, WarpedState, curvature_fields,
                       warped_terms)

TERMINATION_REASONS = ("reached_t_end", "blowup_threshold", "nonfinite")

# Test hook: sign applied to the map-coupling term of the metric flow.
# Flipping it is used by the verification suite's mutation fixture.
_COUPLING_SIGN = 1.0

_MAX_HALVINGS = 20

# RK4 is stable on [-z, 0] while |R(-z)| = |1 - z + z^2/2 - z^3/6 + z^4/24|
# <= 1; R dips to 0.27 and returns to 1 at the real root of R(-z) = 1,
# i.e. of z^3 - 4 z^2 + 12 z - 24 = 0.  The discrete Laplacian's spectral
# radius is at most 1/min(f h)^2, so dt <= c_cfl * min(f h)^2 is linearly
# stable for c_cfl up to this root.
_RK4_REAL_LIMIT = 2.785293563405282


class StepError(RuntimeError):
    """A step produced non-finite values or lost metric positivity."""


@dataclass
class FlowConfig:
    """Scenario, discretization and termination control for one run."""

    scenario: str = "custom"
    n: int = 4
    alpha: float = 0.0
    fiber: Fiber = Fiber.ROUND_SPHERE
    m: int = 64
    c_cfl: float = 1.0
    dt: float | None = None
    t_end: float = 1.0
    blowup_threshold: float = 1e6
    rate_limit: float = 0.05
    output_every: int = 1
    snapshot_every: int = 0
    eps0: float = EPS0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.fiber = Fiber(self.fiber)
        # nan compares false, so a `<= 0` test would let it through
        for name in ("t_end", "dt", "blowup_threshold", "rate_limit"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (0.0 <= self.eps0 < math.inf):
            raise ValueError(f"eps0 must be finite and >= 0, got {self.eps0}")
        if not (0.0 < self.c_cfl <= _RK4_REAL_LIMIT):
            raise ValueError(f"c_cfl must lie in (0, {_RK4_REAL_LIMIT}], got {self.c_cfl}")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        # snapshots are taken at recorded steps only
        if self.snapshot_every % self.output_every:
            raise ValueError(f"snapshot_every ({self.snapshot_every}) must be a multiple "
                             f"of output_every ({self.output_every})")


@dataclass
class FlowRecord:
    state: State
    monitor: MonitorRecord
    step: int

    @property
    def t(self) -> float:
        return self.state.t


@dataclass
class Trajectory:
    """The records a leg made plus termination bookkeeping.

    final is the record of the state the leg ended on; it is the last
    record when that one holds the final state.  termination is one of
    TERMINATION_REASONS, or None when integration was interrupted by a
    step budget (resumable; used for checkpoint tests)."""

    records: list[FlowRecord]
    termination: str | None
    config: FlowConfig
    final: FlowRecord
    monitor_state: MonitorState

    def times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.records])

    @property
    def steps(self) -> int:
        return self.final.step

    @property
    def final_state(self) -> State:
        return self.final.state

    @property
    def final_t(self) -> float:
        return self.final.t


# ---------------------------------------------------------------------------
# right-hand sides


def _warped_rates(state: WarpedState, f, psi, k_rad, k_fib, grad_phi_sq, lap_phi):
    """(df/dt, dpsi/dt, du/dt) = (-f (lam0 - (alpha/2)|grad phi|^2),
    -psi lam1, Lap phi) from the derivative kernel's terms."""
    n = state.n
    lam0 = (n - 1) * k_rad
    lam1 = k_rad + (n - 2) * k_fib
    return (-f * (lam0 - _COUPLING_SIGN * 0.5 * state.alpha * grad_phi_sq),
            -psi * lam1, lap_phi)


def rhs(state: State, y=None) -> tuple[np.ndarray, ...]:
    """Time derivatives of state.arrays(), or of RK stage arrays y in
    their place with the state's grid and parameters: (df/dt, dpsi/dt,
    du/dt) for a warped state, (rhs_homogeneous(state),) for a
    homogeneous one, whose rates do not depend on the coefficients."""
    if not isinstance(state, WarpedState):
        return (rhs_homogeneous(state),)
    f, psi, u = state.arrays() if y is None else y
    terms = warped_terms(state.n, state.fiber_curvature, state.h, f, psi, u, state.winding)
    return _warped_rates(state, f, psi, *terms)


def _k1_from_fields(state: State, fields):
    """rhs(state), bit for bit, from the state's curvature fields."""
    if isinstance(state, WarpedState):
        return _warped_rates(state, state.f, state.psi, fields.k_rad, fields.k_fib,
                             fields.grad_phi_sq, fields.lap_phi)
    return (rhs_homogeneous(state),)


def rhs_homogeneous(state: HomogeneousState) -> np.ndarray:
    """Coefficient rates: -2(d-1) on round factors, alpha*slope^2 on flat
    circle factors carrying a map slope, 0 otherwise.  Slopes are
    constant in time."""
    rates = np.zeros(len(state.factors))
    for k, fac in enumerate(state.factors):
        if fac.kind is Fiber.ROUND_SPHERE:
            rates[k] = -2.0 * (fac.dim - 1)
        elif fac.slope != 0.0:
            rates[k] = _COUPLING_SIGN * state.alpha * fac.slope**2
    return rates


# ---------------------------------------------------------------------------
# stepping


def _rk4(state: State, dt: float, k1=None) -> State:
    # Stages are bare arrays, checked only for positivity of the leading
    # state.positive arrays (a NaN fails it too; an infinite value makes
    # the result non-finite).  A failing stage and a result that evolved()
    # rejects both raise ValueError, which callers treat as step rejection.
    y0 = state.arrays()
    ks = [rhs(state) if k1 is None else k1]
    for c in (0.5, 0.5, 1.0):
        y = tuple(a + c * dt * k for a, k in zip(y0, ks[-1]))
        if not all(a.min() > 0.0 for a in y[:state.positive]):
            raise ValueError("an RK stage lost positivity of the metric")
        ks.append(rhs(state, y))
    return state.evolved([a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                          for a, k1, k2, k3, k4 in zip(y0, *ks)], state.t + dt)


def _try_step(state: State, dt: float, k1=None):
    """RK4 attempt; returns the new state, or None when rejected."""
    with np.errstate(all="ignore"):
        try:
            new = _rk4(state, dt, k1)
        except ValueError:
            return None
    return new if np.all(np.isfinite(new.arrays())) else None


def step(state: State, dt: float):
    """One classical RK4 step.  Raises StepError if the result is
    non-finite or loses positivity of the metric coefficients."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    new = _try_step(state, dt)
    if new is None:
        raise StepError(f"step of size {dt} rejected at t={state.t}")
    return new


def _dt_bound(state: State, config: FlowConfig, k1) -> float:
    """Step bound: fixed dt if configured, parabolic CFL on warped grids,
    and a relative-change rate limiter on the positive coefficients."""
    bounds = [np.inf if config.dt is None else config.dt]
    if isinstance(state, WarpedState):
        bounds.append(config.c_cfl * float(np.min(state.f * state.h) ** 2))
    for values, rates in zip(state.arrays()[:state.positive], k1):
        fastest = float(np.max(np.abs(rates) / values))
        if fastest > 0.0:
            bounds.append(config.rate_limit / fastest)
    return min(bounds)


def _advance(state: State, fields, config: FlowConfig):
    """The next accepted state and its curvature fields, or None when the
    flow cannot be continued: a non-finite k1, every halving of the step
    rejected, or a non-finite max|Rm| of the accepted state."""
    with np.errstate(all="ignore"):
        k1 = _k1_from_fields(state, fields)
    if not np.all(np.isfinite(k1)):
        return None
    dt = min(_dt_bound(state, config, k1), config.t_end - state.t)
    for _ in range(_MAX_HALVINGS + 1):
        if dt <= 1e-15 * max(1.0, abs(state.t)):
            return None
        new_state = _try_step(state, dt, k1)
        if new_state is not None:
            with np.errstate(all="ignore"):
                new_fields = curvature_fields(new_state)
            return (new_state, new_fields) if np.isfinite(new_fields.max_rm) else None
        dt *= 0.5
    return None


def run(config: FlowConfig, initial: State, *,
        stop_after_steps: int | None = None,
        steps_done: int = 0,
        monitor_state: MonitorState | None = None) -> Trajectory:
    """Integrate until t_end, the blow-up threshold, or failure.

    One recording rule, over all legs of a run: a state is recorded when
    its step is a multiple of output_every, and the state the run ends
    on is recorded too unless that cadence already did.  A resumed leg
    (steps_done > 0) leaves its start state to the leg before it.
    Deterministic for a fixed config and initial state.
    steps_done/monitor_state allow bit-exact continuation from a
    checkpoint; stop_after_steps, which must exceed steps_done,
    interrupts the run once it has taken that many steps in all, without
    terminating it (the trajectory then has termination None).  The
    initial state must lie below blowup_threshold and before t_end.
    """
    if stop_after_steps is not None and stop_after_steps <= steps_done:
        raise ValueError(f"stop_after_steps {stop_after_steps} must exceed the "
                         f"{steps_done} steps already done")
    state = initial.copy()
    fields = curvature_fields(state)
    if fields.max_rm >= config.blowup_threshold:
        raise ValueError(f"blowup_threshold {config.blowup_threshold:g} must exceed "
                         f"the initial max|Rm| {fields.max_rm:g}")
    t_end = config.t_end
    tol = 1e-12 * max(1.0, abs(t_end))
    if state.t >= t_end - tol:
        raise ValueError(f"t_end {t_end:g} must exceed the initial t {state.t:g}")

    if monitor_state is None:
        monitor_state = MonitorState.start(state, fields, config.eps0)

    def record() -> FlowRecord:
        return FlowRecord(state.copy(), make_monitor_record(state, fields, monitor_state),
                          steps)

    records: list[FlowRecord] = []
    steps = steps_done
    while True:
        termination = ("blowup_threshold" if fields.max_rm >= config.blowup_threshold
                       else "reached_t_end" if state.t >= t_end - tol else None)
        if ((steps == 0 or steps > steps_done)
                and (termination or steps % config.output_every == 0)):
            records.append(record())
        if termination or steps == stop_after_steps:
            break
        ahead = _advance(state, fields, config)
        if ahead is None:
            termination = "nonfinite"
            if steps % config.output_every:
                records.append(record())
            break
        state, fields = ahead
        steps += 1
        monitor_state.update(state, fields)

    final = records[-1] if records and records[-1].step == steps else record()
    return Trajectory(records, termination, config, final, monitor_state)
