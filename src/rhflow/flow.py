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
state, over the state's arrays(): one C-contiguous block, the (3, m)
rows f, psi, u or the (1, k) coefficients.  rhs returns state.rates, a
rate block of the same shape, so each stage, its positivity test, the
final combination, the finiteness test and the rate limiter are one
array operation each, whatever the number of rows; this module never
asks a state its kind.  Steps obey the parabolic bound
dt <= c_cfl * state.stable_dt(), which is c_cfl * min(f h)^2 on warped
grids and no bound on products, and a relative-change rate limiter for
the approach to blow-up, under a halve-and-retry policy on steps that
produce non-finite values or lose positivity of the metric rows.

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
state, which the blow-up test and the monitors need anyway, hold the
Ricci eigenvalues lam0, lam1, |grad phi|^2 and Lap phi that the bound
derivative kernel (geometry.warped_kernel) formed for them, and the next
k1 is state.rates(..., fields), which applies to those the operations
rhs applies to the kernel's terms, so k1 equals rhs(state) bit for bit.
_COUPLING_SIGN is read on each call, by both, and passed in.  The other
three stages are bare blocks passed to rhs; a stage whose metric rows
are not positive rejects the step.
Only the accepted state is built and validated, once, by state.evolved,
and its finiteness is tested once, by the curvature_fields call that
_try_step makes for it (a non-finite row there rejects the step);
nothing mutates it afterwards, so the records share it without a copy.

The monitors settle in stacks: each accepted step is queued in the run's
MonitorState (update, from _advance) and each record too, its state and
step riding with its mark (record, from run), and run settles the queue,
one stacked pass over up to analysis.MONITOR_STACK rows, whenever it is
full and before it returns, on every termination and on stop_after_steps.
The queue is the run's one list of records not yet settled: settle hands
back each record's state and step with its settled row, from which
make_monitor_record assembles the record.  So a trajectory's records and
its monitor_state are those of a one-step-at-a-time evaluation, bit for
bit, and nothing is left queued.  A monitor_state given to run, a
checkpoint's, is copied first, as the initial state is: run advances its
own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import MonitorRecord, MonitorState, make_monitor_record
from .geometry import Fiber, State, curvature_fields

# Test hook: sign applied to the map-coupling term of the metric flow.
# Flipping it is used by the verification suite's mutation fixture.
_COUPLING_SIGN = 1.0

_MAX_HALVINGS = 20
_STEP_FLOOR = 1e-15  # a step dt <= _STEP_FLOOR * max(1, |t|) is never taken

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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.fiber = Fiber(self.fiber)
        # nan compares false, so a `<= 0` test would let it through
        for name in ("t_end", "dt", "blowup_threshold", "rate_limit"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.dt is not None and self.dt <= _STEP_FLOOR:  # refused at every t
            raise ValueError(f"dt must exceed the step floor {_STEP_FLOOR:g}, got {self.dt}")
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
    record when that one holds the final state.  termination is
    "reached_t_end", "blowup_threshold" or "nonfinite", or None when
    integration was interrupted by a step budget (resumable)."""

    records: list[FlowRecord]
    termination: str | None
    config: FlowConfig
    final: FlowRecord
    monitor_state: MonitorState

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


def rhs(state: State, y=None) -> np.ndarray:
    """Time derivatives of the block state.arrays(), or of an RK stage block
    y in its place with the state's grid and parameters: state.rates, the
    (3, m) block (df/dt, dpsi/dt, du/dt) or the (1, k) coefficient rates."""
    return state.rates(state.arrays() if y is None else y, _COUPLING_SIGN)


def _k1_from_fields(state: State, fields):
    """rhs(state), bit for bit, from the state's curvature fields."""
    return state.rates(state.arrays(), _COUPLING_SIGN, fields)


# ---------------------------------------------------------------------------
# stepping


def _rk4(state: State, dt: float, k1=None) -> State:
    # Stages are bare blocks, checked only for positivity of the leading
    # state.positive rows (a NaN fails it too; an infinite value makes the
    # result non-finite).  A failing stage and a result that evolved()
    # rejects both raise ValueError, which callers treat as step rejection.
    y0 = state.arrays()
    ks = [rhs(state) if k1 is None else k1]
    for c in (0.5, 0.5, 1.0):
        y = y0 + c * dt * ks[-1]
        if not y[:state.positive].min() > 0.0:
            raise ValueError("an RK stage lost positivity of the metric")
        ks.append(rhs(state, y))
    k1, k2, k3, k4 = ks
    return state.evolved(y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), state.t + dt)


def _try_step(state: State, dt: float, k1=None):
    """RK4 attempt under the caller's np.errstate: the new state and its
    curvature fields, or None if rejected.  The state's finiteness is
    tested once, where it is built (homogeneous) or by curvature_fields
    (warped), and a non-finite row raises ValueError there, a rejection."""
    try:
        new = _rk4(state, dt, k1)
        return new, curvature_fields(new)
    except ValueError:
        return None


def step(state: State, dt: float):
    """One classical RK4 step.  Raises StepError if the result is
    non-finite or loses positivity of the metric coefficients."""
    if not 0.0 < dt < math.inf:  # nan compares false
        raise ValueError(f"dt must be finite and positive, got {dt}")
    with np.errstate(all="ignore"):
        ahead = _try_step(state, dt)
    if ahead is None:
        raise StepError(f"step of size {dt} rejected at t={state.t}")
    return ahead[0]


def _dt_bound(state: State, config: FlowConfig, k1) -> float:
    """Step bound: fixed dt if configured, the parabolic CFL bound
    c_cfl * state.stable_dt() (infinite on products; c_cfl > 0, so never
    nan), and a relative-change rate limiter on the positive coefficients."""
    bounds = [np.inf if config.dt is None else config.dt, config.c_cfl * state.stable_dt()]
    # rate_limit / max equals the least per-row bound rate_limit / row max
    # exactly: correctly rounded division is monotone in the divisor
    rows = slice(state.positive)
    fastest = float((np.abs(k1[rows]) / state.arrays()[rows]).max())
    if fastest > 0.0:
        bounds.append(config.rate_limit / fastest)
    return min(bounds)


def _advance(state: State, fields, config: FlowConfig, monitor_state: MonitorState):
    """The next accepted state and its curvature fields, monitor_state advanced
    to it, or None when the flow cannot be continued: a non-finite k1, every
    halving of the step rejected, or a non-finite max|Rm| of the accepted state."""
    with np.errstate(all="ignore"):
        k1 = _k1_from_fields(state, fields)
        if not np.isfinite(k1).all():
            return None
        dt = min(_dt_bound(state, config, k1), config.t_end - state.t)
        for _ in range(_MAX_HALVINGS + 1):
            if dt <= _STEP_FLOOR * max(1.0, abs(state.t)):
                return None
            ahead = _try_step(state, dt, k1)
            if ahead is not None:
                if not math.isfinite(ahead[1].max_rm):
                    return None
                monitor_state.update(*ahead)
                return ahead
            dt *= 0.5
    return None


def run(config: FlowConfig, initial: State, *,
        stop_after_steps: int | None = None,
        steps_done: int = 0,
        monitor_state: MonitorState | None = None) -> Trajectory:
    """Integrate until t_end, the blow-up threshold, or failure.

    One recording rule, for every leg alike (a resumed leg's start state
    too): a state is recorded when its step is a multiple of output_every,
    and the state the run ends on unless that cadence already did;
    runio.commit_leg keeps a state that two legs recorded once.
    Deterministic for a fixed config and initial state.
    steps_done/monitor_state allow bit-exact continuation from a
    checkpoint (monitor_state is copied, not advanced); stop_after_steps,
    which must exceed steps_done, interrupts the run once it has taken that
    many steps in all, without terminating it (the trajectory then has
    termination None).  The
    initial state must lie below blowup_threshold and before t_end, and a
    fresh leg's first step bound above the step floor.
    """
    if stop_after_steps is not None and stop_after_steps <= steps_done:
        raise ValueError(f"stop_after_steps {stop_after_steps} must exceed the "
                         f"{steps_done} steps already done")
    state = initial.copy()
    fresh = monitor_state is None
    try:  # Python-float arithmetic on extreme data raises OverflowError
        fields = curvature_fields(state)
        monitor_state = MonitorState.start(state, fields) if fresh else replace(monitor_state)
    except OverflowError as exc:
        raise ValueError(f"initial state out of floating-point range: {exc}") from exc
    if fields.max_rm >= config.blowup_threshold:
        raise ValueError(f"blowup_threshold {config.blowup_threshold:g} must exceed "
                         f"the initial max|Rm| {fields.max_rm:g}")
    t_end = config.t_end
    tol = 1e-12 * max(1.0, abs(t_end))
    if state.t >= t_end - tol:
        raise ValueError(f"t_end {t_end:g} must exceed the initial t {state.t:g}")
    if fresh:  # a first step at the floor is a config that never steps, not a non-finite flow
        with np.errstate(all="ignore"):
            k1 = _k1_from_fields(state, fields)
            bound = _dt_bound(state, config, k1) if np.isfinite(k1).all() else math.inf
        floor = _STEP_FLOOR * max(1.0, abs(state.t))
        if bound <= floor:
            raise ValueError(f"the first step bound {bound:g} is at or below the step floor "
                             f"{floor:g} (c_cfl {config.c_cfl:g}, rate_limit "
                             f"{config.rate_limit:g})")

    records: list[FlowRecord] = []
    last = None  # the step of the newest record

    def record():
        nonlocal last
        monitor_state.record(state, fields, steps)
        last = steps

    def settle():
        records.extend(FlowRecord(rec_state, make_monitor_record(row), step)
                       for rec_state, step, row in monitor_state.settle())

    steps = steps_done
    while True:
        termination = ("blowup_threshold" if fields.max_rm >= config.blowup_threshold
                       else "reached_t_end" if state.t >= t_end - tol else None)
        if termination or steps % config.output_every == 0:
            record()
        if termination or steps == stop_after_steps:
            break
        if monitor_state.full:
            settle()
        ahead = _advance(state, fields, config, monitor_state)
        if ahead is None:
            termination = "nonfinite"
            if steps % config.output_every:
                record()
            break
        state, fields = ahead
        steps += 1

    closing = last != steps  # the state the leg ended on has no record yet
    if closing:
        record()
    settle()
    final = records.pop() if closing else records[-1]
    return Trajectory(records, termination, config, final, monitor_state)
