"""Quantitative estimate monitors and the blow-up toolkit.

Everything here is a pure function of trajectory data.  The monitors
check, along a numerically integrated flow:

* the evolution identity of the coupled scalar (monitor_S_evolution),
* the minimum principle for S = R - alpha*|grad phi|^2,
* the gradient bound alpha*|grad phi|^2 <= sup R - min S(0),
* the heat-flow maximum principle for scalar-valued phi,
* metric-coefficient and arc-length distortion with a measured rate,
* the volume derivative identity and the exponential volume lower bound,
* spacetime curvature norms,
* the |Rm| versus |Ric| ratio diagnostic.

The blow-up toolkit selects near-maximal curvature points, applies
parabolic rescaling, and fits the small-ball volume expansion on model
geometries.

Conventions.  The scalar S uses the full coupling alpha, matching its
definition in the geometry module.  The evolution identity is checked
for the flow-normalized pair

    Sigma = R - (alpha/2)|grad phi|^2,
    Sigma_ij = R_ij - (alpha/2) phi_i phi_j,

the tensor with dg/dt = -2 Sigma_ij, for which

    (d/dt - Lap) Sigma = 2 |Sigma_ij|^2 + alpha |Lap phi|^2

holds exactly; with the full-coupling S the left- and right-hand sides
differ by a term of order alpha^2 |grad phi|^4 already on flat tori.
The minimum principle and the gradient bound are monitored for the
full-coupling S itself (both hold for it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (CurvatureFields, Fiber, HomogeneousState, StackMeasure, State,
                       ball_volume_constant, curvature_fields, map_ranges, scale_state,
                       sphere_area, stack_measure, stacked_curvature)

EPS0 = 1e-8
S_CHUNK = 30  # windows per stacked pass of monitor_S_evolution (see there)
MONITOR_STACK = 32  # rows per MonitorState.settle pass (see there)


# ---------------------------------------------------------------------------
# per-snapshot summaries


@dataclass
class MonitorRecord:
    """Summary statistics of one trajectory snapshot; rm_argmax is the
    grid index where |Rm| is largest."""

    min_s: float
    max_s: float
    max_grad_phi_sq: float
    max_ric: float
    max_rm: float
    rm_argmax: int
    max_abs_r: float
    phi_min: float
    phi_max: float
    length: float
    volume: float
    volume_integrand: float
    distortion_rate: float
    grad_margin: float
    acc_r: float
    acc_w: float


@dataclass
class MonitorState:
    """Running accumulators the integrator carries between steps.

    update() queues a step and record() a record, its state and step with
    its mark; settle() advances the accumulators over everything queued in
    one stacked pass and hands each record back with its settled row.
    prev_t is current at once; sup_r, acc_r, acc_w, prev_ir and prev_iw are current
    after settle(), which flow.run calls whenever MONITOR_STACK rows are
    queued and before it returns, so a Trajectory's monitor state and a
    checkpoint's are current.  The queue is no dataclass field: checkpoints,
    equality and astuple skip it."""

    INTEGRALS = ("acc_r", "acc_w", "prev_ir", "prev_iw")  # +inf once they overflow; never nan

    min_s0: float
    sup_r: float
    acc_r: float
    acc_w: float
    prev_t: float
    prev_ir: float
    prev_iw: float

    @classmethod
    def start(cls, state: State, fields: CurvatureFields):
        with np.errstate(over="ignore", invalid="ignore"):
            (ir,), (iw,) = curvature_power_integrals(
                stack_measure(state, state.arrays()[np.newaxis, :state.positive]),
                np.array([fields.scalar]), np.array([fields.weyl_sq]), state.n)
        return cls(min_s0=float(fields.s_scalar.min()),
                   sup_r=float(fields.scalar.max()),
                   acc_r=0.0, acc_w=0.0, prev_t=state.t,
                   prev_ir=ir, prev_iw=iw)

    @property
    def queued(self) -> int:
        """Rows queued and not yet settled."""
        return len(self._queue.dts) if "_queue" in vars(self) else 0

    @property
    def full(self) -> bool:
        return self.queued >= MONITOR_STACK

    def _open(self, state: State, fields: CurvatureFields) -> "_Queue":
        """The queue, made for state's grid and fields if none is open."""
        if "_queue" not in vars(self):
            self._queue = _Queue(state, fields)
        return self._queue

    def update(self, state: State, fields: CurvatureFields):
        """Queue the accepted step to state (once per step): prev_t advances
        now, the other accumulators at the next settle()."""
        self._open(state, fields).push(state, fields, state.t - self.prev_t)
        self.prev_t = state.t

    def record(self, state: State, fields: CurvatureFields, step: int):
        """Queue a record of state, the run's step-th: on the newest row if
        that is state's step, else on a row of its own that advances nothing."""
        queue = self._open(state, fields)
        if queue.tail is not state:
            queue.push(state, fields, None)
        queue.mark(state, fields, step)

    def settle(self) -> list[tuple]:
        """Advance the accumulators over the queued rows, in one pass, and
        empty the queue.  The pass forms each row's int |R|^p dmu, int |W|^p
        dmu and max R, and each record row's reductions, over C-contiguous
        (k, width) stacks; then the rows are walked in step order with the
        one-step Python-float expressions (trapezoidal acc_r and acc_w, the
        running sup_r).  Returns (state, step, row) per queued record, in
        order, with row its settled values for make_monitor_record."""
        queue = vars(self).pop("_queue", None)
        if queue is None:
            return []
        k, state, alpha = len(queue.dts), queue.state, queue.state.alpha
        with np.errstate(over="ignore", invalid="ignore"):
            measure = stack_measure(state, queue.metric[:k])
            scalar = queue.scalar[:k]
            max_r = scalar.max(axis=1).tolist()
            marks = _record_reductions(measure, scalar, alpha, queue)
            irs, iws = curvature_power_integrals(measure, scalar, queue.weyl_sq[:k], state.n)
        settled = []
        for j, dt in enumerate(queue.dts):
            if dt is not None:
                ir, iw = irs[j], iws[j]
                self.acc_r += 0.5 * (self.prev_ir + ir) * dt
                self.acc_w += 0.5 * (self.prev_iw + iw) * dt
                self.sup_r = max(self.sup_r, max_r[j])
                self.prev_ir, self.prev_iw = ir, iw
            if marks and marks[0][0] == j:
                _, rec_state, step, *row = marks.pop(0)
                max_grad, max_ric = row[2:4]
                row += [2.0 * max_ric + 2.0 * alpha * max_grad,
                        self.sup_r + EPS0 - self.min_s0 - alpha * max_grad, self.acc_r, self.acc_w]
                settled.append((rec_state, step, row))
        return settled


class _Queue:
    """The rows a MonitorState has queued: each row's metric rows
    (arrays()[:positive]), R and |W|^2, copied into (MONITOR_STACK, ...)
    buffers, and its dt (None on a row that only records); for record rows,
    the state and its step, the |grad phi|^2, |Ric| operator norm and |Rm|^2
    arrays of its fields, and max|Rm|."""

    def __init__(self, state: State, fields: CurvatureFields):
        self.state = state  # kind, n, grid and alpha of every row
        self.metric = np.empty((MONITOR_STACK, state.positive, state.arrays().shape[1]))
        self.scalar = np.empty((MONITOR_STACK, fields.scalar.size))
        self.weyl_sq = np.empty_like(self.scalar)
        self.dts: list[float | None] = []
        self.marks: list[tuple] = []  # (row, state, step, grad_phi_sq, ric_op, rm_sq, max_rm)
        self.tail = None  # the state of the newest row

    def push(self, state: State, fields: CurvatureFields, dt: float | None):
        j = len(self.dts)
        self.metric[j] = state.arrays()[:state.positive]
        self.scalar[j] = fields.scalar
        self.weyl_sq[j] = fields.weyl_sq
        self.dts.append(dt)
        self.tail = state

    def mark(self, state: State, fields: CurvatureFields, step: int):
        self.marks.append((len(self.dts) - 1, state, step, fields.grad_phi_sq, fields.ric_op,
                           fields.rm_sq, fields.max_rm))


def _record_reductions(measure, scalar, alpha: float, queue: _Queue) -> list[tuple]:
    """Per record row of the queue: (row, state, step, min S, max S,
    max|grad phi|^2, max|Ric|, max|Rm|, argmax|Rm|^2, max|R|, min u, max u,
    L, V, int (-R + (alpha/2)|grad phi|^2) dmu), reduced over (records,
    width) stacks of the record rows alone."""
    if not queue.marks:
        return []
    rows, states, steps, grad, ric, rm_sq, max_rm = zip(*queue.marks)
    rows = list(rows)
    sel = slice(None) if len(rows) == len(queue.dts) else rows
    r, grad, ric, rm_sq = scalar[sel], np.array(grad), np.array(ric), np.array(rm_sq)
    s = r - alpha * grad
    columns = (s.min(axis=1), s.max(axis=1), grad.max(axis=1), ric.max(axis=1), max_rm,
               rm_sq.argmax(axis=1), np.abs(r).max(axis=1), *map_ranges(states),
               measure.length(sel), measure.integrate(1.0, sel),
               measure.integrate(-r + 0.5 * alpha * grad, sel))
    return list(zip(rows, states, steps, *(np.asarray(c).tolist() for c in columns)))


def curvature_power_integrals(measure: StackMeasure, scalar, weyl_sq,
                              n: int) -> tuple[list[float], list[float]]:
    """(int |R|^p dmu, int |W|^p dmu) with p = (n+2)/2 for each row of the
    (k, width) stacks scalar = R and weyl_sq = |W|^2, by the rows' measure;
    both stacks are overwritten with the integrands.  One beyond float64
    reads +inf, as does the nan of an inf power times a weight psi^{n-1}
    that underflowed to 0; call it with overflow warnings off."""
    p = (n + 2) / 2.0
    integrals = []
    for values, power in ((scalar, p), (weyl_sq, p / 2.0)):
        np.abs(values, out=values)
        values **= power
        integral = measure.integrate(values, out=values)
        integral[np.isnan(integral)] = math.inf
        integrals.append(integral.tolist())
    return tuple(integrals)


def make_monitor_record(row: tuple) -> MonitorRecord:
    """The MonitorRecord of a settled row (MonitorState.settle)."""
    return MonitorRecord(*row)


# ---------------------------------------------------------------------------
# estimate monitors


def _records(traj):
    recs = traj.records
    if not recs:
        raise ValueError("trajectory has no records")
    return recs


def monitor_S_evolution(traj) -> float:
    """Sup-norm residual of the evolution identity

        (d/dt - Lap) Sigma - 2|Sigma_ij|^2 - alpha |Lap phi|^2

    with Sigma the flow-normalized scalar (see module docstring).  The
    time derivative is the central difference across snapshots k-1, k,
    k+1 of window k; the worst residual over all uniformly spaced interior
    windows is returned.

    Consecutive uniform windows go in chunks of at most S_CHUNK, each one
    geometry.stacked_curvature pass over its S_CHUNK + 2 records that forms
    the identity's three terms alone, so memory is bounded by about a dozen
    (m, S_CHUNK + 2) arrays, 0.7 MB at m = 192, for any trajectory length.
    Each residual equals its window's three-record evaluation bit for bit.
    """
    recs = _records(traj)
    times = np.array([rec.t for rec in recs])
    d1, d2 = times[1:-1] - times[:-2], times[2:] - times[1:-1]
    # window k (entry k - 1) is uniform unless its spacings differ by more than
    # 1e-9 relative; the test is not-greater, so a nan spacing counts as uniform
    uniform = ~(np.abs(d1 - d2) > 1e-9 * np.maximum(d1, d2))
    spans = d1 + d2
    windows = np.flatnonzero(uniform) + 1
    if not windows.size:
        raise ValueError("need at least three uniformly spaced snapshots")
    worst = 0.0
    for run in np.split(windows, np.flatnonzero(np.diff(windows) > 1) + 1):
        for i in range(0, run.size, S_CHUNK):
            worst = max([worst, *_s_residuals(recs, run[i:i + S_CHUNK], spans)])
    return worst


def _s_residuals(recs, ks: np.ndarray, spans: np.ndarray) -> list[float]:
    """Sup-norm residuals of the consecutive windows ks (spans[k - 1] the
    time span of window k), from one stacked pass over their records."""
    states = [rec.state for rec in recs[ks[0] - 1:ks[-1] + 2]]
    s_flow, flow_tensor_sq, lap_phi, laplacian = stacked_curvature(states)
    dsdt = (s_flow[:, 2:] - s_flow[:, :-2]) / spans[ks - 1]
    lap_s = laplacian(s_flow)[:, 1:-1]
    resid = (dsdt - lap_s - 2.0 * flow_tensor_sq[:, 1:-1]
             - states[0].alpha * lap_phi[:, 1:-1]**2)
    return np.max(np.abs(resid), axis=0).tolist()


def check_min_S_monotone(traj) -> float:
    """Worst per-step decrease of min S, normalized by 1 + |min S|.
    Zero when the minimum is nondecreasing, as the maximum principle
    predicts."""
    recs = _records(traj)
    worst = 0.0
    for a, b in zip(recs, recs[1:]):
        drop = (a.monitor.min_s - b.monitor.min_s) / (1.0 + abs(a.monitor.min_s))
        worst = max(worst, drop)
    return max(0.0, worst)


def check_gradient_bound(traj) -> float:
    """Minimum over time of the gradient-bound margin

        (sup_{t'<=t} max R + EPS0) - min S(0) - alpha * max |grad phi|^2(t).

    Nonnegative means the bound holds along the whole run."""
    recs = _records(traj)
    return min(rec.monitor.grad_margin for rec in recs)


def check_phi_max_principle(traj) -> float | None:
    """Worst violation of inf phi(0) <= phi(t) <= sup phi(0).  Only
    meaningful for single-valued (zero winding) maps; returns None when
    skipped."""
    recs = _records(traj)
    if not recs[0].state.map_single_valued:
        return None
    lo0, hi0 = recs[0].monitor.phi_min, recs[0].monitor.phi_max
    worst = 0.0
    for rec in recs:
        worst = max(worst, rec.monitor.phi_max - hi0, lo0 - rec.monitor.phi_min)
    return max(0.0, worst)


def check_metric_distortion(traj) -> float:
    """Worst excess of |log g_t(V,V) - log g_t0(V,V)| over C_meas*|t-t0|
    for the coordinate directions V, plus the arc-length analogue
    |log L(t)/L(t0)| <= C_meas|t-t0|/2, with
    C_meas = sup over the window of (2 max|Ric| + 2 alpha max|grad phi|^2),
    over all ordered snapshot pairs (in linear time when the bound
    holds).  Zero (up to EPS0) means the estimate holds.
    """
    recs = _records(traj)
    logs = np.stack([rec.state.metric_logs() for rec in recs])
    rates = np.array([rec.monitor.distortion_rate for rec in recs])
    lens = np.array([rec.monitor.length for rec in recs])
    times = np.array([rec.t for rec in recs])

    # O(K m) fast path: if every adjacent pair meets the bound, every pair
    # does, since |log g| telescopes and C_meas over [a, b] dominates it over
    # each sub-window.  Excesses are computed to within ~4 eps * scale, so a
    # 16 eps * scale margin leaves every pairwise one negative (scan: 0.0).
    dt = np.diff(times)
    c_adj = np.maximum(rates[:-1], rates[1:])
    coeff = np.max(np.abs(np.diff(logs, axis=0)), axis=1) - c_adj * dt
    length = np.abs(np.log(lens[1:] / lens[:-1])) - 0.5 * c_adj * dt
    scale = 1.0 + np.max(np.abs(logs)) + np.max(np.abs(np.log(lens))) \
        + np.max(rates) * np.max(np.abs(times))
    tol = 16.0 * np.finfo(float).eps * scale
    if np.all(dt > 0.0) and np.all(np.maximum(coeff, length) < -tol):
        return 0.0
    return _pairwise_distortion(logs, rates, lens, times)


def _pairwise_distortion(logs, rates, lens, times) -> float:
    """check_metric_distortion's worst excess over all ordered pairs."""
    worst = 0.0
    k = len(times)
    for a in range(k - 1):
        c_run = np.maximum.accumulate(rates[a:])  # C_meas for [a, b]
        dt = times[a + 1:] - times[a]
        coeff = np.max(np.abs(logs[a + 1:] - logs[a]), axis=1) - c_run[1:] * dt
        length = np.abs(np.log(lens[a + 1:] / lens[a])) - 0.5 * c_run[1:] * dt
        worst = max(worst, float(np.max(coeff)), float(np.max(length)))
    return max(0.0, worst)


def check_volume_evolution(traj) -> tuple[float, float]:
    """(derivative residual, exponential lower-bound margin).

    The residual compares the discrete rate (V_{k+1}-V_k)/dt with the
    trapezoid average of int (-R + (alpha/2)|grad phi|^2) dmu, relative
    to 1 + |integrand|.  The margin is the worst relative slack in
    V(t) >= exp(-C'(t-t0)) V(t0) with C' the running sup of
    max|R| + (alpha/2) max|grad phi|^2; nonnegative means the bound
    holds."""
    recs = _records(traj)
    alpha = recs[0].state.alpha
    vols = np.array([rec.monitor.volume for rec in recs])
    times = np.array([rec.t for rec in recs])
    integrands = np.array([rec.monitor.volume_integrand for rec in recs])

    dt = np.diff(times)
    if np.any(dt <= 0.0):
        raise ValueError("record times must be strictly increasing")
    rate = np.diff(vols) / dt
    avg = 0.5 * (integrands[:-1] + integrands[1:])
    scale = 1.0 + np.maximum(np.abs(integrands[:-1]), np.abs(integrands[1:]))
    # fmax skips a nan residual, as a running max(max_resid, nan) does
    max_resid = float(np.fmax.reduce(np.abs(rate - avg) / scale, initial=0.0))

    decay = np.array([rec.monitor.max_abs_r + 0.5 * alpha * rec.monitor.max_grad_phi_sq
                      for rec in recs])
    c_run = np.maximum.accumulate(decay)
    lower = np.exp(-c_run * (times - times[0])) * vols[0]
    margin = float(np.min((vols - lower) / vols[0]))
    return max_resid, margin


# ---------------------------------------------------------------------------
# blow-up toolkit


@dataclass(frozen=True)
class BlowupPoint:
    t: float
    index: int
    q: float


# A pick's max|Rm| is at least the running spacetime max over C_PICK.
C_PICK = 2.0


def pick_blowup_points(traj) -> list[BlowupPoint]:
    """Snapshot times and points where |Rm| attains a near-maximal value:
    Q_i = max|Rm|(t_i) >= (running spacetime max)/C_PICK, restricted to
    times with curvature above its initial level and filtered so the Q_i
    are nondecreasing.  The point is the record's rm_argmax.  Runs with
    no curvature growth give an empty list."""
    recs = _records(traj)
    rms = np.array([rec.monitor.max_rm for rec in recs])
    running = np.maximum.accumulate(rms)
    picks: list[BlowupPoint] = []
    last_q = -np.inf
    for k in range(1, len(recs)):
        q = rms[k]
        if q <= rms[0] or C_PICK * q < running[k] or q < last_q:
            continue
        picks.append(BlowupPoint(t=recs[k].t, index=recs[k].monitor.rm_argmax, q=float(q)))
        last_q = q
    return picks


def parabolic_rescale(state: State, q: float) -> State:
    """The state scaled by q (g -> q*g), after verifying the scaling laws
    max|Rm| -> max|Rm|/q and S, |grad phi|^2 -> /q to 1e-12 relative."""
    scaled = scale_state(state, q)
    base_fields = curvature_fields(state)
    new_fields = curvature_fields(scaled)
    checks = (
        ("max|Rm|", np.asarray(base_fields.max_rm), np.asarray(new_fields.max_rm)),
        ("S", base_fields.s_scalar, new_fields.s_scalar),
        ("|grad phi|^2", base_fields.grad_phi_sq, new_fields.grad_phi_sq),
    )
    for name, base, new in checks:
        dev = float(np.max(np.abs(new - base / q)))
        if dev > 1e-12 * (1.0 + float(np.max(np.abs(base)))):
            raise ValueError(f"rescaling law violated for {name}: deviation {dev}")
    return scaled


def geodesic_ball_volume(geometry: HomogeneousState, r: float) -> float:
    """Exact geodesic ball volume in a model geometry: flat products, or a
    single round sphere (radius below the conjugate distance)."""
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    n = geometry.n
    if all(fac.kind is Fiber.FLAT_TORUS for fac in geometry.factors):
        inj = math.pi * math.sqrt(min(fac.coeff for fac in geometry.factors))
        if r >= inj:
            raise ValueError(f"radius {r} reaches past the injectivity radius {inj}")
        return ball_volume_constant(n) * r**n
    if len(geometry.factors) == 1 and geometry.factors[0].kind is Fiber.ROUND_SPHERE:
        rho = math.sqrt(geometry.factors[0].coeff)
        if r >= math.pi * rho:
            raise ValueError(f"radius {r} reaches past the sphere's diameter")
        # 32-point Gauss-Legendre on [0, r]: the integrand is entire, and the
        # rule matches adaptive quadrature to 5e-15 relative for n <= 12
        x, w = np.polynomial.legendre.leggauss(32)
        area = (rho * np.sin(0.5 * r * (x + 1.0) / rho)) ** (n - 1)
        return sphere_area(n - 1) * 0.5 * r * float(np.dot(w, area))
    raise ValueError("ball volumes are only exact for flat products or a single round sphere")


def ball_volume_expansion_fit(geometry: HomogeneousState, radii) -> float:
    """Least-squares coefficient c in Vol B(r) = omega_n r^n (1 - c r^2)
    over the given radii, for comparison with R/(6(n+2))."""
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("need at least one radius")
    n = geometry.n
    omega = ball_volume_constant(n)
    vols = np.array([geodesic_ball_volume(geometry, r) for r in radii])
    y = 1.0 - vols / (omega * radii**n)
    return float(np.sum(y * radii**2) / np.sum(radii**4))


def spacetime_norms(traj) -> tuple[float, float]:
    """Accumulated (int_0^T int |R|^{(n+2)/2} dmu dt, same for |W|)."""
    last = _records(traj)[-1].monitor
    return last.acc_r, last.acc_w


def curvature_ratio_diagnostic(traj) -> tuple[np.ndarray, np.ndarray]:
    """Time series of max|Rm| / (1 + max|Ric|)."""
    recs = _records(traj)
    times = np.array([rec.t for rec in recs])
    ratios = np.array([rec.monitor.max_rm / (1.0 + rec.monitor.max_ric) for rec in recs])
    return times, ratios


def fit_order(scales, errors) -> float:
    """Least-squares convergence order: slope of log(error) vs log(scale)."""
    scales = np.asarray(scales, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive to fit an order")
    return float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
