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
from functools import lru_cache

import numpy as np

from .geometry import (CurvatureFields, Fiber, HomogeneousState, State,
                       ball_volume_constant, curvature_fields, scale_state, sphere_area)

EPS0 = 1e-8


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
    """Running accumulators the integrator carries between steps."""

    min_s0: float
    sup_r: float
    acc_r: float
    acc_w: float
    prev_t: float
    prev_ir: float
    prev_iw: float
    eps0: float = EPS0

    @classmethod
    def start(cls, state: State, fields: CurvatureFields, eps0: float = EPS0):
        ir, iw = curvature_power_integrals(state, fields)
        return cls(min_s0=float(np.min(fields.s_scalar)),
                   sup_r=float(np.max(fields.scalar)),
                   acc_r=0.0, acc_w=0.0, prev_t=state.t,
                   prev_ir=ir, prev_iw=iw, eps0=eps0)

    def update(self, state: State, fields: CurvatureFields):
        """Advance accumulators to the state's time (call once per step)."""
        dt = state.t - self.prev_t
        ir, iw = curvature_power_integrals(state, fields)
        self.acc_r += 0.5 * (self.prev_ir + ir) * dt
        self.acc_w += 0.5 * (self.prev_iw + iw) * dt
        self.sup_r = max(self.sup_r, float(np.max(fields.scalar)))
        self.prev_t, self.prev_ir, self.prev_iw = state.t, ir, iw


def curvature_power_integrals(state: State, fields: CurvatureFields) -> tuple[float, float]:
    """(int |R|^p dmu, int |W|^p dmu) with p = (n+2)/2."""
    p = (state.n + 2) / 2.0
    return (state.integrate(np.abs(fields.scalar) ** p),
            state.integrate(np.abs(fields.weyl_sq) ** (p / 2.0)))


def make_monitor_record(state: State, fields: CurvatureFields,
                        mon: MonitorState) -> MonitorRecord:
    alpha = state.alpha
    length, volume = state.length_volume()
    integrand = state.integrate(-fields.scalar + 0.5 * alpha * fields.grad_phi_sq)
    max_grad = float(np.max(fields.grad_phi_sq))
    max_ric = fields.max_ric
    phi_min, phi_max = state.map_range()
    margin = mon.sup_r + mon.eps0 - mon.min_s0 - alpha * max_grad
    return MonitorRecord(
        min_s=float(np.min(fields.s_scalar)),
        max_s=float(np.max(fields.s_scalar)),
        max_grad_phi_sq=max_grad,
        max_ric=max_ric,
        max_rm=fields.max_rm,
        rm_argmax=int(np.argmax(fields.rm_sq)),
        max_abs_r=float(np.max(np.abs(fields.scalar))),
        phi_min=phi_min,
        phi_max=phi_max,
        length=length,
        volume=volume,
        volume_integrand=integrand,
        distortion_rate=2.0 * max_ric + 2.0 * alpha * max_grad,
        grad_margin=margin,
        acc_r=mon.acc_r,
        acc_w=mon.acc_w,
    )


# ---------------------------------------------------------------------------
# estimate monitors


def _records(traj):
    recs = traj.records
    if not recs:
        raise ValueError("trajectory has no records")
    return recs


def monitor_S_evolution(traj, k: int | None = None) -> float:
    """Sup-norm residual of the evolution identity

        (d/dt - Lap) Sigma - 2|Sigma_ij|^2 - alpha |Lap phi|^2

    with Sigma the flow-normalized scalar (see module docstring).  The
    time derivative is the central difference across snapshots
    k-1, k, k+1, which must be uniformly spaced; with k=None the worst
    residual over all uniform interior windows is returned.
    """
    recs = _records(traj)
    # windows slide by one record, so three cached fields compute each once
    fields_of = lru_cache(maxsize=3)(lambda i: curvature_fields(recs[i].state))
    if k is not None:
        return _s_evolution_window(recs, k, fields_of)
    worst = None
    for kk in range(1, len(recs) - 1):
        d1 = recs[kk].t - recs[kk - 1].t
        d2 = recs[kk + 1].t - recs[kk].t
        if abs(d1 - d2) > 1e-9 * max(d1, d2):
            continue
        worst = max(worst or 0.0, _s_evolution_window(recs, kk, fields_of))
    if worst is None:
        raise ValueError("need at least three uniformly spaced snapshots")
    return worst


def _s_evolution_window(recs, k: int, fields_of) -> float:
    if not (1 <= k <= len(recs) - 2):
        raise ValueError(f"window index {k} needs neighbors on both sides")
    prev, mid, nxt = recs[k - 1], recs[k], recs[k + 1]
    d1 = mid.t - prev.t
    d2 = nxt.t - mid.t
    if abs(d1 - d2) > 1e-9 * max(d1, d2):
        raise ValueError("snapshots are not uniformly spaced around the window")
    f_prev, f_mid, f_next = fields_of(k - 1), fields_of(k), fields_of(k + 1)
    dsdt = (f_next.s_flow - f_prev.s_flow) / (d1 + d2)
    lap_s = mid.state.laplacian(f_mid.s_flow)
    alpha = mid.state.alpha
    resid = dsdt - lap_s - 2.0 * f_mid.flow_tensor_sq - alpha * f_mid.lap_phi**2
    return float(np.max(np.abs(resid)))


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

        (sup_{t'<=t} max R + eps0) - min S(0) - alpha * max |grad phi|^2(t).

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
    holds).  Zero (up to eps0) means the estimate holds.
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

    max_resid = 0.0
    for k in range(len(recs) - 1):
        dt = times[k + 1] - times[k]
        if dt <= 0.0:
            raise ValueError("record times must be strictly increasing")
        rate = (vols[k + 1] - vols[k]) / dt
        avg = 0.5 * (integrands[k] + integrands[k + 1])
        scale = 1.0 + max(abs(integrands[k]), abs(integrands[k + 1]))
        max_resid = max(max_resid, abs(rate - avg) / scale)

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


def spacetime_norms(traj, scaled: bool = False) -> tuple[float, float]:
    """Accumulated (int_0^T int |R|^{(n+2)/2} dmu dt, same for |W|).
    With scaled=True both are raised to the power 2/(n+2)."""
    recs = _records(traj)
    nr, nw = recs[-1].monitor.acc_r, recs[-1].monitor.acc_w
    if scaled:
        p = 2.0 / (recs[0].state.n + 2.0)
        nr, nw = nr**p, nw**p
    return nr, nw


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
