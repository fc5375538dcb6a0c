import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from rhflow import analysis
from rhflow.analysis import (ball_volume_expansion_fit, check_gradient_bound,
                             check_metric_distortion, check_min_S_monotone,
                             check_phi_max_principle, check_volume_evolution,
                             curvature_ratio_diagnostic, fit_order,
                             geodesic_ball_volume, monitor_S_evolution,
                             parabolic_rescale, pick_blowup_points, spacetime_norms)
from rhflow.convergence import s_residual_study
from rhflow.flow import FlowConfig, run
from rhflow.geometry import (Factor, Fiber, Grid, HomogeneousState, WarpedState,
                             ball_volume_constant, compute_curvature, curvature_fields,
                             scale_state, sphere_area)
from rhflow.oracles import Scenario, exact_state
from rhflow.verification import run_verification


def run_scenario(scn, m=32, dt=1e-3, t_end=0.3, output_every=1, **kw):
    cfg = FlowConfig(scenario=scn.id, n=scn.n, alpha=scn.alpha, m=m, dt=dt,
                     t_end=t_end, output_every=output_every, **kw)
    return run(cfg, exact_state(scn, 0.0, m))


@pytest.fixture(scope="module")
def torus_traj():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    return run_scenario(scn, dt=5e-4, t_end=0.2)


@pytest.fixture(scope="module")
def cylinder_traj():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    return run_scenario(scn, dt=1e-3, t_end=0.3, output_every=2,
                        blowup_threshold=1e6)


@pytest.fixture(scope="module")
def flat_traj():
    scn = Scenario("flat_stationary", 4, 1.0)
    return run_scenario(scn, dt=2e-3, t_end=0.2, output_every=5)


# --------------------------------------------------------------------------
# evolution identity


def test_s_evolution_flat_is_zero(flat_traj):
    assert monitor_S_evolution(flat_traj) == 0.0


def test_s_evolution_torus_closed_form(torus_traj):
    # spatially constant run: residual is pure central-difference error
    assert monitor_S_evolution(torus_traj) <= 1e-6


def test_s_evolution_torus_refines_in_dt():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    residuals = []
    dts = [2e-3, 1e-3, 5e-4]
    for dt in dts:
        traj = run_scenario(scn, m=16, dt=dt, t_end=0.05)
        residuals.append(monitor_S_evolution(traj))
    assert fit_order(dts, residuals) >= 1.9, residuals


def test_s_evolution_joint_refinement_perturbed_cylinder():
    scn = Scenario("perturbed_cylinder", 4, 1.0, winding=0, amplitude=0.05)
    res = s_residual_study(scn, [32, 64, 128], theta=0.05, t_star=0.05)
    assert res.order >= 1.9, res.errors


def test_s_evolution_window_requirements(torus_traj):
    with pytest.raises(ValueError):
        monitor_S_evolution(torus_traj, k=0)
    single = run_scenario(Scenario("flat_stationary", 4, 1.0), dt=1e-2,
                          t_end=0.02, output_every=1000)
    with pytest.raises(ValueError, match="uniform"):
        monitor_S_evolution(single)


def test_s_evolution_homogeneous_sphere():
    scn = Scenario("shrinking_sphere", 3, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=3, alpha=0.0, dt=5e-4, t_end=0.1,
                     output_every=1)
    traj = run(cfg, exact_state(scn, 0.0, representation="homogeneous"))
    assert monitor_S_evolution(traj) <= 5e-3


# --------------------------------------------------------------------------
# minimum principle, gradient bound, maximum principle


def test_min_s_monotone(torus_traj, cylinder_traj, flat_traj):
    assert check_min_S_monotone(torus_traj) == 0.0
    assert check_min_S_monotone(cylinder_traj) == 0.0
    assert check_min_S_monotone(flat_traj) == 0.0


def test_gradient_bound_torus(torus_traj):
    # alpha |grad phi|^2 = 1/(1+t) <= max R - min S(0) = 1; equality at t=0
    margin = check_gradient_bound(torus_traj)
    assert margin >= -1e-8
    assert margin <= 2e-8  # the bound is tight at t=0 (up to the eps0 slack)
    first = torus_traj.records[0].monitor
    assert first.max_grad_phi_sq == pytest.approx(1.0, abs=1e-13)


def test_gradient_bound_constant_phi(cylinder_traj):
    assert check_gradient_bound(cylinder_traj) >= -1e-8


def test_phi_max_principle_constant(flat_traj):
    assert check_phi_max_principle(flat_traj) == 0.0


def test_phi_max_principle_heat_decay():
    # w=0, u0 = sin x on a flat background: plain heat flow on the circle
    m = 64
    x = Grid(m).x
    state = WarpedState(2, Fiber.FLAT_TORUS, 0.0, np.ones(m), np.ones(m), 0,
                        np.sin(x))
    cfg = FlowConfig(scenario="custom", n=2, alpha=0.0, m=m, dt=5e-4, t_end=0.5,
                     output_every=20)
    traj = run(cfg, state)
    assert check_phi_max_principle(traj) == 0.0
    ranges = [rec.monitor.phi_max - rec.monitor.phi_min for rec in traj.records]
    assert all(b <= a + 1e-14 for a, b in zip(ranges, ranges[1:]))
    # the k=1 mode decays like exp(-t)
    assert ranges[-1] == pytest.approx(2.0 * math.exp(-0.5), rel=5e-3)


def test_phi_max_principle_skipped_for_winding():
    scn = Scenario("perturbed_torus", 2, 1.0, winding=1, amplitude=0.1)
    traj = run_scenario(scn, m=32, dt=5e-4, t_end=0.05, output_every=10)
    assert check_phi_max_principle(traj) is None


# --------------------------------------------------------------------------
# distortion and volume


def test_distortion_same_time_is_zero(torus_traj):
    rec = torus_traj.records[3]
    assert check_metric_distortion(SimpleNamespace(records=[rec, rec])) == 0.0


def test_distortion_torus_closed_form(torus_traj):
    # log(a(t)/a0) = log(1+t) <= 2t = C_meas * t
    ends = SimpleNamespace(records=[torus_traj.records[0], torus_traj.records[-1]])
    assert check_metric_distortion(ends) == 0.0
    assert check_metric_distortion(torus_traj) <= 1e-8
    first = torus_traj.records[0].monitor
    assert first.distortion_rate == pytest.approx(2.0, abs=1e-12)


def test_distortion_cylinder(cylinder_traj):
    # x-direction coefficient is constant; the fiber ratio is covered by C_meas
    assert check_metric_distortion(cylinder_traj) <= 1e-8
    f0 = cylinder_traj.records[0].state.f
    f1 = cylinder_traj.records[-1].state.f
    assert np.array_equal(f0, f1)


def test_volume_evolution_flat(flat_traj):
    resid, margin = check_volume_evolution(flat_traj)
    assert resid == 0.0
    assert margin >= 0.0


def test_volume_evolution_closed_forms(torus_traj, cylinder_traj):
    resid, margin = check_volume_evolution(torus_traj)
    assert resid <= 1e-6
    assert margin >= -1e-10
    # evaluate the cylinder on a resolved window (the blow-up tail is
    # covered by the lower-bound check below)
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    smooth = run_scenario(scn, m=16, dt=1e-3, t_end=0.2, output_every=1,
                          blowup_threshold=1e6)
    resid, margin = check_volume_evolution(smooth)
    assert resid <= 1e-5
    assert margin >= -1e-10
    # the exponential lower bound also holds through the pinch
    _, margin = check_volume_evolution(cylinder_traj)
    assert margin >= -1e-10


def test_volume_residual_refines_at_second_order():
    # halving the record spacing divides the trapezoid residual by ~4
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    spacings, resids = [], []
    for every in (8, 4, 2):
        traj = run_scenario(scn, m=16, dt=5e-4, t_end=0.2, output_every=every,
                            blowup_threshold=1e6)
        resid, _ = check_volume_evolution(traj)
        spacings.append(every * 5e-4)
        resids.append(resid)
    assert fit_order(spacings, resids) >= 1.9, resids

    scn = Scenario("torus_list", 2, 1.0, winding=1)
    spacings, resids = [], []
    for every in (8, 4, 2):
        traj = run_scenario(scn, m=16, dt=5e-4, t_end=0.5, output_every=every)
        resid, _ = check_volume_evolution(traj)
        spacings.append(every * 5e-4)
        resids.append(resid)
    assert fit_order(spacings, resids) >= 1.9, resids


def test_torus_volume_identity_has_the_half_coupling():
    # dV/dt = V * alpha/(2a) equals the implemented integrand; the full
    # coupling integral int -S dv = V * alpha/a is twice too large
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    traj = run_scenario(scn, m=16, dt=1e-3, t_end=0.5, output_every=50)
    for rec in traj.records:
        a = 1.0 + rec.t
        want = rec.monitor.volume * scn.alpha / (2.0 * a)
        assert rec.monitor.volume_integrand == pytest.approx(want, rel=1e-10)
        fields = curvature_fields(rec.state)
        full = -float(fields.s_scalar[0]) * rec.monitor.volume
        assert full == pytest.approx(2.0 * want, rel=1e-10)


# --------------------------------------------------------------------------
# blow-up toolkit


def test_picker_flat_empty(flat_traj):
    assert pick_blowup_points(flat_traj) == []


def test_picker_cylinder(cylinder_traj):
    picks = pick_blowup_points(cylinder_traj)
    assert picks
    qs = [p.q for p in picks]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    # spatially constant curvature: every grid point attains the max
    fields = compute_curvature(cylinder_traj.records[-1].state)
    assert float(np.ptp(fields.rm_sq)) == 0.0
    assert qs[-1] >= 1e6


def test_picker_perturbed_cylinder_finds_neck():
    scn = Scenario("perturbed_cylinder", 4, 1.0, winding=0, amplitude=0.05)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=1.0, m=64, t_end=0.3,
                     output_every=5, blowup_threshold=1e6)
    traj = run(cfg, exact_state(scn, 0.0, 64))
    assert traj.termination == "blowup_threshold"
    picks = pick_blowup_points(traj)
    last = picks[-1]
    rec = next(r for r in traj.records if r.t == last.t)
    assert last.index == int(np.argmin(rec.state.psi))


def test_parabolic_rescale_identity():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    state = exact_state(scn, 0.5, 16)
    out = parabolic_rescale(state, 1.0)
    assert np.array_equal(out.f, state.f)
    assert np.array_equal(out.psi, state.psi)


def test_parabolic_rescale_normalizes_curvature(cylinder_traj):
    state = cylinder_traj.records[-1].state
    fields = compute_curvature(state)
    q = fields.max_rm
    out = parabolic_rescale(state, q)
    new = compute_curvature(out)
    assert abs(new.max_rm - 1.0) <= 1e-12
    assert np.max(np.abs(new.s_scalar - fields.s_scalar / q)) \
        <= 1e-12 * (1.0 + np.max(np.abs(fields.s_scalar)))


def test_parabolic_rescale_divides_s_by_q(torus_traj):
    state = torus_traj.records[-1].state
    fields = compute_curvature(state)
    out = parabolic_rescale(state, 10.0)
    new = compute_curvature(out)
    assert np.min(new.s_scalar) == pytest.approx(np.min(fields.s_scalar) / 10.0,
                                                 rel=1e-12)


# --------------------------------------------------------------------------
# ball-volume expansion


def test_ball_volume_flat_exact():
    flat = HomogeneousState(3, 0.0, tuple(Factor(1.0, Fiber.FLAT_TORUS, 1)
                                          for _ in range(3)))
    radii = [0.05, 0.1, 0.15, 0.2]
    omega = ball_volume_constant(3)
    for r in radii:
        assert geodesic_ball_volume(flat, r) / r**3 == pytest.approx(omega, rel=1e-14)
    assert ball_volume_expansion_fit(flat, radii) == 0.0


def test_ball_volume_unit_s3():
    s3 = HomogeneousState(3, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 3),))
    # exact ball volume on the unit S^3 is pi (2r - sin 2r)
    for r in (0.1, 0.2, 0.5):
        want = math.pi * (2.0 * r - math.sin(2.0 * r))
        assert geodesic_ball_volume(s3, r) == pytest.approx(want, rel=1e-10)
    radii = np.linspace(0.05, 0.2, 7)
    c = ball_volume_expansion_fit(s3, radii)
    # R = 6, so R/(6(n+2)) = 0.2
    assert abs(c - 0.2) <= 0.02 * 0.2


def test_ball_volume_round_sphere_matches_adaptive_quadrature():
    # independent oracle: adaptive quadrature of the area of the geodesic
    # sphere, (rho sin(s/rho))^(n-1) |S^(n-1)|, out to nearly the antipode
    worst = 0.0
    for n in range(2, 10):
        for coeff in (1.0, 4.0):
            rho = math.sqrt(coeff)
            sphere = HomogeneousState(n, 0.0, (Factor(coeff, Fiber.ROUND_SPHERE, n),))
            for r in rho * np.geomspace(1e-3, 0.99 * math.pi, 12):
                val, _ = quad(lambda s: (rho * math.sin(s / rho)) ** (n - 1), 0.0, r,
                              epsabs=0.0, epsrel=2e-14, limit=200)
                want = sphere_area(n - 1) * val
                worst = max(worst, abs(geodesic_ball_volume(sphere, r) / want - 1.0))
    assert worst <= 1e-13


def test_ball_volume_scaling():
    radii = np.linspace(0.05, 0.2, 7)
    q = 4.0
    s3 = HomogeneousState(3, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 3),))
    s3q = HomogeneousState(3, 0.0, (Factor(q, Fiber.ROUND_SPHERE, 3),))
    c1 = ball_volume_expansion_fit(s3, radii)
    cq = ball_volume_expansion_fit(s3q, radii * math.sqrt(q))
    assert cq == pytest.approx(c1 / q, rel=1e-10)


def test_ball_volume_rejects_mixed_products():
    mixed = HomogeneousState(4, 0.0, (Factor(1.0, Fiber.FLAT_TORUS, 1),
                                      Factor(1.0, Fiber.ROUND_SPHERE, 3)))
    with pytest.raises(ValueError, match="single round sphere"):
        geodesic_ball_volume(mixed, 0.1)
    s3 = HomogeneousState(3, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 3),))
    with pytest.raises(ValueError, match="diameter"):
        geodesic_ball_volume(s3, 4.0)
    flat = HomogeneousState(2, 0.0, (Factor(1.0, Fiber.FLAT_TORUS, 1),
                                     Factor(1.0, Fiber.FLAT_TORUS, 1)))
    with pytest.raises(ValueError, match="injectivity"):
        geodesic_ball_volume(flat, 4.0)


# --------------------------------------------------------------------------
# spacetime norms and the curvature-ratio diagnostic


def test_spacetime_norms_flat(flat_traj):
    assert spacetime_norms(flat_traj) == (0.0, 0.0)


def test_spacetime_norms_torus_weyl(torus_traj):
    nr, nw = spacetime_norms(torus_traj)
    assert nr == 0.0 and nw == 0.0  # flat metric throughout, W = 0 in n=2


def test_spacetime_norm_cylinder_closed_form():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    traj = run_scenario(scn, m=16, dt=1e-3, t_end=0.2, output_every=1,
                        blowup_threshold=1e6)
    nr, nw = spacetime_norms(traj)
    t = traj.final_t
    want = 432.0 * math.pi**3 * ((1.0 - 4.0 * t) ** -0.5 - 1.0)
    assert abs(nr - want) <= 0.01 * want
    assert abs(nw) <= 1e-10
    nr_s, _ = spacetime_norms(traj, scaled=True)
    assert nr_s == pytest.approx(nr ** (1.0 / 3.0), rel=1e-12)


def test_curvature_ratio_cylinder(cylinder_traj):
    times, ratios = curvature_ratio_diagnostic(cylinder_traj)
    # closed form: sqrt(12)/psi^2 / (1 + 2/psi^2), from 1.1547 toward sqrt(3)
    assert ratios[0] == pytest.approx(math.sqrt(12.0) / 3.0, rel=1e-10)
    assert ratios[-1] == pytest.approx(math.sqrt(3.0), rel=1e-3)
    assert np.max(ratios) / np.min(ratios) <= 2.0


def test_curvature_ratio_flat(flat_traj):
    _, ratios = curvature_ratio_diagnostic(flat_traj)
    assert np.all(ratios == 0.0)


def test_fit_order_recovers_slope():
    hs = np.array([0.2, 0.1, 0.05])
    errs = 3.0 * hs**2.17
    assert fit_order(hs, errs) == pytest.approx(2.17, abs=1e-12)
    with pytest.raises(ValueError):
        fit_order(hs, [1.0, 0.0, -1.0])


def _random_state(rng, m, n):
    x = Grid(m).x
    modes = np.arange(1, 4)
    def trig(scale):
        a = rng.uniform(-scale, scale, size=3)
        b = rng.uniform(-scale, scale, size=3)
        return (a[None, :] * np.cos(np.outer(x, modes))
                + b[None, :] * np.sin(np.outer(x, modes))).sum(axis=1)
    fiber = Fiber.ROUND_SPHERE if rng.integers(0, 2) else Fiber.FLAT_TORUS
    winding = int(rng.integers(0, 2))
    alpha = float(rng.uniform(0.3, 1.5))
    return WarpedState(n, fiber, alpha, 1.0 + trig(0.05), 1.0 + trig(0.05),
                       winding, trig(0.1))


@pytest.mark.parametrize("seed,n", [(11, 3), (12, 4), (13, 4)])
def test_monitor_stack_on_random_states(seed, n):
    # the estimate monitors hold on generic smooth initial data, not only
    # on the named scenarios
    rng = np.random.default_rng(seed)
    state = _random_state(rng, 48, n)
    cfg = FlowConfig(scenario="custom", n=n, alpha=state.alpha, m=48, dt=4e-4,
                     t_end=0.1, output_every=5, blowup_threshold=1e8)
    traj = run(cfg, state)
    assert traj.termination in ("reached_t_end", "blowup_threshold")
    assert check_min_S_monotone(traj) <= 1e-8
    assert check_gradient_bound(traj) >= -1e-8
    assert check_metric_distortion(traj) <= 1e-8
    resid, margin = check_volume_evolution(traj)
    assert margin >= -1e-10
    viol = check_phi_max_principle(traj)
    if state.winding == 0:
        osc0 = traj.records[0].monitor.phi_max - traj.records[0].monitor.phi_min
        assert viol <= 1e-8 * osc0 + 1e-12
    else:
        assert viol is None


def test_ansatz_is_exactly_preserved():
    scn = Scenario("perturbed_cylinder", 4, 1.0, winding=0, amplitude=0.05)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=1.0, m=32, dt=5e-4, t_end=0.05,
                     output_every=10)
    traj = run(cfg, exact_state(scn, 0.0, 32))
    first = traj.records[0].state
    for rec in traj.records:
        assert type(rec.state) is type(first)
        assert rec.state.n == first.n
        assert rec.state.fiber is first.fiber
        assert rec.state.m == first.m
        assert rec.state.winding == first.winding


def _pairwise_distortion(traj):
    recs = traj.records
    return analysis._pairwise_distortion(
        np.stack([rec.state.metric_logs() for rec in recs]),
        np.array([rec.monitor.distortion_rate for rec in recs]),
        np.array([rec.monitor.length for rec in recs]),
        np.array([rec.t for rec in recs]))


def test_distortion_fast_path_matches_pairwise_scan(monkeypatch):
    report = run_verification()
    scanned = []
    scan = analysis._pairwise_distortion
    monkeypatch.setattr(analysis, "_pairwise_distortion",
                        lambda *args: scanned.append(True) or scan(*args))
    fell_back = set()
    for key, traj in report.trajectories.items():
        before = len(scanned)
        got = check_metric_distortion(traj)
        if len(scanned) > before:
            fell_back.add(key[0])
        assert got == _pairwise_distortion(traj), key
    # flat records have adjacent excesses of exactly 0, which take the scan;
    # the curved runs meet the bound with room and take the linear pass
    assert "flat_stationary" in fell_back
    assert "perturbed_cylinder" not in fell_back


def test_distortion_violation_falls_back_to_pairwise_scan(torus_traj):
    k = len(torus_traj.records) // 2
    records = list(torus_traj.records)
    # a jump of the metric between two adjacent records that no rate explains
    state = records[k].state
    records[k] = dataclasses.replace(records[k], state=scale_state(state, 1.01))
    traj = SimpleNamespace(records=records)
    got = check_metric_distortion(traj)
    assert got > 0.009
    assert got == _pairwise_distortion(traj)


def test_s_evolution_is_worst_uniform_window():
    rng = np.random.default_rng(5)
    state = _random_state(rng, 32, 4)
    cfg = FlowConfig(scenario="custom", n=4, alpha=state.alpha, m=32, dt=4e-4,
                     t_end=0.05, output_every=3, blowup_threshold=1e8)
    traj = run(cfg, state)
    windows = []
    for k in range(1, len(traj.records) - 1):
        try:
            windows.append(monitor_S_evolution(traj, k=k))
        except ValueError:  # the last window, closed by the t_end record
            pass
    assert len(windows) == len(traj.records) - 3
    assert monitor_S_evolution(traj) == max(windows)
