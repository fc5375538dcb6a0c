import dataclasses
import math

import numpy as np
import pytest

from rhflow import analysis, flow
from rhflow.convergence import temporal_study
from rhflow.flow import FlowConfig, StepError, rhs, run, step
from rhflow.geometry import Factor, Fiber, Grid, HomogeneousState, WarpedState, \
    curvature_fields, scale_state
from rhflow.oracles import Scenario, default_scenario, exact_state


def test_rhs_torus_coupling():
    # n=2 flat, f=1 (a=1), w=1, alpha=2: df/dt = 1 pointwise, i.e. da/dt = 2
    m = 32
    state = WarpedState(2, Fiber.FLAT_TORUS, 2.0, np.ones(m), np.ones(m), winding=1)
    df, dpsi, du = rhs(state)
    assert np.allclose(df, 1.0, atol=1e-14)
    assert np.all(dpsi == 0.0)
    assert np.all(du == 0.0)


def test_rhs_cylinder():
    m = 32
    state = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), np.ones(m))
    df, dpsi, _ = rhs(state)
    assert np.allclose(dpsi, -2.0, atol=1e-14)
    assert np.all(df == 0.0)


def test_rhs_flat_stationary():
    m = 32
    state = WarpedState(4, Fiber.FLAT_TORUS, 1.0, np.ones(m), np.ones(m))
    for d in rhs(state):
        assert np.all(d == 0.0)


def test_step_preserves_stationary_state():
    m = 16
    state = WarpedState(4, Fiber.FLAT_TORUS, 1.0, np.ones(m), np.ones(m))
    new = step(state, 1e-2)
    assert np.array_equal(new.f, state.f)
    assert np.array_equal(new.psi, state.psi)
    assert np.array_equal(new.u, state.u)
    assert new.t == pytest.approx(1e-2)


def test_step_torus_one_step():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    state = exact_state(scn, 0.0, 16)
    new = step(state, 1e-3)
    assert abs(new.f[0] ** 2 - 1.001) <= 1e-12


def test_step_cylinder_one_step():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    state = exact_state(scn, 0.0, 16)
    new = step(state, 1e-4)
    assert abs((1.0 - new.psi[0] ** 2) - 4e-4) <= 1e-10


def test_step_rejects_overstep():
    # a step past the singular time (0.25 for both) loses positivity, of psi
    # on the warped cylinder and of the coefficient on the homogeneous sphere
    for scn, representation in ((Scenario("shrinking_cylinder", 4, 0.0), "warped"),
                                (Scenario("shrinking_sphere", 3, 0.0), "homogeneous")):
        state = exact_state(scn, 0.0, 16, representation)
        with pytest.raises(StepError):
            step(state, 0.5)
        with pytest.raises(ValueError):
            step(state, -1e-3)


# nan and inf pass a `<= 0` test; a step of either size is a caller's error,
# not a rejected step
@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scn, representation", [
    (Scenario("shrinking_cylinder", 4, 0.0), "warped"),
    (Scenario("shrinking_sphere", 3, 0.0), "homogeneous"),
], ids=["warped", "homogeneous"])
def test_step_refuses_non_finite_dt(dt, scn, representation):
    state = exact_state(scn, 0.0, 16, representation)
    with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt}$"):
        step(state, dt)


def test_run_flat_reaches_t_end_unchanged():
    cfg = FlowConfig(scenario="flat_stationary", n=4, alpha=1.0,
                     fiber=Fiber.FLAT_TORUS, m=16, dt=5e-3, t_end=1.0,
                     output_every=50)
    state = WarpedState(4, Fiber.FLAT_TORUS, 1.0, np.ones(16), np.ones(16))
    traj = run(cfg, state)
    assert traj.termination == "reached_t_end"
    assert np.max(np.abs(traj.final_state.f - 1.0)) <= 1e-12
    assert np.max(np.abs(traj.final_state.psi - 1.0)) <= 1e-12


def test_run_cylinder_blowup_time():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=0.0, m=16, dt=1e-3, t_end=0.3,
                     blowup_threshold=1e6, output_every=10)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    assert traj.termination == "blowup_threshold"
    assert abs(traj.final_t - 0.25) <= 0.01 * 0.25


def test_run_torus_final_coefficient():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=1.0, m=16, dt=1e-3, t_end=1.0,
                     output_every=100)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    a = traj.final_state.f[0] ** 2
    assert abs(a - 2.0) / 2.0 <= 1e-6


def test_a_resumed_leg_leaves_the_given_monitor_state_alone():
    # a library resume from a first leg's trajectory: run advances a copy,
    # so the first trajectory keeps the monitor state it ended on
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=0.0, m=16, dt=1e-3, t_end=0.05,
                     output_every=10)
    first = run(cfg, exact_state(scn, 0.0, 16), stop_after_steps=20)
    given = first.monitor_state
    kept = dataclasses.astuple(given)
    second = run(cfg, first.final_state, steps_done=20, monitor_state=given)
    assert first.monitor_state is given and dataclasses.astuple(given) == kept
    assert given.prev_t == first.final_t and second.monitor_state is not given
    whole = run(cfg, exact_state(scn, 0.0, 16))
    assert dataclasses.astuple(second.monitor_state) == dataclasses.astuple(whole.monitor_state)


def test_run_records_strictly_increasing():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=1.0, m=16, dt=1e-3, t_end=0.05,
                     output_every=7)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    times = np.array([rec.t for rec in traj.records])
    assert np.all(np.diff(times) > 0)
    assert traj.termination == "reached_t_end"


def test_run_homogeneous_sphere():
    scn = Scenario("shrinking_sphere", 3, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=3, alpha=0.0, dt=1e-3, t_end=0.125,
                     output_every=25)
    traj = run(cfg, exact_state(scn, 0.0, representation="homogeneous"))
    # da/dt is constant, so RK4 is exact: a(t) = 1 - 4t
    assert traj.final_state.coefficients()[0] == pytest.approx(0.5, abs=1e-12)


def test_run_homogeneous_torus_exact():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=1.0, dt=1e-2, t_end=1.0,
                     output_every=25)
    traj = run(cfg, exact_state(scn, 0.0, representation="homogeneous"))
    assert traj.final_state.coefficients()[0] == pytest.approx(2.0, abs=1e-12)
    assert traj.final_state.coefficients()[1] == pytest.approx(1.0, abs=0.0)


def test_run_homogeneous_all_flat_constant():
    state = HomogeneousState(3, 1.0, tuple(Factor(1.0, Fiber.FLAT_TORUS, 1)
                                           for _ in range(3)))
    cfg = FlowConfig(scenario="flat_stationary", n=3, alpha=1.0, dt=0.05,
                     t_end=1.0, output_every=5)
    traj = run(cfg, state)
    assert traj.termination == "reached_t_end"
    assert np.array_equal(traj.final_state.coefficients(), state.coefficients())


def test_rhs_homogeneous_rates():
    state = HomogeneousState(4, 2.0, (Factor(1.5, Fiber.FLAT_TORUS, 1, slope=2.0),
                                      Factor(3.0, Fiber.ROUND_SPHERE, 3)))
    rates = rhs(state)[0]
    assert rates[0] == pytest.approx(2.0 * 4.0)   # alpha * slope^2
    assert rates[1] == pytest.approx(-4.0)        # -2(d-1)


def test_winding_is_conserved():
    scn = Scenario("perturbed_torus", 2, 1.0, winding=3, amplitude=0.05)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=1.0, m=32, dt=1e-3, t_end=0.05,
                     output_every=10)
    traj = run(cfg, exact_state(scn, 0.0, 32))
    assert all(rec.state.winding == 3 for rec in traj.records)


def test_temporal_convergence_order():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    res = temporal_study(scn, [4e-3, 2e-3, 1e-3], t_star=0.2)
    assert not res.exact
    assert res.order >= 3.8, res.errors


def test_spatial_convergence_order(converge_studies):
    # converge's study on perturbed_cylinder (n 4, alpha 1, amplitude 0.05):
    # spatial_study at m = 32, 64, 128, dt 3e-5 and t_star 0.02
    res = converge_studies["perturbed_cylinder"][0]
    assert (res.name, res.scales) == ("spatial", [2.0 * np.pi / m for m in (32, 64, 128)])
    assert res.order >= 1.9, res.errors


def test_scaling_equivariance_of_the_flow():
    # evolve then rescale == rescale then evolve with time sped up by q
    q = 4.0
    tau = 0.02
    dt = 2e-4
    m = 32
    x = Grid(m).x
    state = WarpedState(4, Fiber.ROUND_SPHERE, 0.7, 1.0 + 0.05 * np.sin(x),
                        1.0 + 0.05 * np.cos(x), 1, 0.1 * np.sin(x))

    cfg_a = FlowConfig(scenario="custom", n=4, alpha=0.7, m=m, dt=dt, t_end=tau,
                       output_every=10**6, rate_limit=1e9)
    path_a = scale_state(run(cfg_a, state).final_state, q)

    cfg_b = FlowConfig(scenario="custom", n=4, alpha=0.7, m=m, dt=q * dt,
                       t_end=q * tau, output_every=10**6, rate_limit=1e9)
    path_b = run(cfg_b, scale_state(state, q)).final_state

    for got, want in ((path_b.f, path_a.f), (path_b.psi, path_a.psi),
                      (path_b.u, path_a.u)):
        assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def test_stop_after_steps_must_exceed_steps_done():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=0.0, m=16, dt=1e-3, t_end=0.3,
                     blowup_threshold=1e6, output_every=10)
    state = exact_state(scn, 0.0, 16)
    for stop, done in ((0, 0), (-3, 0), (5, 10), (10, 10)):
        with pytest.raises(ValueError, match=f"stop_after_steps {stop} must exceed "
                                             f"the {done} steps"):
            run(cfg, state, stop_after_steps=stop, steps_done=done)
    assert run(cfg, state, stop_after_steps=11, steps_done=10).steps == 11


def test_a_leg_started_on_the_cadence_records_its_start_state_first():
    # one recording rule for every leg: the state at a split on the cadence
    # is recorded by both legs (runio keeps it once)
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=0.0, m=16, dt=1e-3, t_end=0.05,
                     output_every=10)
    state = exact_state(scn, 0.0, 16)
    full = run(cfg, state)
    first = run(cfg, state, stop_after_steps=20)
    second = run(cfg, first.final_state, steps_done=20, monitor_state=first.monitor_state)
    assert first.records[-1].step == second.records[0].step == 20
    assert ([(rec.step, rec.t) for rec in second.records]
            == [(rec.step, rec.t) for rec in full.records if rec.step >= 20])


def test_blowup_threshold_must_exceed_initial():
    m = 16
    state = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), np.ones(m))
    cfg = FlowConfig(scenario="custom", n=4, alpha=0.0, m=m, t_end=0.1,
                     blowup_threshold=1.0)
    with pytest.raises(ValueError, match="blowup_threshold"):
        run(cfg, state)


def test_t_end_must_exceed_initial_t():
    # a state at or past t_end has nothing to integrate; run refuses it as it
    # refuses a blowup_threshold the state already reaches
    m = 16
    cfg = FlowConfig(scenario="custom", n=4, alpha=0.0, m=m, t_end=0.1, dt=1e-3)
    for t in (0.1, 0.15):
        state = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), np.ones(m), t=t)
        with pytest.raises(ValueError, match=f"t_end 0.1 must exceed the initial t {t:g}"):
            run(cfg, state)


def test_nonfinite_termination_when_steps_stall():
    # with an unreachably large threshold the pinch stalls the step size,
    # and the trajectory ends with reason nonfinite at the last resolved time
    m = 16
    state = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), np.ones(m))
    cfg = FlowConfig(scenario="custom", n=4, alpha=0.0, m=m, t_end=0.3, dt=1e-3,
                     blowup_threshold=1e250, output_every=50)
    traj = run(cfg, state)
    assert traj.termination == "nonfinite"
    assert traj.final_t < 0.25
    assert np.all(np.isfinite(traj.final_state.psi))


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(t_end=-1.0)
    for c_cfl in (3.0, 0.0):
        with pytest.raises(ValueError, match="c_cfl must lie in"):
            FlowConfig(c_cfl=c_cfl)
    for c_cfl in (1.5, flow._RK4_REAL_LIMIT):
        assert FlowConfig(c_cfl=c_cfl).c_cfl == c_cfl
    with pytest.raises(ValueError):
        FlowConfig(dt=0.0)
    # the step floor 1e-15 * max(1, |t|) refuses these at every t, so the
    # run would end nonfinite at its first step
    for dt in (1e-16, 1e-15):
        with pytest.raises(ValueError, match="dt must exceed the step floor"):
            FlowConfig(dt=dt)
    assert FlowConfig(dt=2e-15).dt == 2e-15
    with pytest.raises(ValueError):
        FlowConfig(output_every=0)


# nan passes a `<= 0` test, so each field is checked with nan and inf (config
# files refuse both before FlowConfig sees them)
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["t_end", "dt", "rate_limit", "blowup_threshold"])
def test_config_refuses_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        FlowConfig(**{name: value})


def test_cfl_cap_is_rk4_real_axis_stability_limit():
    # RK4's stability polynomial at -z; the cap is where |R| returns to 1
    def amplification(z):
        return abs(1.0 - z + z**2 / 2.0 - z**3 / 6.0 + z**4 / 24.0)

    cap = flow._RK4_REAL_LIMIT
    assert amplification(cap) == pytest.approx(1.0, abs=1e-12)
    for z in np.linspace(1e-6, cap * (1.0 - 1e-9), 2001):
        assert amplification(z) < 1.0


def test_neck_at_the_cfl_cap_keeps_the_estimates():
    # the stability limit is a usable setting: the m=128 neck runs to
    # blow-up in 132 steps (187 at the default) with every estimate gate
    scn = default_scenario("perturbed_cylinder")
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=1.0, m=128, t_end=0.3,
                     c_cfl=flow._RK4_REAL_LIMIT, output_every=10)
    traj = run(cfg, exact_state(scn, 0.0, cfg.m))
    assert traj.termination == "blowup_threshold"
    assert traj.steps == 132
    assert abs(traj.final_t - 0.230415) <= 0.01 * 0.230415
    first = traj.records[0].monitor
    assert analysis.check_min_S_monotone(traj) <= 1e-8
    assert analysis.check_gradient_bound(traj) >= -1e-8
    assert analysis.check_volume_evolution(traj)[1] >= -1e-10
    assert analysis.check_phi_max_principle(traj) <= 1e-8 * (first.phi_max - first.phi_min) + 1e-12


def test_reduced_flow_matches_tensor_equation_via_oracle():
    # evolve with the reduced equations, then check the full tensor flow
    # dg/dt = -2 Ric + alpha dphi x dphi per coordinate block, with the
    # Ricci eigenvalues coming from the independent Christoffel pipeline
    from rhflow.christoffel import oracle_ricci_eigenvalues

    m = 64
    alpha = 0.8
    x = Grid(m).x
    state = WarpedState(4, Fiber.ROUND_SPHERE, alpha, 1.0 + 0.05 * np.sin(x),
                        1.0 + 0.05 * np.cos(x), 1, 0.1 * np.sin(x))
    dt = 1e-4
    cfg = FlowConfig(scenario="custom", n=4, alpha=alpha, m=m, dt=dt,
                     t_end=10 * dt, output_every=1)
    traj = run(cfg, state)
    prev, mid, nxt = (traj.records[k].state for k in (4, 5, 6))

    dg_xx = (nxt.f**2 - prev.f**2) / (2.0 * dt)
    dg_fib = (nxt.psi**2 - prev.psi**2) / (2.0 * dt)
    lam0, lam1 = oracle_ricci_eigenvalues(mid)
    want_xx = -2.0 * mid.f**2 * lam0 + alpha * mid.kernel.phi_x(mid.u) ** 2
    want_fib = -2.0 * mid.psi**2 * lam1

    assert np.max(np.abs(dg_xx - want_xx)) <= 2e-4 * (1.0 + np.max(np.abs(want_xx)))
    assert np.max(np.abs(dg_fib - want_fib)) <= 2e-4 * (1.0 + np.max(np.abs(want_fib)))


def test_run_cylinder_n3():
    # S^1 x S^2 shrinks at d(psi^2)/dt = -2, singular at 0.5
    scn = Scenario("shrinking_cylinder", 3, 0.0)
    cfg = FlowConfig(scenario=scn.id, n=3, alpha=0.0, m=16, dt=1e-3, t_end=0.6,
                     blowup_threshold=1e6, output_every=20)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    assert traj.termination == "blowup_threshold"
    assert abs(traj.final_t - 0.5) <= 0.01 * 0.5


def test_run_torus_winding_two():
    # da/dt = alpha w^2 = 2 for alpha = 0.5, w = 2
    scn = Scenario("torus_list", 2, 0.5, winding=2)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=0.5, m=16, dt=1e-3, t_end=0.5,
                     output_every=100)
    traj = run(cfg, exact_state(scn, 0.0, 16))
    assert traj.final_state.f[0] ** 2 == pytest.approx(2.0, rel=1e-10)


def test_alpha_zero_decouples_the_map():
    # with alpha = 0 and constant psi the metric never moves and the map
    # obeys the plain heat flow
    scn = Scenario("perturbed_torus", 2, 0.0, winding=0, amplitude=0.2)
    cfg = FlowConfig(scenario=scn.id, n=2, alpha=0.0, m=32, dt=1e-3, t_end=0.5,
                     output_every=50)
    initial = exact_state(scn, 0.0, 32)
    traj = run(cfg, initial)
    assert np.array_equal(traj.final_state.f, initial.f)
    assert np.array_equal(traj.final_state.psi, initial.psi)
    assert np.max(np.abs(traj.final_state.u)) < 0.7 * np.max(np.abs(initial.u))


WARPED_STATES = [
    WarpedState(2, Fiber.FLAT_TORUS, 1.0, 1.0 + 0.05 * np.sin(Grid(32).x),
                1.0 + 0.1 * np.cos(Grid(32).x), winding=2, u=0.1 * np.sin(2 * Grid(32).x)),
    WarpedState(4, Fiber.ROUND_SPHERE, 1.0, 1.0 + 0.05 * np.cos(Grid(32).x),
                1.0 + 0.05 * np.sin(Grid(32).x), u=0.2 * np.cos(Grid(32).x)),
]


@pytest.mark.parametrize("state", WARPED_STATES, ids=["winding", "round_fiber"])
def test_rhs_equals_curvature_fields_k1_bitwise(state):
    # run takes each step's k1 from the curvature fields of the state it
    # starts from; a resumed run repeats an uninterrupted one bit for bit
    # only if that k1 is exactly rhs(state)
    fields_k1 = flow._k1_from_fields(state, curvature_fields(state))
    for got, want in zip(rhs(state), fields_k1):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("state", [
    *WARPED_STATES,
    HomogeneousState(4, 2.0, (Factor(1.5, Fiber.FLAT_TORUS, 1, slope=2.0),
                              Factor(3.0, Fiber.ROUND_SPHERE, 3))),
], ids=["winding", "round_fiber", "homogeneous"])
def test_rates_from_fields_equal_rates_from_the_kernel_bitwise(state, sign):
    # on a stage block, not the state's own: the fields of the state that
    # adopts the block give the kernel's rates of that block, either sign
    y = state.arrays() + 0.01 * rhs(state)
    fields = curvature_fields(state.evolved(y, state.t))
    assert state.rates(y, sign, fields).tobytes() == state.rates(y, sign).tobytes()


def test_a_product_at_rest_has_no_step_bound():
    # flat factors without a slope do not move, and no parabolic bound
    # applies: c_cfl * stable_dt() is inf, not nan, and one step lands on t_end
    state = HomogeneousState(3, 1.0, (Factor(1.0, Fiber.FLAT_TORUS, 1),
                                      Factor(2.0, Fiber.FLAT_TORUS, 2)))
    cfg = FlowConfig(scenario="flat_stationary", n=3, alpha=1.0, t_end=1.0)
    assert state.stable_dt() == math.inf
    assert flow._dt_bound(state, cfg, rhs(state)) == math.inf
    traj = run(cfg, state)
    assert (traj.termination, traj.steps, traj.final_t) == ("reached_t_end", 1, 1.0)


def test_stage_losing_positivity_halves_the_step(monkeypatch):
    # psi' = -2/psi on the n=4 cylinder: stage 4 of a step of size c from
    # psi=1 is 1 - 2c(1-c)/(1-2c), negative for c > 1 - 1/sqrt(2)
    m = 8
    initial = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), np.ones(m))
    assert flow._try_step(initial, 0.3) is None
    rejected = []
    try_step = flow._try_step

    def counting(*args):
        new = try_step(*args)
        rejected.append(new is None)
        return new

    monkeypatch.setattr(flow, "_try_step", counting)
    cfg = FlowConfig(scenario="shrinking_cylinder", n=4, alpha=0.0, m=m, dt=0.3,
                     t_end=1.0, c_cfl=1.0, rate_limit=100.0, blowup_threshold=1e3)
    traj = run(cfg, initial)
    assert rejected[0] and any(rejected)
    assert traj.termination == "blowup_threshold"
    assert traj.records[1].t == 0.15
    assert traj.records[1].state.psi[0] ** 2 == pytest.approx(1.0 - 4 * 0.15, rel=1e-2)
    assert traj.final_t == pytest.approx(0.25, rel=1e-2)


def test_nonfinite_u_row_halves_the_step(monkeypatch):
    # an attempt whose result has a nan in u (positive f and psi, so
    # evolved accepts it) is rejected by the curvature's finiteness test:
    # _try_step reports None, and run halves the step instead of raising
    cfg, initial = _neck_run(m=32, dt=1e-3, t_end=0.01)
    rk4 = flow._rk4
    poisoned = []

    def nan_in_u_once(state, dt, k1=None):
        new = rk4(state, dt, k1)
        if poisoned:
            return new
        poisoned.append(dt)
        y = new.y.copy()
        y[2, 5] = np.nan
        return new.evolved(y, new.t)

    monkeypatch.setattr(flow, "_rk4", nan_in_u_once)
    assert flow._try_step(initial, 1e-3) is None
    assert flow._try_step(initial, 1e-3) is not None
    poisoned.clear()
    traj = run(cfg, initial)
    assert poisoned == [1e-3]
    assert traj.termination == "reached_t_end"
    assert traj.records[1].t == 5e-4 and traj.records[2].t == 1.5e-3


def test_each_accepted_state_is_tested_for_finiteness_once(monkeypatch):
    cfg, initial = _neck_run(m=32, dt=1e-3, t_end=0.02, output_every=1)
    tested = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: tested.append(x) or isfinite(x))
    traj = run(cfg, initial)
    monkeypatch.undo()
    assert len(traj.records) == traj.steps + 1 > 10
    for rec in traj.records:
        assert sum(x is rec.state.y for x in tested) == 1


def _neck_run(m=64, t_end=0.3, **fields):
    scn = default_scenario("perturbed_cylinder")
    cfg = FlowConfig(scenario=scn.id, n=4, alpha=1.0, m=m, t_end=t_end, **fields)
    return cfg, exact_state(scn, 0.0, m)


def test_one_validation_per_accepted_step(monkeypatch):
    # each accepted state is validated once, by evolved; the records share
    # it, so the only other WarpedState run builds is the initial copy
    cfg, initial = _neck_run(output_every=1)
    calls = []
    post_init = WarpedState.__post_init__

    def counting(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(WarpedState, "__post_init__", counting)
    traj = run(cfg, initial)
    assert traj.termination == "blowup_threshold"
    assert len(traj.records) == traj.steps + 1
    assert len(calls) == traj.steps + 1


def test_records_are_distinct_states_and_initial_is_untouched():
    cfg, initial = _neck_run(m=32, t_end=0.2, output_every=1)
    before = [a.copy() for a in initial.arrays()]
    traj = run(cfg, initial)
    assert initial.t == 0.0
    for a, b in zip(initial.arrays(), before):
        assert a.tobytes() == b.tobytes()
    arrays = [rec.state.arrays() for rec in traj.records]
    owners = [initial.arrays()] + arrays
    assert len(owners) > 10
    for i, first in enumerate(owners):
        for second in owners[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in first for b in second)
    # an in-place edit of one record reaches no other record
    saved = [[a.copy() for a in arrs] for arrs in arrays]
    k = len(arrays) // 2
    traj.records[k].state.psi[:] = 2.0
    for j, arrs in enumerate(arrays):
        if j != k:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(arrs, saved[j]))
