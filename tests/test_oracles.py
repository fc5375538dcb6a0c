import numpy as np
import pytest

from rhflow.flow import rhs
from rhflow.geometry import WarpedState
from rhflow.cli import build_parser
from rhflow.oracles import (SCENARIO_IDS, SCENARIOS, Scenario, default_scenario,
                            exact_state, scenario_run, singular_time)
from rhflow.runio import ConfigError, config_to_dict, parse_config
from rhflow.verification import build_suite

# five-point first-derivative stencil in time, error O(delta^4)
_FD = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
_DELTA = 3e-4


def _fd_time_derivative(fn, t):
    acc = None
    for off, w in _FD:
        val = fn(t + off * _DELTA)
        acc = w * val if acc is None else acc + w * val
    return acc / (12.0 * _DELTA)


@pytest.mark.parametrize("scn,t", [
    (Scenario("torus_list", 2, 1.0, winding=1), 0.3),
    (Scenario("torus_list", 2, 0.5, winding=2), 0.1),
    (Scenario("shrinking_cylinder", 4, 0.0), 0.1),
    (Scenario("flat_stationary", 4, 1.0), 0.5),
])
def test_exact_warped_state_satisfies_rhs(scn, t):
    m = 16
    state = exact_state(scn, t, m)
    df, dpsi, du = rhs(state)
    fd_f = _fd_time_derivative(lambda s: exact_state(scn, s, m).f, t)
    fd_psi = _fd_time_derivative(lambda s: exact_state(scn, s, m).psi, t)
    fd_u = _fd_time_derivative(lambda s: exact_state(scn, s, m).u, t)
    assert np.max(np.abs(df - fd_f)) <= 1e-10
    assert np.max(np.abs(dpsi - fd_psi)) <= 1e-10
    assert np.max(np.abs(du - fd_u)) <= 1e-10


@pytest.mark.parametrize("scn,t", [
    (Scenario("torus_list", 2, 1.0, winding=1), 0.3),
    (Scenario("shrinking_sphere", 3, 0.0), 0.1),
    (Scenario("shrinking_cylinder", 4, 0.0), 0.1),
])
def test_exact_homogeneous_state_satisfies_rhs(scn, t):
    state = exact_state(scn, t, representation="homogeneous")
    rates = rhs(state)[0]
    fd = _fd_time_derivative(
        lambda s: exact_state(scn, s, representation="homogeneous").coefficients(), t)
    assert np.max(np.abs(rates - fd)) <= 1e-10


def test_torus_time_one():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    state = exact_state(scn, 1.0, 16)
    assert state.f[0] ** 2 == pytest.approx(2.0, rel=1e-15)


def test_sphere_coefficient_and_singular_time():
    scn = Scenario("shrinking_sphere", 3, 0.0)
    state = exact_state(scn, 0.125, representation="homogeneous")
    assert state.coefficients()[0] == pytest.approx(0.5, rel=1e-15)
    assert singular_time(scn) == pytest.approx(0.25)


def test_cylinder_singular_time():
    assert singular_time(Scenario("shrinking_cylinder", 4, 0.0)) == pytest.approx(0.25)
    assert singular_time(Scenario("shrinking_cylinder", 4, 0.0, psi0=2.0)) \
        == pytest.approx(1.0)


def test_no_singular_time_for_stable_scenarios():
    assert singular_time(Scenario("flat_stationary", 4, 1.0)) is None
    assert singular_time(Scenario("torus_list", 2, 1.0)) is None
    assert singular_time(Scenario("perturbed_torus", 2, 1.0, amplitude=0.1)) is None


def test_initial_data_matches_configured_parameters():
    scn = Scenario("perturbed_cylinder", 4, 1.0, winding=0, amplitude=0.05)
    state = exact_state(scn, 0.0, 32)
    assert isinstance(state, WarpedState)
    assert state.psi.min() == pytest.approx(0.95, abs=1e-12)
    assert state.psi.max() == pytest.approx(1.05, abs=1e-12)
    assert np.all(state.f == 1.0)


def test_exact_state_rejects_singular_times():
    scn = Scenario("shrinking_cylinder", 4, 0.0)
    with pytest.raises(ValueError, match="singular"):
        exact_state(scn, 0.25, 16)
    with pytest.raises(ValueError, match="closed form"):
        exact_state(Scenario("perturbed_torus", 2, 1.0, amplitude=0.1), 0.1, 16)


def test_torus_s_closed_form_is_increasing():
    scn = Scenario("torus_list", 2, 1.0, winding=1)
    from rhflow.geometry import compute_curvature
    values = []
    for t in (0.0, 0.5, 1.0, 2.0):
        fields = compute_curvature(exact_state(scn, t, 16))
        a = 1.0 + t
        assert fields.s_scalar[0] == pytest.approx(-1.0 / a, rel=1e-13)
        values.append(fields.s_scalar[0])
    assert all(b > a for a, b in zip(values, values[1:]))


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        Scenario("bogus", 4, 1.0)
    with pytest.raises(ValueError, match="amplitude"):
        Scenario("perturbed_cylinder", 4, 1.0, amplitude=1.5)
    for scenario, n, rule in (("torus_list", 3, "n = 2"), ("perturbed_torus", 5, "n = 2"),
                              ("flat_stationary", 1, "n >= 2"),
                              ("shrinking_cylinder", 2, "n >= 3")):
        with pytest.raises(ValueError, match=f"{rule}, got n={n}"):
            Scenario(scenario, n, 1.0)


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_scenario_run_builds_config_and_state_from_the_registry(sid):
    spec = SCENARIOS[sid]
    scn = default_scenario(sid)
    for representation in (None, *spec.representations):
        cfg, state = scenario_run(scn, representation, m=16, t_end=0.1, output_every=5)
        assert (cfg.scenario, cfg.n, cfg.alpha, cfg.fiber) == (sid, scn.n, scn.alpha,
                                                               spec.fiber)
        assert (cfg.m, cfg.t_end, cfg.output_every) == (16, 0.1, 5)
        want = exact_state(scn, 0.0, 16, representation)
        assert type(state) is type(want) and state.t == want.t == 0.0
        assert all(got.tobytes() == array.tobytes()
                   for got, array in zip(state.arrays(), want.arrays()))


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_registry_entry(sid):
    spec = SCENARIOS[sid]
    scn = default_scenario(sid)
    for representation in spec.representations:
        state = exact_state(scn, 0.0, 16, representation)
        assert state.n == scn.n
        fiber = state.fiber if isinstance(state, WarpedState) else state.factors[-1].kind
        assert fiber is spec.fiber
    raw = {"scenario": sid, "n": scn.n, "alpha": 1.0, "t_end": 0.1}
    cfg, state = parse_config(raw)
    assert cfg.fiber == spec.fiber
    assert config_to_dict(cfg, state)["representation"] == spec.representations[0]
    for representation in {"warped", "homogeneous"} - set(spec.representations):
        with pytest.raises(ConfigError, match=f"no '{representation}' representation"):
            parse_config(dict(raw, representation=representation))
    assert tuple(build_suite()) == SCENARIO_IDS
    assert build_parser().parse_args(["converge", sid]).scenario == sid
    with pytest.raises(SystemExit):
        build_parser().parse_args(["converge", sid + "_x"])
