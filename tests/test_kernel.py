"""The block kernel pinned bit for bit against the per-array forms it
replaced: dx_periodic against np.roll, one RK4 step against an RK4 over
a tuple of separate arrays, and the rate limiter against the minimum of
its per-row bounds."""
import copy
import dataclasses
import pickle

import numpy as np
import pytest

from rhflow import flow
from rhflow.flow import FlowConfig, rhs_homogeneous
from rhflow.geometry import (Factor, Fiber, Grid, HomogeneousState, WarpedState, dx_periodic,
                             warped_terms)


def roll_dx(values, h):
    """The np.roll form of the periodic central difference."""
    return (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * h)


def tuple_rates(state, arrays):
    """(df/dt, dpsi/dt, du/dt) or (coefficient rates,) as separate arrays."""
    if not isinstance(state, WarpedState):
        return (rhs_homogeneous(state),)
    f, psi, u = arrays
    n = state.n
    k_rad, k_fib, grad_phi_sq, lap_phi = warped_terms(
        n, state.fiber.curvature, state.h, f, psi, u, state.winding)
    lam0 = (n - 1) * k_rad
    lam1 = k_rad + (n - 2) * k_fib
    return -f * (lam0 - 0.5 * state.alpha * grad_phi_sq), -psi * lam1, lap_phi


def tuple_rk4(state, dt):
    """Classical RK4 over a tuple of arrays, one array at a time."""
    y0 = tuple(np.array(a) for a in state.arrays())
    ks = [tuple_rates(state, y0)]
    for c in (0.5, 0.5, 1.0):
        ks.append(tuple_rates(state, tuple(a + c * dt * k for a, k in zip(y0, ks[-1]))))
    return [a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) for a, k1, k2, k3, k4 in zip(y0, *ks)]


def warped(m=64):
    x = Grid(m).x
    return WarpedState(4, Fiber.ROUND_SPHERE, 0.7, 1.0 + 0.1 * np.sin(x),
                       2.0 + 0.3 * np.cos(x), 1, 0.2 * np.sin(2 * x))


def homogeneous():
    return HomogeneousState(4, 1.0, (Factor(2.0, Fiber.FLAT_TORUS, 1, slope=1.0),
                                     Factor(1.5, Fiber.ROUND_SPHERE, 3)))


@pytest.mark.parametrize("m", [8, 9, 64, 257])
def test_dx_periodic_equals_the_roll_form(m):
    rng = np.random.default_rng(m)
    h = Grid(m).h
    for values in (rng.standard_normal(m), np.exp(rng.standard_normal(m)), np.sin(Grid(m).x)):
        assert dx_periodic(values, h).tobytes() == roll_dx(values, h).tobytes()
    # a row view of a block, as the kernel passes it
    block = rng.standard_normal((3, m))
    assert dx_periodic(block[1], h).tobytes() == roll_dx(block[1], h).tobytes()


@pytest.mark.parametrize("state", [warped(), homogeneous()], ids=["warped", "homogeneous"])
def test_rk4_step_equals_the_tuple_rk4(state):
    dt = 1e-3
    new = flow._rk4(state, dt)
    want = tuple_rk4(state, dt)
    got = new.arrays()
    assert got.shape == (len(want), want[0].size) and got.flags.c_contiguous
    for row, ref in zip(got, want):
        assert row.tobytes() == ref.tobytes()
    assert new.t == state.t + dt


@pytest.mark.parametrize("state", [warped(), homogeneous()], ids=["warped", "homogeneous"])
@pytest.mark.parametrize("rate_limit", [0.05, 1e-3, 7.0])
def test_dt_bound_equals_the_least_per_row_bound(state, rate_limit):
    config = FlowConfig(rate_limit=rate_limit)
    k1 = flow.rhs(state)
    bounds = [np.inf]
    if isinstance(state, WarpedState):
        bounds.append(config.c_cfl * float((state.f * state.h).min() ** 2))
    for values, rates in zip(state.arrays()[:state.positive], k1):
        fastest = float((np.abs(rates) / values).max())
        if fastest > 0.0:
            bounds.append(rate_limit / fastest)
    assert flow._dt_bound(state, config, k1) == min(bounds)


@pytest.mark.parametrize("fiber, n, alpha, winding, moving", [
    (Fiber.FLAT_TORUS, 2, 2.0, 1, 0),    # f grows, psi is at rest
    (Fiber.ROUND_SPHERE, 4, 0.0, 0, 1),  # the cylinder: psi shrinks, f is at rest
])
def test_dt_bound_skips_rows_at_rest(fiber, n, alpha, winding, moving):
    m = 16
    state = WarpedState(n, fiber, alpha, np.ones(m), np.ones(m), winding=winding)
    k1 = flow.rhs(state)
    assert np.all(k1[1 - moving] == 0.0) and np.all(k1[moving] != 0.0)
    config = FlowConfig(rate_limit=1e-4)
    rate_bound = 1e-4 / float(np.abs(k1[moving]).max())
    assert rate_bound < config.c_cfl * float((state.f * state.h).min() ** 2)
    assert flow._dt_bound(state, config, k1) == rate_bound


def test_rows_are_views_of_the_block():
    state = warped(m=16)
    y = state.arrays()
    assert y is state.y and y.shape == (3, 16) and y.flags.c_contiguous
    state.psi[3] = 5.0
    assert state.arrays()[1, 3] == 5.0
    state.arrays()[2, 0] = -1.0
    assert state.u[0] == -1.0
    assert homogeneous().arrays().shape == (1, 2)


def test_state_from_rows_or_block():
    m = 16
    f, psi = np.ones(m), np.full(m, 2.0)
    state = WarpedState(4, Fiber.FLAT_TORUS, 0.0, f, psi)
    assert np.array_equal(state.y, [f, psi, np.zeros(m)])
    f[0] = 3.0  # the state stacked its own copy
    assert state.f[0] == 1.0
    y = state.y.copy()
    adopted = WarpedState(4, Fiber.FLAT_TORUS, 0.0, y=y, t=0.5)
    assert adopted.y is y and adopted.t == 0.5
    with pytest.raises(ValueError, match="common length"):
        WarpedState(4, Fiber.FLAT_TORUS, 0.0, f)
    for bad in (y[:2], y[0], np.ones((3, 4, 4))):
        with pytest.raises(ValueError, match="common length"):
            WarpedState(4, Fiber.FLAT_TORUS, 0.0, y=bad)
    with pytest.raises(ValueError, match="common length"):
        WarpedState(4, Fiber.FLAT_TORUS, 0.0, f, psi[:-1])
    y[1, 7] = 0.0
    with pytest.raises(ValueError, match="^psi must be positive; first violation at grid index 7$"):
        WarpedState(4, Fiber.FLAT_TORUS, 0.0, y=y)


def test_block_is_the_one_owner_of_the_data():
    state = warped(m=16)
    with pytest.raises(ValueError, match="not both"):
        WarpedState(4, Fiber.FLAT_TORUS, 0.0, psi=np.ones(16), y=state.y.copy())
    for name in ("y", "f", "psi", "u"):
        with pytest.raises(AttributeError):
            setattr(state, name, np.ones_like(getattr(state, name)))
    with pytest.raises(ValueError, match="not both"):
        dataclasses.replace(state, psi=np.ones(16))
    for other in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert other.y.tobytes() == state.y.tobytes() and other.t == state.t
        other.psi[3] = 5.0
        assert other.arrays()[1, 3] == 5.0 and state.psi[3] != 5.0
