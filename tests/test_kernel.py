"""The block kernel pinned bit for bit against the per-array forms it
replaced: the bound derivative kernel against a per-call kernel over
np.roll differences, the curvature fields computed on first read against
their eager formulas, one RK4 step against an RK4 over a tuple of
separate arrays, and the rate limiter against the minimum of its per-row
bounds."""
import copy
import dataclasses
import pickle

import numpy as np
import pytest

from rhflow import flow, geometry
from rhflow.flow import FlowConfig
from rhflow.geometry import (Factor, Fiber, Grid, HomogeneousState, WarpedState,
                             compute_curvature, compute_curvature_homogeneous,
                             curvature_fields, stacked_curvature, warped_kernel)


def roll_dx(values, h):
    """The np.roll form of the periodic central difference."""
    return (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * h)


def reference_laplacian(n, h, f, psi, psi_s, v_s):
    """v_ss + (n-1)(psi_s/psi) v_s with Python-number constants."""
    return roll_dx(v_s, h) / f + (n - 1) * (psi_s / psi) * v_s


def reference_terms(n, c, h, f, psi, u, winding):
    """The per-call kernel the bound one replaced: (k_rad, k_fib,
    |grad phi|^2, Lap phi) of f, psi, u, its constants Python numbers."""
    psi_s = roll_dx(psi, h) / f
    psi_ss = roll_dx(psi_s, h) / f
    phi_s = (winding + roll_dx(u, h)) / f
    lap_phi = reference_laplacian(n, h, f, psi, psi_s, phi_s)
    return -psi_ss / psi, (c - psi_s**2) / psi**2, phi_s**2, lap_phi


def reference_state_terms(state):
    return reference_terms(state.n, state.fiber.curvature, state.h, state.f, state.psi,
                           state.u, state.winding)


def reference_rates(state, f, psi, u, sign=1.0):
    n = state.n
    k_rad, k_fib, grad_phi_sq, lap_phi = reference_terms(
        n, state.fiber.curvature, state.h, f, psi, u, state.winding)
    lam0 = (n - 1) * k_rad
    lam1 = k_rad + (n - 2) * k_fib
    return -f * (lam0 - sign * 0.5 * state.alpha * grad_phi_sq), -psi * lam1, lap_phi


def tuple_rates(state, arrays):
    """(df/dt, dpsi/dt, du/dt) or (coefficient rates,) as separate arrays."""
    if not isinstance(state, WarpedState):
        return (flow.rhs(state)[0],)
    return reference_rates(state, *arrays)


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


def random_state(fiber, m, winding, n=4, alpha=0.7):
    rng = np.random.default_rng([m, abs(winding), fiber is Fiber.ROUND_SPHERE])
    x = Grid(m).x
    f = np.exp(0.3 * rng.standard_normal(m))
    psi = 1.5 + 0.2 * np.sin(x + rng.uniform(0.0, 6.0)) + 0.05 * rng.standard_normal(m)
    return WarpedState(n, fiber, alpha, f, psi, winding, 0.1 * rng.standard_normal(m))


GRID_CASES = [(fiber, m, winding) for fiber in Fiber for m in (8, 9, 64, 257)
              for winding in (0, 1, -2)]
GRID_IDS = [f"{fiber.value}-m{m}-w{winding}" for fiber, m, winding in GRID_CASES]


@pytest.mark.parametrize("m", [8, 9, 64, 257])
def test_dx_periodic_equals_the_roll_form(m):
    rng = np.random.default_rng(m)
    h = Grid(m).h
    kernel = warped_kernel(4, Fiber.ROUND_SPHERE, m, 0)
    for values in (rng.standard_normal(m), np.exp(rng.standard_normal(m)), np.sin(Grid(m).x)):
        assert_bits(kernel.dx_periodic(values), roll_dx(values, h))
    # a row view of a block, as the kernel is passed one
    block = rng.standard_normal((3, m))
    assert_bits(kernel.dx_periodic(block[1]), roll_dx(block[1], h))


@pytest.mark.parametrize("fiber, m, winding", GRID_CASES, ids=GRID_IDS)
def test_bound_kernel_equals_the_per_call_kernel(fiber, m, winding):
    state = random_state(fiber, m, winding)
    n, h, f, psi, u = state.n, state.h, state.f, state.psi, state.u
    k_rad, k_fib, grad_phi_sq, lap_phi = reference_state_terms(state)
    want = (k_rad, k_fib, (n - 1) * k_rad, k_rad + (n - 2) * k_fib, grad_phi_sq, lap_phi)
    kernel = state.kernel
    assert kernel is warped_kernel(n, fiber, m, winding)
    for got, ref in zip(kernel.terms(f, psi, u), want, strict=True):
        assert_bits(got, ref)
    out = np.empty(m)
    assert kernel.terms(f, psi, u, out)[5] is out
    assert_bits(out, lap_phi)

    fields = compute_curvature(state)
    for name, ref in zip(("lam0", "lam1", "grad_phi_sq", "lap_phi"), want[2:], strict=True):
        assert_bits(getattr(fields, name), ref)
    scalar = 2.0 * (n - 1) * k_rad + (n - 1) * (n - 2) * k_fib
    assert_bits(fields.scalar, scalar)
    assert_bits(fields.ric_sq, want[2]**2 + (n - 1) * want[3]**2)
    assert_bits(fields.rm_sq, 4.0 * (n - 1) * k_rad**2 + 2.0 * (n - 1) * (n - 2) * k_fib**2)

    assert_bits(state.kernel.phi_x(state.u), winding + roll_dx(u, h))
    values = np.cos(Grid(m).x) * f
    psi_s = roll_dx(psi, h) / f
    assert_bits(state.laplacian(values),
                reference_laplacian(n, h, f, psi, psi_s, roll_dx(values, h) / f))

    rates = flow.rhs(state)
    assert rates.shape == (3, m) and rates.flags.c_contiguous
    assert_bits(rates, np.array(reference_rates(state, f, psi, u)))
    assert_bits(flow._k1_from_fields(state, fields), rates)
    stage = state.y + 0.01 * rates
    assert_bits(flow.rhs(state, stage), np.array(reference_rates(state, *stage)))


STACK_CASES = [(fiber, m, winding) for fiber in Fiber for m in (8, 33, 192)
               for winding in (0, 1, 2, -2)]
STACK_IDS = [f"{fiber.value}-m{m}-w{winding}" for fiber, m, winding in STACK_CASES]
TERMS = ("s_flow", "flow_tensor_sq", "lap_phi")  # stacked_curvature's arrays, in order


def state_stack(fiber, m, winding, k=5):
    """k states of one kernel whose data differ by random factors."""
    base = random_state(fiber, m, winding)
    rng = np.random.default_rng([m, k])
    return [base.evolved(base.y * np.exp(0.2 * rng.standard_normal(base.y.shape)), 0.0)
            for _ in range(k)]


@pytest.mark.parametrize("fiber, m, winding", STACK_CASES, ids=STACK_IDS)
def test_kernel_on_columns_equals_each_column(fiber, m, winding):
    # the contract the stacked monitor relies on: every kernel operation is
    # elementwise or a gather or slice along axis 0, so an (m, k) stack of
    # states, one per column, gives each column's one-state bits
    states = state_stack(fiber, m, winding)
    kernel = states[0].kernel
    f, psi, u = (np.stack([s.y[row] for s in states], axis=1) for row in range(3))
    values = np.cos(Grid(m).x)[:, np.newaxis] * f
    terms = kernel.terms(f, psi, u)
    lap = kernel.laplacian(f, psi, kernel.ds(psi, f), kernel.ds(values, f))
    for j, s in enumerate(states):
        for got, want in zip(terms, kernel.terms(s.f, s.psi, s.u), strict=True):
            assert got.shape == (m, len(states))
            assert_bits(got[:, j], want)
        assert_bits(lap[:, j], s.laplacian(values[:, j]))


@pytest.mark.parametrize("fiber, m, winding", STACK_CASES, ids=STACK_IDS)
def test_stacked_curvature_columns_equal_one_state_fields(fiber, m, winding, monkeypatch):
    states = state_stack(fiber, m, winding)
    each = [curvature_fields(s) for s in states]
    # the pass forms the identity's three terms alone: no CurvatureFields,
    # and no |Ric|^2, |Rm|^2 or Weyl norm on the way
    monkeypatch.setattr(geometry, "CurvatureFields", None)
    monkeypatch.setattr(geometry, "_weyl_sq", None)
    *terms, laplacian = stacked_curvature(states)
    values = np.stack([np.sin(2.0 * Grid(m).x) * s.psi for s in states], axis=1)
    lap = laplacian(values)
    for j, (s, one) in enumerate(zip(states, each)):
        for name, got in zip(TERMS, terms, strict=True):
            assert got.shape == (m, len(states))
            assert_bits(got[:, j], getattr(one, name))
        assert_bits(lap[:, j], s.laplacian(values[:, j]))


def test_stacked_curvature_takes_each_derivative_once(monkeypatch):
    # d psi/ds, d(psi_s)/ds and d(phi_s)/ds: the Laplacian's drift term
    # reads the d psi/ds that the curvature terms took
    states = state_stack(Fiber.ROUND_SPHERE, 33, 1)
    calls = []
    ds = geometry.WarpedKernel.ds
    monkeypatch.setattr(geometry.WarpedKernel, "ds",
                        lambda self, values, f: calls.append(values) or ds(self, values, f))
    *_, laplacian = stacked_curvature(states)
    assert len(calls) == 3
    psi = np.stack([s.psi for s in states], axis=1)
    assert sum(np.array_equal(values, psi) for values in calls) == 1
    laplacian(np.cos(psi))  # v_s and v_ss; the drift reuses d psi/ds
    assert len(calls) == 5
    assert sum(np.array_equal(values, psi) for values in calls) == 1


def test_stacked_curvature_of_homogeneous_states():
    base = homogeneous()
    states = [base.evolved(base.arrays() * c, 0.0) for c in (1.0, 0.8, 0.5)]
    *terms, laplacian = stacked_curvature(states)
    for j, s in enumerate(states):
        one = curvature_fields(s)
        for name, got in zip(TERMS, terms, strict=True):
            assert got.shape == (1, 3)
            assert_bits(got[:, j], getattr(one, name))
    assert_bits(laplacian(terms[0]), np.zeros((1, 3)))


def test_stacked_curvature_refuses_mixed_or_nonfinite_stacks():
    states = state_stack(Fiber.ROUND_SPHERE, 16, 1, k=3)
    s = states[1]
    for other in (homogeneous(),
                  WarpedState(s.n, s.fiber, 0.5, winding=s.winding, y=s.y.copy()),
                  WarpedState(3, s.fiber, s.alpha, winding=s.winding, y=s.y.copy())):
        with pytest.raises(ValueError, match="share one kind, n and alpha"):
            stacked_curvature([states[0], other])
    for other in (WarpedState(s.n, s.fiber, s.alpha, winding=0, y=s.y.copy()),
                  WarpedState(s.n, Fiber.FLAT_TORUS, s.alpha, winding=s.winding, y=s.y.copy()),
                  random_state(s.fiber, 17, s.winding)):
        with pytest.raises(ValueError, match="share one kernel"):
            stacked_curvature([states[0], other])
    y = s.y.copy()
    y[0, 7] = np.inf
    states[2] = s.evolved(y, 0.0)
    with pytest.raises(ValueError, match="^non-finite value in f at grid index 7$"):
        stacked_curvature(states)


def test_kernel_constants_are_read_only():
    kernel = warped_kernel(3, Fiber.FLAT_TORUS, 16, 1)
    for value in vars(kernel).values():
        assert isinstance(value, np.ndarray) and not value.flags.writeable
    with pytest.raises(ValueError):
        kernel.two_h[...] = 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_fields_read_late_equal_their_eager_formulas_warped(n):
    state = random_state(Fiber.ROUND_SPHERE, 64, 1, n=n, alpha=1.3)
    fields = compute_curvature(state)
    lazy = ("s_scalar", "s_flow", "flow_tensor_sq", "ric_op")
    assert not set(lazy) & set(vars(fields))  # nothing formed before it is read
    k_rad, k_fib, grad_phi_sq, _ = reference_state_terms(state)
    alpha = state.alpha
    scalar = 2.0 * (n - 1) * k_rad + (n - 1) * (n - 2) * k_fib
    lam0 = (n - 1) * k_rad
    lam1 = k_rad + (n - 2) * k_fib
    want = {
        "s_scalar": scalar - alpha * grad_phi_sq,
        "s_flow": scalar - 0.5 * alpha * grad_phi_sq,
        "flow_tensor_sq": (lam0 - 0.5 * alpha * grad_phi_sq) ** 2 + (n - 1) * lam1**2,
        "ric_op": np.maximum(np.abs(lam0), np.abs(lam1)),
    }
    for name in lazy:
        got = getattr(fields, name)
        assert_bits(got, want[name])
        assert getattr(fields, name) is got  # kept, not formed again
    assert fields.ric_op.max() == want["ric_op"].max()


def test_fields_of_homogeneous_states_equal_their_eager_formulas():
    alpha, slope, a, b = 1.3, 1.0, 2.0, 1.5
    state = HomogeneousState(4, alpha, (Factor(a, Fiber.FLAT_TORUS, 1, slope=slope),
                                        Factor(b, Fiber.ROUND_SPHERE, 3)))
    fields = compute_curvature_homogeneous(state)
    eig = (3 - 1) * 1.0 / b
    scalar = 0.0 + 1 * 0.0 + 3 * eig
    grad = 0.0 + slope**2 / a
    want = {
        "s_scalar": scalar - alpha * grad,
        "s_flow": scalar - 0.5 * alpha * grad,
        "flow_tensor_sq": 0.0 + (0.0 - 0.5 * (alpha * slope**2 / a)) ** 2 + 3 * eig**2,
        "ric_op": max(0.0, abs(0.0), abs(eig)),
    }
    for name, value in want.items():
        assert_bits(getattr(fields, name), np.array([value]))
    assert fields.lam0 is None and fields.lam1 is None
    assert_bits(fields.scalar, np.array([scalar]))


def test_coupling_sign_is_read_at_call_time(monkeypatch):
    state = random_state(Fiber.ROUND_SPHERE, 64, 1, alpha=1.0)
    fields = compute_curvature(state)
    rates, k1 = flow.rhs(state), flow._k1_from_fields(state, fields)  # the cache is warm
    monkeypatch.setattr(flow, "_COUPLING_SIGN", -1.0)
    want = np.array(reference_rates(state, state.f, state.psi, state.u, sign=-1.0))
    for flipped in (flow.rhs(state), flow._k1_from_fields(state, compute_curvature(state))):
        assert_bits(flipped, want)
        assert not np.array_equal(flipped[0], rates[0]) and not np.array_equal(flipped[0], k1[0])
        assert_bits(flipped[1:], rates[1:])


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


def test_homogeneous_block_is_built_once():
    state = homogeneous()
    y = state.arrays()
    assert y is state.arrays() and y.shape == (1, 2)
    assert y.tobytes() == state.coefficients()[np.newaxis].tobytes()
    with pytest.raises(AttributeError):
        state.factors = state.factors[::-1]
    with pytest.raises(ValueError):
        y[0, 0] = 3.0
    evolved = state.evolved(2.0 * y, 0.5)
    assert evolved.arrays().tobytes() == (2.0 * y).tobytes()
    for other in (state.copy(), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert other == state and other.arrays().tobytes() == y.tobytes()
        assert not other.arrays().flags.writeable
