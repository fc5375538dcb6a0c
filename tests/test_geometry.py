import math

import numpy as np
import pytest
from scipy.integrate import quad

from rhflow.geometry import (Factor, Fiber, Grid, HomogeneousState, WarpedState,
                             compute_curvature, compute_curvature_homogeneous,
                             curvature_fields, scale_state, stack_measure, stacked_curvature)

TWO_PI = 2.0 * math.pi


def flat_state(m=64, n=4, alpha=1.0):
    return WarpedState(n, Fiber.FLAT_TORUS, alpha, np.ones(m), np.ones(m))


def smooth_state(m=64, n=4, alpha=0.7, winding=1):
    x = Grid(m).x
    return WarpedState(n, Fiber.ROUND_SPHERE, alpha, 1.0 + 0.1 * np.sin(x),
                       2.0 + 0.3 * np.cos(x), winding, 0.2 * np.sin(2 * x))


def sectional(state):
    """(K_rad, K_fib) of a warped state, from its derivative kernel."""
    return state.kernel.terms(state.f, state.psi, state.u)[:2]


def test_grid_spacing():
    for m in (8, 64, 256):
        g = Grid(m)
        assert g.h * m == pytest.approx(TWO_PI, abs=1e-15)
    with pytest.raises(ValueError):
        Grid(7)


def test_flat_state_has_zero_curvature():
    state = flat_state()
    fields = compute_curvature(state)
    for arr in (*sectional(state), fields.scalar, fields.ric_sq,
                fields.rm_sq, fields.weyl_sq, fields.grad_phi_sq, fields.lap_phi,
                fields.s_scalar):
        assert np.all(arr == 0.0)


def test_cylinder_closed_form():
    # n=4, round fiber, f=1, psi=2, phi=0
    m = 64
    state = WarpedState(4, Fiber.ROUND_SPHERE, 0.0, np.ones(m), 2.0 * np.ones(m))
    fields = compute_curvature(state)
    k_rad, k_fib = sectional(state)
    assert np.allclose(k_rad, 0.0, atol=1e-15)
    assert np.allclose(k_fib, 0.25, atol=1e-15)
    assert np.allclose(fields.scalar, 1.5, atol=1e-14)
    assert np.allclose(fields.rm_sq, 0.75, atol=1e-14)
    assert np.allclose(fields.ric_sq, 0.75, atol=1e-14)
    assert np.allclose(fields.s_scalar, 1.5, atol=1e-14)


def test_pointwise_s_identity():
    state = smooth_state()
    fields = compute_curvature(state)
    want = fields.scalar - state.alpha * fields.grad_phi_sq
    scale = np.max(np.abs(want)) + 1e-300
    assert np.max(np.abs(fields.s_scalar - want)) <= 1e-14 * scale


@pytest.mark.parametrize("q", [0.5, 1.0, 4.0])
def test_scaling_covariance(q):
    state = smooth_state()
    base = compute_curvature(state)
    scaled_state = scale_state(state, q)
    scaled = compute_curvature(scaled_state)
    checks = [
        (scaled.scalar, base.scalar / q),
        *zip(sectional(scaled_state), (k / q for k in sectional(state))),
        (scaled.rm_sq, base.rm_sq / q**2),
        (scaled.ric_sq, base.ric_sq / q**2),
        (scaled.grad_phi_sq, base.grad_phi_sq / q),
        (scaled.s_scalar, base.s_scalar / q),
        (scaled.lap_phi, base.lap_phi / q),
    ]
    for got, want in checks:
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_dimension_two_weyl_vanishes():
    m = 64
    x = Grid(m).x
    state = WarpedState(2, Fiber.FLAT_TORUS, 1.0, 1.0 + 0.2 * np.sin(x),
                        1.0 + 0.1 * np.cos(x), 1, 0.1 * np.sin(x))
    fields = compute_curvature(state)
    assert np.all(fields.weyl_sq == 0.0)


def test_warped_class_is_conformally_flat():
    # the whole cohomogeneity-one class has vanishing Weyl tensor
    for n in (4, 5):
        state = smooth_state(n=n)
        fields = compute_curvature(state)
        scale = 1.0 + np.max(fields.rm_sq)
        assert np.max(np.abs(fields.weyl_sq)) <= 1e-12 * scale


def test_constant_phi():
    m = 64
    state = WarpedState(4, Fiber.ROUND_SPHERE, 2.0, np.ones(m),
                        2.0 + 0.3 * np.sin(Grid(m).x))
    fields = compute_curvature(state)
    assert np.all(fields.grad_phi_sq == 0.0)
    assert np.array_equal(fields.s_scalar, fields.scalar)


def test_nonfinite_input_names_grid_index():
    state = flat_state()
    state.u[5] = np.nan
    with pytest.raises(ValueError, match="index 5"):
        compute_curvature(state)
    # the first and last grid points, edited after validation
    m = state.m
    for index in (0, m - 1):
        state = flat_state()
        state.psi[index] = np.nan
        with pytest.raises(ValueError, match=f"^non-finite value in psi at grid index {index}$"):
            compute_curvature(state)
    # +inf is positive, so the state accepts it and the curvature refuses it
    for index in (0, 7, m - 1):
        f = np.ones(m)
        f[index] = np.inf
        state = WarpedState(4, Fiber.FLAT_TORUS, 1.0, f, np.ones(m))
        with pytest.raises(ValueError, match=f"^non-finite value in f at grid index {index}$"):
            compute_curvature(state)


def test_state_validation():
    m = 16
    with pytest.raises(ValueError, match="index 3"):
        f = np.ones(m)
        f[3] = -1.0
        WarpedState(4, Fiber.FLAT_TORUS, 0.0, f, np.ones(m))
    for index in (0, m - 1):
        psi = np.ones(m)
        psi[index] = np.nan
        with pytest.raises(ValueError,
                           match=f"^psi must be positive; first violation at grid index {index}$"):
            WarpedState(4, Fiber.FLAT_TORUS, 0.0, np.ones(m), psi)
    with pytest.raises(ValueError):
        WarpedState(1, Fiber.FLAT_TORUS, 0.0, np.ones(m), np.ones(m))
    with pytest.raises(ValueError):
        WarpedState(4, Fiber.FLAT_TORUS, -1.0, np.ones(m), np.ones(m))


def test_homogeneous_flat_torus_with_slope():
    # T^2 with a=2, b=1, slope 1, alpha=1
    state = HomogeneousState(2, 1.0, (Factor(2.0, Fiber.FLAT_TORUS, 1, slope=1.0),
                                      Factor(1.0, Fiber.FLAT_TORUS, 1)))
    fields = compute_curvature_homogeneous(state)
    assert fields.scalar[0] == 0.0
    assert fields.grad_phi_sq[0] == pytest.approx(0.5, abs=1e-15)
    assert fields.s_scalar[0] == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_homogeneous_round_sphere(n):
    state = HomogeneousState(n, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, n),))
    fields = compute_curvature_homogeneous(state)
    assert fields.scalar[0] == pytest.approx(n * (n - 1), abs=1e-13)
    assert fields.weyl_sq[0] == pytest.approx(0.0, abs=1e-12)


def test_homogeneous_circle_times_sphere():
    state = HomogeneousState(4, 0.0, (Factor(1.0, Fiber.FLAT_TORUS, 1),
                                      Factor(1.0, Fiber.ROUND_SPHERE, 3)))
    fields = compute_curvature_homogeneous(state)
    assert fields.scalar[0] == pytest.approx(6.0, abs=1e-13)
    assert fields.s_scalar[0] == pytest.approx(6.0, abs=1e-13)


def test_homogeneous_s2_x_s2_has_weyl():
    state = HomogeneousState(4, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 2),
                                      Factor(1.0, Fiber.ROUND_SPHERE, 2)))
    fields = compute_curvature_homogeneous(state)
    assert fields.weyl_sq[0] == pytest.approx(16.0 / 3.0, rel=1e-13)


def test_factor_validation():
    with pytest.raises(ValueError, match="slope"):
        Factor(1.0, Fiber.ROUND_SPHERE, 2, slope=1.0)
    with pytest.raises(ValueError, match="circle"):
        Factor(1.0, Fiber.ROUND_SPHERE, 1)
    with pytest.raises(ValueError):
        HomogeneousState(3, 0.0, (Factor(1.0, Fiber.FLAT_TORUS, 1),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_refuse_non_finite_numbers(bad):
    # nan passes a `<= 0` test, and an inf coefficient gave max|Rm| 0.0
    if bad > 0.0 or math.isnan(bad):
        with pytest.raises(ValueError, match=f"^factor coeff must be finite and positive, "
                                             f"got {bad}$"):
            Factor(bad, Fiber.ROUND_SPHERE, 3)
    with pytest.raises(ValueError, match=f"^factor slope must be finite, got {bad}$"):
        Factor(1.0, Fiber.FLAT_TORUS, 1, slope=bad)
    factors = (Factor(1.0, Fiber.ROUND_SPHERE, 3),)
    for build in (lambda: WarpedState(4, Fiber.ROUND_SPHERE, bad, np.ones(16), np.ones(16)),
                  lambda: HomogeneousState(3, bad, factors)):
        with pytest.raises(ValueError, match=f"^coupling alpha must be finite and >= 0, "
                                             f"got {bad}$"):
            build()


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_scale_state_refuses_a_factor_outside_zero_to_inf(q):
    # an inf q gave a warped state with infinite f and psi; a nan one was
    # reported as "f must be positive"
    homogeneous = HomogeneousState(3, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 3),))
    for state in (smooth_state(), homogeneous):
        with pytest.raises(ValueError, match=f"^scale factor q must be finite and positive, "
                                             f"got {q}$"):
            scale_state(state, q)


def test_lengths_and_volume_flat():
    state = WarpedState(2, Fiber.FLAT_TORUS, 0.0, np.ones(64), np.ones(64))
    length, vol = state.length_volume()
    assert length == pytest.approx(TWO_PI, rel=1e-14)
    assert vol == pytest.approx(TWO_PI**2, rel=1e-14)


def test_length_constant_rescale():
    a = 3.7
    state = WarpedState(2, Fiber.FLAT_TORUS, 0.0, math.sqrt(a) * np.ones(32),
                        np.ones(32))
    length, _ = state.length_volume()
    assert length == pytest.approx(TWO_PI * math.sqrt(a), rel=1e-14)


def test_volume_against_independent_quadrature():
    m = 64
    x = Grid(m).x
    state = WarpedState(3, Fiber.ROUND_SPHERE, 0.0, np.ones(m), 2.0 + np.sin(x))
    _, vol = state.length_volume()
    ref, _ = quad(lambda s: (2.0 + math.sin(s)) ** 2, 0.0, TWO_PI, epsabs=1e-13)
    ref *= 4.0 * math.pi  # unit S^2 fiber area
    assert abs(vol - ref) <= 1e-10 * ref


@pytest.mark.parametrize("state", [
    smooth_state(m=16),
    HomogeneousState(4, 1.0, (Factor(2.0, Fiber.FLAT_TORUS, 1, slope=1.0),
                              Factor(1.5, Fiber.ROUND_SPHERE, 3))),
], ids=["warped", "homogeneous"])
def test_state_interface(state):
    arrays = state.arrays()
    back = state.evolved(arrays, 0.5)
    assert type(back) is type(state) and back.t == 0.5
    assert all(np.array_equal(a, b) for a, b in zip(back.arrays(), arrays))
    ones = np.ones_like(curvature_fields(state).scalar)  # a field: m values, or 1
    measure = stack_measure(state, arrays[np.newaxis, :state.positive])
    assert measure.integrate(ones)[0] == state.length_volume()[1]
    # the state's Laplacian, as the monitors apply it: zero on a constant
    laplacian = stacked_curvature([state])[-1]
    assert np.all(laplacian(np.reshape(ones, (-1, 1))) == 0.0)


def test_laplacian_is_the_operator_of_lap_phi():
    # with winding 0, phi = u: the monitors' Laplacian and the flow's Lap phi
    # are one operator, bit for bit
    state = smooth_state(winding=0)
    assert np.array_equal(state.laplacian(state.u), compute_curvature(state).lap_phi)


@pytest.mark.parametrize("state", [
    smooth_state(),
    HomogeneousState(4, 0.0, (Factor(1.0, Fiber.FLAT_TORUS, 1),
                              Factor(0.7, Fiber.ROUND_SPHERE, 3))),
], ids=["warped", "homogeneous"])
def test_stored_max_rm_is_the_root_of_max_rm_sq(state):
    fields = curvature_fields(state)
    want = float(np.sqrt(np.max(fields.rm_sq)))
    assert vars(fields)["max_rm"] > 0.0
    assert np.float64(fields.max_rm).tobytes() == np.float64(want).tobytes()


# --------------------------------------------------------------------------
# the Weyl tensor: zero on every warped state, nonzero only on products


def random_warped_state(rng, n, fiber, winding, m=64):
    x = Grid(m).x
    modes = np.arange(1, 4)

    def trig(scale):
        a, b = rng.uniform(-scale, scale, size=(2, 3))
        return np.cos(np.outer(x, modes)) @ a + np.sin(np.outer(x, modes)) @ b

    return WarpedState(n, fiber, float(rng.uniform(0.3, 1.5)), 1.0 + trig(0.1),
                       1.0 + trig(0.2), winding, trig(0.3))


@pytest.mark.parametrize("winding", [0, 1, 2])
@pytest.mark.parametrize("fiber", list(Fiber))
@pytest.mark.parametrize("n", [4, 5, 6])
def test_weyl_is_roundoff_on_warped_states(n, fiber, winding):
    # f^2 dx^2 + psi^2 g_F over a space-form fiber is locally conformally
    # flat, so weyl_sq is what is left of cancelling terms of size |Rm|^2
    rng = np.random.default_rng([n, winding, fiber is Fiber.FLAT_TORUS])
    for _ in range(3):
        fields = compute_curvature(random_warped_state(rng, n, fiber, winding))
        bound = 64.0 * np.finfo(float).eps * np.max(fields.rm_sq)
        assert np.max(np.abs(fields.weyl_sq)) <= bound


@pytest.mark.parametrize("factors, weyl_sq, rm_sq", [
    ((Factor(1.0, Fiber.ROUND_SPHERE, 2), Factor(1.0, Fiber.ROUND_SPHERE, 2)), 16.0 / 3.0, 8.0),
    ((Factor(2.0, Fiber.ROUND_SPHERE, 2), Factor(1.0, Fiber.FLAT_TORUS, 2)), 1.0 / 3.0, 1.0),
    ((Factor(1.0, Fiber.FLAT_TORUS, 1), Factor(1.0, Fiber.ROUND_SPHERE, 3)), 0.0, 12.0),
], ids=["S2xS2", "S2(a=2)xT2", "S1xS3"])
def test_weyl_of_products_in_closed_form(factors, weyl_sq, rm_sq):
    fields = compute_curvature_homogeneous(HomogeneousState(4, 0.0, factors))
    assert fields.rm_sq[0] == pytest.approx(rm_sq, rel=1e-15)
    assert abs(fields.weyl_sq[0] - weyl_sq) <= 64.0 * np.finfo(float).eps * rm_sq
