"""Symmetry-reduced metric/map states and their curvature in closed form.

Warped states live on S^1 x F with the cohomogeneity-one metric

    g = f(x)^2 dx^2 + psi(x)^2 g_F,    x in [0, 2*pi) periodic,

where the fiber (F, g_F) is either a unit round sphere S^{n-1}
(sectional curvature 1) or a flat torus T^{n-1}.  The coupled map
phi depends on x only and is stored as phi(x) = w*x + u(x) with an
integer winding number w and a periodic part u, so circle-valued maps
such as phi(x) = x are representable exactly.

With s the arclength coordinate (ds = f dx, so d/ds = (1/f) d/dx) the
curvature reduces to two sectional values,

    K_rad = -psi_ss / psi                (planes containing d/ds)
    K_fib = (c - psi_s^2) / psi^2        (planes tangent to the fiber)

with c = 1 for the round fiber and c = 0 for the flat one, and

    R        = 2(n-1) K_rad + (n-1)(n-2) K_fib
    |Ric|^2  = lam0^2 + (n-1) lam1^2,  lam0 = (n-1) K_rad,
                                       lam1 = K_rad + (n-2) K_fib
    |Rm|^2   = 4(n-1) K_rad^2 + 2(n-1)(n-2) K_fib^2.

All s-derivatives are taken with second-order periodic central
differences; second derivatives use the nested form (1/f) Dx((1/f) Dx).
Homogeneous product states (one coefficient per factor) provide the
closed-form oracle substrate.  Both kinds share the interface that the
flow and the monitors use (arrays, evolved, length_volume, integrate, ...).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class Fiber(str, Enum):
    """Fiber geometry of the warped ansatz (and factor kind for products)."""

    ROUND_SPHERE = "round_sphere"
    FLAT_TORUS = "flat_torus"

    @property
    def curvature(self) -> float:
        """Sectional curvature of the unit model fiber (1 round, 0 flat)."""
        return 1.0 if self is Fiber.ROUND_SPHERE else 0.0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2*pi)."""

    m: int

    def __post_init__(self):
        if self.m < 8:
            raise ValueError(f"grid needs at least 8 points, got m={self.m}")

    @property
    def h(self) -> float:
        return TWO_PI / self.m

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.m) * self.h


def dx_periodic(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order central difference d/dx on the periodic grid."""
    out = np.empty(np.shape(values))
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[0], out[-1] = values[1] - values[-1], values[0] - values[-2]
    return np.divide(out, 2.0 * h, out=out)


def _check_finite(name: str, values: np.ndarray):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite value in {name} at grid index {bad[0]}")


def _check_positive(name: str, values: np.ndarray):
    bad = np.flatnonzero(~(values > 0.0))
    if bad.size:
        raise ValueError(f"{name} must be positive; first violation at grid index {bad[0]}")


@dataclass
class WarpedState:
    """Metric coefficients and map data of a warped state at one time.

    f, psi, u are arrays over the periodic grid; phi(x) = winding*x + u(x).
    """

    n: int
    fiber: Fiber
    alpha: float
    f: np.ndarray
    psi: np.ndarray
    winding: int = 0
    u: np.ndarray | None = None
    t: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.alpha < 0.0:
            raise ValueError(f"coupling alpha must be >= 0, got {self.alpha}")
        self.fiber = Fiber(self.fiber)
        self.f = np.asarray(self.f, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        if self.u is None:
            self.u = np.zeros_like(self.f)
        self.u = np.asarray(self.u, dtype=float)
        if not (self.f.shape == self.psi.shape == self.u.shape) or self.f.ndim != 1:
            raise ValueError("f, psi, u must be 1-d arrays of a common length")
        Grid(self.f.size)  # enforces m >= 8
        _check_positive("f", self.f)
        _check_positive("psi", self.psi)
        self.winding = int(self.winding)

    @property
    def m(self) -> int:
        return self.f.size

    @property
    def h(self) -> float:
        return TWO_PI / self.m

    @property
    def fiber_curvature(self) -> float:
        return self.fiber.curvature

    def copy(self) -> "WarpedState":
        return WarpedState(self.n, self.fiber, self.alpha, self.f.copy(),
                           self.psi.copy(), self.winding, self.u.copy(), self.t)

    def phi_x(self) -> np.ndarray:
        """Coordinate derivative of phi = winding*x + u."""
        return self.winding + dx_periodic(self.u, self.h)

    # -- the state interface shared with HomogeneousState --------------------

    positive = 2  # leading arrays() entries that must stay positive (f, psi)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The evolving data (f, psi, u)."""
        return self.f, self.psi, self.u

    def evolved(self, arrays, t: float) -> "WarpedState":
        """A validated state with the given arrays() at time t."""
        f, psi, u = arrays
        return WarpedState(self.n, self.fiber, self.alpha, f, psi, self.winding, u, t)

    def length_volume(self) -> tuple[float, float]:
        """Arc length of the base circle and total volume,

            L = int f dx,    V = vol(fiber) * int f psi^{n-1} dx,

        by trapezoidal quadrature on the periodic grid (which is the plain
        Riemann sum there)."""
        h = self.h
        length = h * float(np.sum(self.f))
        vol = fiber_volume(self.n - 1, self.fiber) * h * float(
            np.sum(self.f * self.psi ** (self.n - 1)))
        return length, vol

    def integrate(self, values: np.ndarray) -> float:
        """int values dmu over the manifold."""
        return fiber_volume(self.n - 1, self.fiber) * self.h * float(
            np.sum(values * self.f * self.psi ** (self.n - 1)))

    def metric_logs(self) -> np.ndarray:
        """Log of the metric coefficients in the two coordinate directions,
        g_xx = f^2 and the fiber coefficient psi^2, concatenated."""
        return np.concatenate([np.log(self.f**2), np.log(self.psi**2)])

    def map_range(self) -> tuple[float, float]:
        """(min, max) of the periodic part u of phi."""
        return float(np.min(self.u)), float(np.max(self.u))

    @property
    def map_single_valued(self) -> bool:
        return self.winding == 0

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami operator on x-only scalars:
        v_ss + (n-1)(psi_s/psi) v_s."""
        h, f = self.h, self.f
        v_s = dx_periodic(values, h) / f
        v_ss = dx_periodic(v_s, h) / f
        psi_s = dx_periodic(self.psi, h) / f
        return v_ss + (self.n - 1) * (psi_s / self.psi) * v_s


@dataclass(frozen=True)
class Factor:
    """One factor of a homogeneous product metric: coeff * g_model.

    The model is a unit round sphere S^dim (dim >= 2) or a flat torus
    T^dim.  A map slope is allowed only on flat circle factors (dim 1),
    where phi = slope * theta along the factor coordinate.
    """

    coeff: float
    kind: Fiber
    dim: int
    slope: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", Fiber(self.kind))
        if self.coeff <= 0.0:
            raise ValueError(f"factor coefficient must be positive, got {self.coeff}")
        if self.dim < 1:
            raise ValueError(f"factor dimension must be >= 1, got {self.dim}")
        if self.kind is Fiber.ROUND_SPHERE and self.dim < 2:
            raise ValueError("round factors need dimension >= 2; a circle is flat")
        if self.slope != 0.0 and not (self.kind is Fiber.FLAT_TORUS and self.dim == 1):
            raise ValueError("map slope is only allowed on flat circle factors")

    @property
    def ric_eig(self) -> float:
        """Ricci eigenvalue on this factor's directions."""
        return (self.dim - 1) * self.kind.curvature / self.coeff


@dataclass
class HomogeneousState:
    """Product metric with constant coefficients, used for closed forms."""

    n: int
    alpha: float
    factors: tuple[Factor, ...]
    t: float = 0.0

    def __post_init__(self):
        self.factors = tuple(self.factors)
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.alpha < 0.0:
            raise ValueError(f"coupling alpha must be >= 0, got {self.alpha}")
        total = sum(fac.dim for fac in self.factors)
        if total != self.n:
            raise ValueError(f"factor dimensions sum to {total}, expected n={self.n}")

    def copy(self) -> "HomogeneousState":
        return HomogeneousState(self.n, self.alpha, self.factors, self.t)

    def coefficients(self) -> np.ndarray:
        return np.array([fac.coeff for fac in self.factors])

    # -- the state interface shared with WarpedState -------------------------

    positive = 1  # the coefficients must stay positive

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The evolving data: the factor coefficients."""
        return (self.coefficients(),)

    def evolved(self, arrays, t: float) -> "HomogeneousState":
        """A validated state with the given arrays() at time t."""
        factors = tuple(replace(fac, coeff=float(a)) for fac, a in zip(self.factors, arrays[0]))
        return HomogeneousState(self.n, self.alpha, factors, t)

    def length_volume(self) -> tuple[float, float]:
        """Circumference scale of the first factor (a representative curve
        length) and total volume."""
        vol = 1.0
        for fac in self.factors:
            vol *= fiber_volume(fac.dim, fac.kind) * fac.coeff ** (fac.dim / 2.0)
        return TWO_PI * math.sqrt(self.factors[0].coeff), vol

    def integrate(self, values: np.ndarray) -> float:
        """int values dmu of a constant (length-1) field."""
        return float(values[0]) * self.length_volume()[1]

    def metric_logs(self) -> np.ndarray:
        """Log of the per-factor coefficients."""
        return np.log(self.coefficients())

    def map_range(self) -> tuple[float, float]:
        """A map of slopes along circle factors has no periodic part."""
        return 0.0, 0.0

    @property
    def map_single_valued(self) -> bool:
        return all(fac.slope == 0.0 for fac in self.factors)

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Zero: every field on a homogeneous state is constant."""
        return np.zeros_like(values)


State = WarpedState | HomogeneousState


@dataclass
class CurvatureFields:
    """Pointwise curvature and coupling quantities.

    Arrays are over the grid for warped states and length 1 for
    homogeneous ones.  s_scalar = R - alpha*|grad phi|^2 uses the full
    coupling.  s_flow and flow_tensor_sq are the trace and squared norm
    of the tensor driving the metric flow, R_ij - (alpha/2) phi_i phi_j,
    which is the pair entering the evolution identity (see analysis).
    """

    k_rad: np.ndarray
    k_fib: np.ndarray
    scalar: np.ndarray
    ric_sq: np.ndarray
    rm_sq: np.ndarray
    weyl_sq: np.ndarray
    grad_phi_sq: np.ndarray
    lap_phi: np.ndarray
    s_scalar: np.ndarray
    s_flow: np.ndarray
    flow_tensor_sq: np.ndarray
    ric_op: np.ndarray

    @property
    def max_rm(self) -> float:
        """max |Rm| = max sqrt(rm_sq) over the grid."""
        return float(np.sqrt(np.max(self.rm_sq)))

    @property
    def max_ric(self) -> float:
        return float(np.max(self.ric_op))


def _weyl_sq(n: int, rm_sq, ric_sq, scalar_sq):
    # Orthogonal decomposition of Rm; identically zero for n <= 3.
    if n <= 3:
        return np.zeros_like(np.asarray(rm_sq, dtype=float))
    return rm_sq - 4.0 / (n - 2) * ric_sq + 2.0 / ((n - 1) * (n - 2)) * scalar_sq


def warped_terms(n: int, c: float, h: float, f, psi, u, winding: int):
    """The derivative kernel of the warped ansatz: (k_rad, k_fib,
    |grad phi|^2, Lap phi) of the data f, psi, u on a periodic grid of
    spacing h.  The curvature fields and the flow's right-hand side are
    both built on it, so they agree bit for bit."""
    psi_s = dx_periodic(psi, h) / f
    psi_ss = dx_periodic(psi_s, h) / f
    phi_s = (winding + dx_periodic(u, h)) / f
    phi_ss = dx_periodic(phi_s, h) / f
    lap_phi = phi_ss + (n - 1) * (psi_s / psi) * phi_s
    return -psi_ss / psi, (c - psi_s**2) / psi**2, phi_s**2, lap_phi


def compute_curvature(state: WarpedState) -> CurvatureFields:
    """All curvature/coupling fields of a warped state, in closed form."""
    for name, arr in (("f", state.f), ("psi", state.psi), ("u", state.u)):
        _check_finite(name, arr)
    n = state.n
    alpha = state.alpha
    k_rad, k_fib, grad_phi_sq, lap_phi = warped_terms(
        n, state.fiber_curvature, state.h, state.f, state.psi, state.u, state.winding)

    scalar = 2.0 * (n - 1) * k_rad + (n - 1) * (n - 2) * k_fib
    lam0 = (n - 1) * k_rad
    lam1 = k_rad + (n - 2) * k_fib
    ric_sq = lam0**2 + (n - 1) * lam1**2
    rm_sq = 4.0 * (n - 1) * k_rad**2 + 2.0 * (n - 1) * (n - 2) * k_fib**2
    weyl_sq = _weyl_sq(n, rm_sq, ric_sq, scalar**2)

    s_scalar = scalar - alpha * grad_phi_sq
    s_flow = scalar - 0.5 * alpha * grad_phi_sq
    flow_tensor_sq = (lam0 - 0.5 * alpha * grad_phi_sq) ** 2 + (n - 1) * lam1**2
    ric_op = np.maximum(np.abs(lam0), np.abs(lam1))

    return CurvatureFields(k_rad, k_fib, scalar, ric_sq, rm_sq, weyl_sq, grad_phi_sq,
                           lap_phi, s_scalar, s_flow, flow_tensor_sq, ric_op)


def compute_curvature_homogeneous(state: HomogeneousState) -> CurvatureFields:
    """Curvature of a product of round spheres and flat tori (constant).

    Flat factors contribute zero curvature; a round S^k factor with
    coefficient a has sectional curvature 1/a within the factor.  The
    k_rad/k_fib slots are filled only for layouts matching the warped
    ansatz (single factor, or flat circle base times a fiber factor);
    other products get zeros there, the scalar invariants are always
    exact.
    """
    n = state.n
    alpha = state.alpha
    scalar = 0.0
    ric_sq = 0.0
    rm_sq = 0.0
    grad = 0.0
    ric_op = 0.0
    flow_tensor_sq = 0.0
    for fac in state.factors:
        eig = fac.ric_eig
        k = fac.kind.curvature / fac.coeff
        scalar += fac.dim * eig
        ric_sq += fac.dim * eig**2
        rm_sq += 2.0 * fac.dim * (fac.dim - 1) * k**2
        ric_op = max(ric_op, abs(eig))
        if fac.slope != 0.0:
            grad += fac.slope**2 / fac.coeff
            flow_tensor_sq += (eig - 0.5 * (alpha * fac.slope**2 / fac.coeff)) ** 2
        else:
            flow_tensor_sq += fac.dim * eig**2

    if len(state.factors) == 1:
        fac = state.factors[0]
        k_rad = k_fib = fac.kind.curvature / fac.coeff
    elif (len(state.factors) == 2 and state.factors[0].dim == 1
          and state.factors[0].kind is Fiber.FLAT_TORUS):
        k_rad = 0.0
        k_fib = state.factors[1].kind.curvature / state.factors[1].coeff
    else:
        k_rad = k_fib = 0.0

    arr = lambda v: np.array([float(v)])
    weyl_sq = _weyl_sq(n, rm_sq, ric_sq, scalar**2)
    return CurvatureFields(
        arr(k_rad), arr(k_fib), arr(scalar), arr(ric_sq), arr(rm_sq),
        arr(weyl_sq), arr(grad), arr(0.0), arr(scalar - alpha * grad),
        arr(scalar - 0.5 * alpha * grad), arr(flow_tensor_sq), arr(ric_op))


def curvature_fields(state: State) -> CurvatureFields:
    if isinstance(state, WarpedState):
        return compute_curvature(state)
    return compute_curvature_homogeneous(state)


def scale_state(state: State, q: float):
    """Parabolic metric scaling g -> q*g (f, psi -> sqrt(q)*f, sqrt(q)*psi
    for warped states, coefficients -> q*a for homogeneous ones).
    phi and the flow time are left untouched."""
    if q <= 0.0:
        raise ValueError(f"scale factor must be positive, got {q}")
    root = math.sqrt(q)
    if isinstance(state, WarpedState):
        return WarpedState(state.n, state.fiber, state.alpha, root * state.f,
                           root * state.psi, state.winding, state.u.copy(), state.t)
    return state.evolved((q * state.coefficients(),), state.t)


def sphere_area(d: int) -> float:
    """Area (d-volume) of the unit round sphere S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ball_volume_constant(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def fiber_volume(dim: int, kind: Fiber) -> float:
    """Volume of the unit model fiber: round S^dim or flat torus (2*pi)^dim."""
    if Fiber(kind) is Fiber.ROUND_SPHERE:
        return sphere_area(dim)
    return TWO_PI**dim
