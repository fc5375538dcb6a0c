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

Such a metric is locally conformally flat (a warped product over an
interval with a space-form fiber), so its Weyl tensor vanishes: weyl_sq,
the remainder |Rm|^2 - 4/(n-2)|Ric|^2 + 2/((n-1)(n-2)) R^2 of the
orthogonal decomposition, is roundoff on every warped state (about 2e-16
of max|Rm|^2), and so are the |W| spacetime integral acc_w and verify's
spacetime_norm_w_zero on warped runs.  Only products such as S^2 x S^2
have W != 0.

All s-derivatives are taken with second-order periodic central
differences; second derivatives use the nested form (1/f) Dx((1/f) Dx).
Homogeneous product states (one coefficient per factor) provide the
closed-form oracle substrate.  Both kinds share the interface that the
flow and the monitors use (arrays, evolved, metric_logs, ...), the flow's
rate law included: rates(y, sign, fields) gives the time derivatives of a
block y and stable_dt() the parabolic step bound per unit c_cfl (infinite
for products), so the flow never asks a state its kind.  stack_measure
gives the volume measure and base-curve length of many states of one run
at once, from their stacked metric rows, and map_ranges their map ranges;
a state's own length_volume() is a stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, cached_property

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
    """Uniform periodic grid on [0, 2*pi) of 8 to MAX_M points.

    MAX_M = 2**16 is a refusal made before anything of size m is
    allocated.  Above it a run cannot finish: the parabolic step bound
    c_cfl * min(f h)^2 is about 9e-9 at f = 1, over 10^8 steps per unit of
    flow time, and the monitor queue alone would hold 32 * 4 rows of m
    floats (64 MiB at MAX_M, 1 GiB at 2**20)."""

    m: int

    MAX_M = 2**16

    def __post_init__(self):
        if self.m < 8:
            raise ValueError(f"grid needs at least 8 points, got m={self.m}")
        if self.m > self.MAX_M:
            raise ValueError(f"grid takes at most {self.MAX_M} points, got m={self.m}")

    @property
    def h(self) -> float:
        return TWO_PI / self.m

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.m) * self.h


def _constant(value) -> np.ndarray:
    """value as a read-only 0-d float64 array: a ufunc takes it faster than a
    Python number (NumPy's weak-scalar path), with the same result bits."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


class WarpedKernel:
    """The derivative kernel of the warped ansatz, bound to one (n, fiber, m,
    winding): the periodic-extension index m-1, 0, 1, ..., m-1, 0 and the
    constants 2h, n-1, n-2, c, winding and those of R and |Rm|^2, as
    read-only arrays.  warped_kernel() makes one per key and keeps it.  The
    curvature fields, the flow's right-hand side, stacked_curvature and
    WarpedState.laplacian all take their derivatives here, so they agree bit
    for bit."""

    def __init__(self, n: int, fiber: Fiber, m: int, winding: int):
        self.index = np.arange(-1, m + 1) % m
        self.index.flags.writeable = False
        self.two_h = _constant(2.0 * (TWO_PI / m))
        self.n1, self.n2 = _constant(n - 1), _constant(n - 2)
        self.c, self.winding = _constant(fiber.curvature), _constant(winding)
        # R = 2(n-1) K_rad + (n-1)(n-2) K_fib, |Rm|^2 = 4(n-1) K_rad^2 + 2(n-1)(n-2) K_fib^2
        self.r_rad, self.r_fib = _constant(2.0 * (n - 1)), _constant((n - 1) * (n - 2))
        self.rm_rad, self.rm_fib = _constant(4.0 * (n - 1)), _constant(2.0 * (n - 1) * (n - 2))

    def dx_periodic(self, values: np.ndarray) -> np.ndarray:
        """Second-order central difference d/dx on the periodic grid,
        (v[i+1] - v[i-1]) / (2h) with indices taken mod m."""
        extended = values[self.index]
        d = extended[2:] - extended[:-2]
        d /= self.two_h
        return d

    def ds(self, values: np.ndarray, f: np.ndarray) -> np.ndarray:
        """d/ds = (1/f) d/dx."""
        d = self.dx_periodic(values)
        d /= f
        return d

    def phi_x(self, u: np.ndarray) -> np.ndarray:
        """Coordinate derivative of phi = winding*x + u."""
        d = self.dx_periodic(u)
        d += self.winding
        return d

    def laplacian(self, f, psi, psi_s, v_s, out=None) -> np.ndarray:
        """v_ss + (n-1)(psi_s/psi) v_s, given the s-derivatives psi_s and v_s:
        the Laplace-Beltrami operator on x-only scalars (into out if given)."""
        drift = psi_s / psi
        drift *= self.n1
        drift *= v_s
        return np.add(self.ds(v_s, f), drift, out=out)

    def terms(self, f, psi, u, lap_phi=None, psi_s=None):
        """(k_rad, k_fib, lam0, lam1, |grad phi|^2, Lap phi) of the data f,
        psi, u, with lam0 = (n-1) k_rad and lam1 = k_rad + (n-2) k_fib the
        Ricci eigenvalues along d/ds and on the fiber; Lap phi is written into
        lap_phi if one is given.  psi_s is ds(psi, f), taken here unless the
        caller has taken it (and not written to; nothing here writes it)."""
        if psi_s is None:
            psi_s = self.ds(psi, f)
        k_rad = self.ds(psi_s, f)
        np.negative(k_rad, out=k_rad)
        k_rad /= psi
        phi_s = self.phi_x(u)
        phi_s /= f
        lap_phi = self.laplacian(f, psi, psi_s, phi_s, out=lap_phi)
        k_fib = np.square(psi_s)
        np.subtract(self.c, k_fib, out=k_fib)
        k_fib /= np.square(psi)
        lam1 = self.n2 * k_fib
        lam1 += k_rad
        return k_rad, k_fib, self.n1 * k_rad, lam1, np.square(phi_s), lap_phi

    def scalar(self, k_rad, k_fib) -> np.ndarray:
        """R = 2(n-1) K_rad + (n-1)(n-2) K_fib."""
        scalar = self.r_rad * k_rad
        scalar += self.r_fib * k_fib
        return scalar


@cache
def warped_kernel(n: int, fiber: Fiber, m: int, winding: int) -> WarpedKernel:
    """The WarpedKernel of (n, fiber, m, winding), made once per key and kept
    (one small entry per grid and winding a process uses; nothing in it is
    writable, so every caller may share it)."""
    return WarpedKernel(n, fiber, m, winding)


def _check_alpha(alpha: float):
    if not 0.0 <= alpha < math.inf:  # nan compares false
        raise ValueError(f"coupling alpha must be finite and >= 0, got {alpha}")


def _first_failure(names: tuple[str, ...], ok: np.ndarray) -> tuple[str, int]:
    """(row name, grid index) of the first False entry of a (rows, m) mask."""
    row, index = divmod(int(np.flatnonzero(~ok)[0]), ok.shape[1])
    return names[row], index


def _check_finite(names: tuple[str, ...], y: np.ndarray):
    if not np.isfinite(y).all():
        name, bad = _first_failure(names, np.isfinite(y))
        raise ValueError(f"non-finite value in {name} at grid index {bad}")


def _check_positive(names: tuple[str, ...], y: np.ndarray):
    if not y.min() > 0.0:  # a nan minimum fails too
        name, bad = _first_failure(names, y > 0.0)
        raise ValueError(f"{name} must be positive; first violation at grid index {bad}")


@dataclass(frozen=True)
class WarpedState:
    """Metric coefficients and map data of a warped state at one time.

    f, psi, u are arrays over the periodic grid; phi(x) = winding*x + u(x).
    The one owner of the data is the C-contiguous (3, m) block y: f, psi
    and u are its rows, so an in-place edit of any of them is an edit of
    y.  A state is built either from f and psi (u defaults to zeros),
    stacked into a new block, or from y= alone, adopted as it is; giving
    both raises.  The state is frozen, so neither a rebinding nor
    dataclasses.replace can leave the rows and the block apart: build a
    new state with evolved() instead.
    """

    n: int
    fiber: Fiber
    alpha: float
    f: np.ndarray | None = None
    psi: np.ndarray | None = None
    winding: int = 0
    u: np.ndarray | None = None
    t: float = 0.0
    y: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    ROWS = ("f", "psi", "u")

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        _check_alpha(self.alpha)
        fiber = Fiber(self.fiber)
        y = self.y
        if y is None:
            u = np.zeros(np.shape(self.f)) if self.u is None else self.u
            rows = [np.asarray(a, dtype=float) for a in (self.f, self.psi, u)]
            if any(a.ndim != 1 or a.shape != rows[0].shape for a in rows):
                raise ValueError("f, psi, u must be 1-d arrays of a common length")
            y = np.array(rows)
        elif not (self.f is None and self.psi is None and self.u is None):
            raise ValueError("give either f, psi, u or the block y, not both")
        y = np.ascontiguousarray(y, dtype=float)
        if y.ndim != 2 or y.shape[0] != 3:
            raise ValueError("f, psi, u must be 1-d arrays of a common length")
        Grid(y.shape[1])  # enforces m >= 8
        _check_positive(self.ROWS, y[:self.positive])
        vars(self).update(fiber=fiber, winding=int(self.winding),
                          y=y, f=y[0], psi=y[1], u=y[2])

    # copy and pickle carry the block alone and take the rows from it again
    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k not in self.ROWS}

    def __setstate__(self, state):
        y = state["y"]
        vars(self).update(state, f=y[0], psi=y[1], u=y[2])

    @property
    def m(self) -> int:
        return self.f.size

    @property
    def h(self) -> float:
        return TWO_PI / self.m

    def copy(self) -> "WarpedState":
        return self.evolved(self.y.copy(), self.t)

    @property
    def kernel(self) -> WarpedKernel:
        """The derivative kernel of this state's n, fiber, grid and winding."""
        return warped_kernel(self.n, self.fiber, self.m, self.winding)

    # -- the state interface shared with HomogeneousState --------------------

    positive = 2  # leading arrays() rows that must stay positive (f, psi)

    def arrays(self) -> np.ndarray:
        """The evolving data: the (3, m) block with rows f, psi, u."""
        return self.y

    def evolved(self, y: np.ndarray, t: float) -> "WarpedState":
        """A validated state that adopts the block y as its arrays() at time t."""
        return WarpedState(self.n, self.fiber, self.alpha, winding=self.winding, t=t, y=y)

    def length_volume(self) -> tuple[float, float]:
        """Arc length of the base circle and total volume,

            L = int f dx,    V = vol(fiber) * int f psi^{n-1} dx,

        by trapezoidal quadrature on the periodic grid (which is the plain
        Riemann sum there): stack_measure's stack of one."""
        return _length_volume(self)

    def metric_logs(self) -> np.ndarray:
        """Log of the metric coefficients in the two coordinate directions,
        g_xx = f^2 and the fiber coefficient psi^2, concatenated."""
        return np.log(self.y[:2] ** 2).ravel()

    @property
    def map_single_valued(self) -> bool:
        return self.winding == 0

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami operator v_ss + (n-1)(psi_s/psi) v_s on x-only scalars."""
        kernel, f = self.kernel, self.f
        return kernel.laplacian(f, self.psi, kernel.ds(self.psi, f), kernel.ds(values, f))

    def rates(self, y: np.ndarray, sign: float, fields=None) -> np.ndarray:
        """The (3, m) rate block of a block y (this state's own or an RK stage)
        on this state's grid: df/dt = -f (lam0 - sign (alpha/2)|grad phi|^2),
        dpsi/dt = -psi lam1, du/dt = Lap phi, with sign the map-coupling sign.
        The terms come from the derivative kernel, or from fields, the
        curvature fields of y, when given: the same bits either way."""
        f, psi = y[0], y[1]
        out = np.empty(y.shape)
        if fields is None:
            _, _, lam0, lam1, grad_phi_sq, _ = self.kernel.terms(f, psi, y[2], out[2])
        else:
            lam0, lam1, grad_phi_sq = fields.lam0, fields.lam1, fields.grad_phi_sq
            out[2] = fields.lap_phi
        df, dpsi = out[0], out[1]  # indexing: unpacking would iterate the array
        drive = sign * 0.5 * self.alpha * grad_phi_sq
        np.subtract(lam0, drive, out=drive)
        np.negative(f, out=df)
        df *= drive
        np.negative(psi, out=dpsi)
        dpsi *= lam1
        return out

    def stable_dt(self) -> float:
        """The parabolic step bound per unit c_cfl, min(f h)^2: the nested
        second difference's spectral radius is at most 1/min(f h)^2."""
        return float((self.f * self.h).min() ** 2)


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
        if not 0.0 < self.coeff < math.inf:  # nan compares false
            raise ValueError(f"factor coeff must be finite and positive, got {self.coeff}")
        if not math.isfinite(self.slope):
            raise ValueError(f"factor slope must be finite, got {self.slope}")
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


@dataclass(frozen=True)
class HomogeneousState:
    """Product metric with constant coefficients, used for closed forms.

    The (1, k) block that arrays() returns is built once, read-only, from
    the factors; the state is frozen, so the factors cannot be rebound
    under it: build a new state with evolved() instead.
    """

    n: int
    alpha: float
    factors: tuple[Factor, ...]
    t: float = 0.0

    def __post_init__(self):
        vars(self)["factors"] = tuple(self.factors)
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        _check_alpha(self.alpha)
        total = sum(fac.dim for fac in self.factors)
        if total != self.n:
            raise ValueError(f"factor dimensions sum to {total}, expected n={self.n}")
        block = self.coefficients()[np.newaxis]
        block.flags.writeable = False
        vars(self)["_block"] = block

    # copy and pickle rebuild the state, and with it a read-only block
    def __reduce__(self):
        return HomogeneousState, (self.n, self.alpha, self.factors, self.t)

    def copy(self) -> "HomogeneousState":
        return HomogeneousState(self.n, self.alpha, self.factors, self.t)

    def coefficients(self) -> np.ndarray:
        return np.array([fac.coeff for fac in self.factors])

    # -- the state interface shared with WarpedState -------------------------

    ROWS = ("coeffs",)  # the name of the arrays() row
    positive = 1  # the coefficients must stay positive

    def arrays(self) -> np.ndarray:
        """The evolving data: the (1, k) block of the factor coefficients."""
        return self._block

    def evolved(self, y: np.ndarray, t: float) -> "HomogeneousState":
        """A validated state with the (1, k) block y as its arrays() at time t."""
        factors = tuple(replace(fac, coeff=float(a)) for fac, a in zip(self.factors, y[0]))
        return HomogeneousState(self.n, self.alpha, factors, t)

    def length_volume(self) -> tuple[float, float]:
        """Circumference scale of the first factor (a representative curve
        length) and total volume, in closed form: stack_measure's stack of one."""
        return _length_volume(self)

    def metric_logs(self) -> np.ndarray:
        """Log of the per-factor coefficients."""
        return np.log(self.coefficients())

    @property
    def map_single_valued(self) -> bool:
        return all(fac.slope == 0.0 for fac in self.factors)

    def rates(self, y: np.ndarray, sign: float, fields=None) -> np.ndarray:
        """The (1, k) coefficient rates: -2(d-1) on round factors,
        sign*alpha*slope^2 on flat circle factors carrying a map slope, 0
        otherwise.  Slopes are constant in time, so the rates depend on
        neither y nor fields."""
        rates = np.zeros(len(self.factors))
        for k, fac in enumerate(self.factors):
            if fac.kind is Fiber.ROUND_SPHERE:
                rates[k] = -2.0 * (fac.dim - 1)
            elif fac.slope != 0.0:
                rates[k] = sign * self.alpha * fac.slope**2
        return rates[np.newaxis]

    def stable_dt(self) -> float:
        """No parabolic step bound: a product has no spatial operator."""
        return math.inf


State = WarpedState | HomogeneousState


@dataclass
class CurvatureFields:
    """Pointwise curvature and coupling quantities.

    Arrays are over the grid for warped states and length 1 for
    homogeneous ones.  s_scalar = R - alpha*|grad phi|^2 uses the full
    coupling.  s_flow and flow_tensor_sq are the trace and squared norm
    of the tensor driving the metric flow, R_ij - (alpha/2) phi_i phi_j,
    which is the pair entering the evolution identity (see analysis).
    ric_op is the largest |Ricci eigenvalue| at each point.
    max_rm = max sqrt(rm_sq) over the grid is taken once, at construction.

    s_scalar, s_flow, flow_tensor_sq and ric_op are computed the first
    time they are read and then kept, from n, alpha and the Ricci
    eigenvalues lam0 (along d/ds) and lam1 (on the fiber) of a warped
    state: a flow step off the record cadence reads none of them.  The
    homogeneous builder sets all four itself and gives no lam0, lam1.
    """

    scalar: np.ndarray
    ric_sq: np.ndarray
    rm_sq: np.ndarray
    weyl_sq: np.ndarray
    grad_phi_sq: np.ndarray
    lap_phi: np.ndarray
    n: int
    alpha: float
    lam0: np.ndarray | None = None
    lam1: np.ndarray | None = None
    max_rm: float = field(init=False)

    def __post_init__(self):
        self.max_rm = math.sqrt(self.rm_sq.max())

    @cached_property
    def s_scalar(self) -> np.ndarray:
        return self.scalar - self.alpha * self.grad_phi_sq

    @cached_property
    def s_flow(self) -> np.ndarray:
        return _flow_scalar(self.scalar, self.alpha, self.grad_phi_sq)

    @cached_property
    def flow_tensor_sq(self) -> np.ndarray:
        return _flow_tensor_sq(self.n, self.alpha, self.lam0, self.lam1, self.grad_phi_sq)

    @cached_property
    def ric_op(self) -> np.ndarray:
        return np.maximum(np.abs(self.lam0), np.abs(self.lam1))


def _flow_scalar(scalar, alpha: float, grad_phi_sq):
    """Sigma = R - (alpha/2)|grad phi|^2."""
    return scalar - 0.5 * alpha * grad_phi_sq


def _flow_tensor_sq(n: int, alpha: float, lam0, lam1, grad_phi_sq):
    """|Sigma_ij|^2 = (lam0 - (alpha/2)|grad phi|^2)^2 + (n-1) lam1^2."""
    return (lam0 - 0.5 * alpha * grad_phi_sq) ** 2 + (n - 1) * lam1**2


def _weyl_sq(n: int, rm_sq, ric_sq, scalar_sq):
    # Orthogonal decomposition of Rm; identically zero for n <= 3.
    if n <= 3:
        return np.zeros_like(np.asarray(rm_sq, dtype=float))
    return rm_sq - 4.0 / (n - 2) * ric_sq + 2.0 / ((n - 1) * (n - 2)) * scalar_sq


def compute_curvature(state: WarpedState) -> CurvatureFields:
    """All curvature/coupling fields of a warped state, in closed form."""
    _check_finite(state.ROWS, state.y)
    kernel, n = state.kernel, state.n
    k_rad, k_fib, lam0, lam1, grad_phi_sq, lap_phi = kernel.terms(state.f, state.psi, state.u)
    scalar = kernel.scalar(k_rad, k_fib)
    ric_sq = kernel.n1 * np.square(lam1)
    ric_sq += np.square(lam0)
    rm_sq = kernel.rm_rad * np.square(k_rad)
    rm_sq += kernel.rm_fib * np.square(k_fib)
    weyl_sq = _weyl_sq(n, rm_sq, ric_sq, np.square(scalar))
    return CurvatureFields(scalar, ric_sq, rm_sq, weyl_sq, grad_phi_sq, lap_phi,
                           n, state.alpha, lam0, lam1)


def compute_curvature_homogeneous(state: HomogeneousState) -> CurvatureFields:
    """Curvature of a product of round spheres and flat tori (constant).

    Flat factors contribute zero curvature; a round S^k factor with
    coefficient a has sectional curvature 1/a within the factor.
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

    arr = lambda v: np.array([float(v)])
    weyl_sq = _weyl_sq(n, rm_sq, ric_sq, scalar**2)
    fields = CurvatureFields(arr(scalar), arr(ric_sq), arr(rm_sq), arr(weyl_sq), arr(grad),
                             arr(0.0), n, alpha)
    vars(fields).update(s_scalar=arr(scalar - alpha * grad),
                        s_flow=arr(_flow_scalar(scalar, alpha, grad)),
                        flow_tensor_sq=arr(flow_tensor_sq), ric_op=arr(ric_op))
    return fields


def curvature_fields(state: State) -> CurvatureFields:
    if isinstance(state, WarpedState):
        return compute_curvature(state)
    return compute_curvature_homogeneous(state)


def stacked_curvature(states) -> tuple:
    """The terms of the evolution identity of several states as columns,
    (s_flow, flow_tensor_sq, lap_phi, laplacian).

    The states are of one kind with one n and alpha, and warped ones share
    one kernel.  s_flow, flow_tensor_sq and lap_phi are CurvatureFields'
    arrays as (m, k) arrays, the grid along axis 0 and state j in column j
    ((1, k) for homogeneous states).  laplacian(values) applies each
    state's Laplace-Beltrami operator to its column of an (m, k) array
    (zero for homogeneous states).  Warped columns run compute_curvature's
    kernel calls, the two functions behind CurvatureFields.s_flow and
    flow_tensor_sq, and WarpedState.laplacian's operator, whose every
    operation is elementwise or a gather or slice along axis 0, so each
    column equals the one-state result bit for bit.  A non-finite state
    raises compute_curvature's error.
    """
    first = states[0]
    if len({(type(s), s.n, s.alpha) for s in states}) > 1:
        raise ValueError("stacked states must share one kind, n and alpha")
    if isinstance(first, HomogeneousState):
        each = [compute_curvature_homogeneous(s) for s in states]
        return (*(np.stack([getattr(one, name) for one in each], axis=1)
                  for name in ("s_flow", "flow_tensor_sq", "lap_phi")), np.zeros_like)
    if len({(s.fiber, s.m, s.winding) for s in states}) > 1:
        raise ValueError("stacked warped states must share one kernel")
    kernel = first.kernel
    y = np.array([s.y for s in states])
    if not np.isfinite(y).all():
        for s in states:
            _check_finite(s.ROWS, s.y)
    y = np.ascontiguousarray(y.transpose(1, 2, 0))  # (3, m, k)
    f, psi = y[0], y[1]
    psi_s = kernel.ds(psi, f)  # the Laplacian's drift term takes it too
    k_rad, k_fib, lam0, lam1, grad_phi_sq, lap_phi = kernel.terms(f, psi, y[2], psi_s=psi_s)
    return (_flow_scalar(kernel.scalar(k_rad, k_fib), first.alpha, grad_phi_sq),
            _flow_tensor_sq(first.n, first.alpha, lam0, lam1, grad_phi_sq), lap_phi,
            lambda values: kernel.laplacian(f, psi, psi_s, kernel.ds(values, f)))


@dataclass(frozen=True)
class StackMeasure:
    """The volume measure and base-curve length of k states of one run,
    row j for state j (stack_measure builds it).  For values a (k, width)
    array or a number, and rows a slice or index array of the states wanted
    (all by default):

        integrate(values, rows)[j] = scale * (values_j * f_j * weight_j).sum()
        length(rows)[j]            = step * curve_j.sum()

    Every row is reduced over the contiguous axis, so each entry equals the
    one-state value bit for bit.  integrate forms the product in out if
    given, which may be values itself."""

    scale: float
    f: np.ndarray
    weight: np.ndarray
    step: float
    curve: np.ndarray

    def integrate(self, values, rows=slice(None), out=None) -> np.ndarray:
        product = np.multiply(values, self.f[rows], out=out)
        product *= self.weight[rows]
        return self.scale * product.sum(axis=1)

    def length(self, rows=slice(None)) -> np.ndarray:
        return self.step * self.curve[rows].sum(axis=1)


def stack_measure(state: State, blocks: np.ndarray) -> StackMeasure:
    """The StackMeasure of k states with state's kind, n and grid (fiber
    and winding) or factors, from their metric rows arrays()[:positive]
    stacked on axis 0: (k, 2, m) rows f, psi or (k, 1, factors).

    Warped: scale = vol(fiber) * h, weight = psi^{n-1}, curve = f with step
    h.  Products, in closed form: f = 1, weight = the volume, curve = the
    first factor's circumference 2 pi sqrt(a) with step 1; scale 1 and
    step 1 change no bit.  Python float arithmetic on extreme product
    coefficients raises OverflowError."""
    if isinstance(state, WarpedState):
        f = blocks[:, 0]
        return StackMeasure(fiber_volume(state.n - 1, state.fiber) * state.h, f,
                            blocks[:, 1] ** (state.n - 1), state.h, f)
    closed = np.array([_product_length_volume(state.factors, block[0].tolist())
                       for block in blocks])
    return StackMeasure(1.0, np.ones((len(blocks), 1)), closed[:, 1:], 1.0, closed[:, :1])


def map_ranges(states) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of the periodic part u of phi of each of several states
    of one kind, as two (k,) arrays: 0 on products, where a map of slopes
    along circle factors has no periodic part."""
    if isinstance(states[0], WarpedState):
        u = np.array([s.u for s in states])
        return u.min(axis=1), u.max(axis=1)
    zeros = np.zeros(len(states))
    return zeros, zeros


def _product_length_volume(factors, coeffs) -> tuple[float, float]:
    """(2 pi sqrt(a_0), prod vol(model factor) a^{dim/2}) of product
    coefficients a, in Python floats."""
    vol = 1.0
    for fac, a in zip(factors, coeffs):
        vol *= fiber_volume(fac.dim, fac.kind) * a ** (fac.dim / 2.0)
    return TWO_PI * math.sqrt(coeffs[0]), vol


def _length_volume(state: State) -> tuple[float, float]:
    measure = stack_measure(state, state.arrays()[np.newaxis, :state.positive])
    return float(measure.length()[0]), float(measure.integrate(1.0)[0])


def scale_state(state: State, q: float):
    """Parabolic metric scaling g -> q*g (f, psi -> sqrt(q)*f, sqrt(q)*psi
    for warped states, coefficients -> q*a for homogeneous ones).
    phi and the flow time are left untouched."""
    if not 0.0 < q < math.inf:  # nan compares false
        raise ValueError(f"scale factor q must be finite and positive, got {q}")
    if isinstance(state, WarpedState):
        y = state.y.copy()
        y[:2] *= math.sqrt(q)
        return state.evolved(y, state.t)
    return state.evolved(q * state.arrays(), state.t)


def sphere_area(d: int) -> float:
    """Area (d-volume) of the unit round sphere S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ball_volume_constant(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@cache
def fiber_volume(dim: int, kind: Fiber) -> float:
    """Volume of the unit model fiber: round S^dim or flat torus (2*pi)^dim."""
    if Fiber(kind) is Fiber.ROUND_SPHERE:
        return sphere_area(dim)
    return TWO_PI**dim
