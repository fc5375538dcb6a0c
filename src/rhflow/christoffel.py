"""Independent curvature verification through generic tensor calculus.

The closed-form curvature of the warped ansatz (geometry module) is
checked against a pipeline that knows nothing about warped products: it
assembles the full n x n coordinate metric on a chart of S^1 x F,
differentiates it numerically, builds Christoffel symbols and the
Riemann tensor component by component, and contracts down to the scalar
invariants R, |Ric|^2, |Rm|^2.

x-derivatives are periodic central differences at the grid resolution
(the grid data is the only knowledge of f and psi available).  Fiber
derivatives use 6th-order stencils with a fixed small step on the
hyperspherical chart of the round fiber, so their error sits far below
the O(h^2) floor of the grid direction.
"""
from __future__ import annotations

import numpy as np

from .geometry import Fiber, WarpedState, compute_curvature

# 6th-order first-derivative stencil (offsets in units of _DELTA).
_OFFSETS = (-3, -2, -1, 1, 2, 3)
_WEIGHTS = np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / 60.0
_DELTA = 0.02


def _base_point(d: int, kind: Fiber) -> np.ndarray:
    """Generic chart point on the fiber, away from coordinate degeneracies."""
    if kind is Fiber.ROUND_SPHERE:
        return 1.0 + 0.17 * np.arange(d)
    return np.zeros(d)


def _fiber_metric(kind: Fiber, d: int, y: np.ndarray) -> np.ndarray:
    """Unit fiber metric in coordinates.  Round spheres use the
    hyperspherical chart g = dth_1^2 + sin^2 th_1 dth_2^2 + ..."""
    if kind is Fiber.ROUND_SPHERE and d >= 2:
        gf = np.eye(d)
        for k in range(1, d):
            gf[k, k] = np.prod(np.sin(y[:k]) ** 2)
        return gf
    return np.eye(d)


def _metric_of(state: WarpedState):
    """metric(x_roll, y): the coordinate metric at every grid point shifted
    by x_roll (-1, 0 or 1) steps, at fiber point y.  Shape (m, n, n).
    f and psi are rolled once per shift and each fiber metric is built
    once per fiber point, keyed by the exact floats of y, for as long as
    the returned function lives: one oracle call.  The (m, n, n) metrics
    themselves are not kept; the 183 of one n=4 call would hold 4.5 MB at
    m=192."""
    m, n = state.m, state.n
    squares = {s: (np.roll(state.f, -s) ** 2, np.roll(state.psi, -s) ** 2) for s in (-1, 0, 1)}
    fiber_metrics = {}

    def metric(x_roll: int, y: np.ndarray) -> np.ndarray:
        point = y.tobytes()
        gf = fiber_metrics.get(point)
        if gf is None:
            gf = fiber_metrics[point] = _fiber_metric(state.fiber, n - 1, y)
        f_sq, psi_sq = squares[x_roll]
        g = np.zeros((m, n, n))
        g[:, 0, 0] = f_sq
        g[:, 1:, 1:] = psi_sq[:, None, None] * gf[None, :, :]
        return g

    return metric


def _christoffel(metric, n: int, h: float, y: np.ndarray) -> np.ndarray:
    """Gamma^k_{ij} at all grid points for fiber point y: (m, n, n, n),
    from the memoised metric of _metric_of."""
    g = metric(0, y)
    dg = np.empty((n,) + g.shape)
    dg[0] = (metric(1, y) - metric(-1, y)) / (2.0 * h)
    for d in range(n - 1):
        acc = np.zeros_like(g)
        for off, w in zip(_OFFSETS, _WEIGHTS):
            yo = y.copy()
            yo[d] += off * _DELTA
            acc += w * metric(0, yo)
        dg[d + 1] = acc / _DELTA
    # A[p, a, b, c] = partial_a g_{bc}
    A = np.moveaxis(dg, 0, 1)
    T = A + np.einsum("pjil->pijl", A) - np.einsum("plij->pijl", A)
    ginv = np.linalg.inv(g)
    return 0.5 * np.einsum("pkl,pijl->pkij", ginv, T)


def _riemann_and_metric(state: WarpedState):
    n = state.n
    h = state.h
    metric = _metric_of(state)
    y0 = _base_point(n - 1, state.fiber)
    gam = _christoffel(metric, n, h, y0)

    dgam = np.empty((n,) + gam.shape)
    dgam[0] = (np.roll(gam, -1, axis=0) - np.roll(gam, 1, axis=0)) / (2.0 * h)
    for d in range(n - 1):
        acc = np.zeros_like(gam)
        for off, w in zip(_OFFSETS, _WEIGHTS):
            yo = y0.copy()
            yo[d] += off * _DELTA
            acc += w * _christoffel(metric, n, h, yo)
        dgam[d + 1] = acc / _DELTA

    # dG[p, i, l, j, k] = partial_i Gamma^l_{jk}
    dG = np.moveaxis(dgam, 0, 1)
    term1 = np.einsum("piljk->plijk", dG)
    term2 = np.einsum("pjlik->plijk", dG)
    quad1 = np.einsum("plim,pmjk->plijk", gam, gam)
    quad2 = np.einsum("pljm,pmik->plijk", gam, gam)
    # R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{im}Gamma^m_{jk}
    #             - Gamma^l_{jm}Gamma^m_{ik}
    riem = term1 - term2 + quad1 - quad2
    return riem, metric(0, y0)


def oracle_ricci_eigenvalues(state: WarpedState) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Ricci eigenvalues (radial direction, first fiber
    direction) over the grid, for cross-checking the reduced flow."""
    riem, g = _riemann_and_metric(state)
    ric = np.einsum("piijk->pjk", riem)
    return ric[:, 0, 0] / g[:, 0, 0], ric[:, 1, 1] / g[:, 1, 1]


def oracle_invariants(state: WarpedState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, |Ric|^2, |Rm|^2) over the grid via numeric Christoffel/Riemann."""
    riem, g = _riemann_and_metric(state)
    ginv = np.linalg.inv(g)
    ric = np.einsum("piijk->pjk", riem)
    scalar = np.einsum("pjk,pjk->p", ginv, ric)
    ric_sq = np.einsum("pab,pcd,pac,pbd->p", ginv, ginv, ric, ric)

    rlow = np.einsum("pal,plijk->paijk", g, riem)
    rup = np.einsum("paijk,pab->pbijk", rlow, ginv)
    rup = np.einsum("pbijk,pic->pbcjk", rup, ginv)
    rup = np.einsum("pbcjk,pjd->pbcdk", rup, ginv)
    rup = np.einsum("pbcdk,pke->pbcde", rup, ginv)
    rm_sq = np.einsum("pbcde,pbcde->p", rup, rlow)
    return scalar, ric_sq, rm_sq


def curvature_oracle_check(state: WarpedState) -> float:
    """Max relative discrepancy between the closed-form curvature and the
    finite-difference Christoffel oracle, over R, |Ric|^2 and |Rm|^2."""
    closed = compute_curvature(state)
    scalar, ric_sq, rm_sq = oracle_invariants(state)
    worst = 0.0
    for a, b in ((scalar, closed.scalar), (ric_sq, closed.ric_sq), (rm_sq, closed.rm_sq)):
        scale = 1.0 + float(np.max(np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst
