"""Straightening change of variables built from invariant-manifold graphs.

Near the invariant manifold the local stable set is a graph u = G_s(s, x) and
the local unstable set a graph s = G_u(u, x), both tangent to the flat model
slices.  The coordinate change

    Phi(s, u, x) = (s - G_u(u, x), u - G_s(s, x), x)

flattens them onto {s = 0} and {u = 0}.  Phi is inverted by fixed-point
iteration (its derivative is the identity on the manifold, so the iteration
contracts on a sub-ball), and a map can be conjugated through Phi to produce
a new map spec with straightened invariant sets.  One array core on the flat
blocks, ``_phi`` and ``_inverse``, does the work: the public functions wrap it
for ``ChartPoint``s as ``apply_map`` wraps ``normalform._image``, and the
conjugated remainder and the radius bisection call it directly.  The
conjugated map carries derivatives: its Jacobian is the chain rule through
DPhi (the identity minus central differences of the closed-form graphs), and
its second derivatives are central differences of that Jacobian.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ContractError, DivergenceError
from .geometry import (
    TWO_PI, ChartPoint, ChartTopology, _as_float_vector, _max_keep_nan, _normal_norm, vec_sup_norm
)
from .normalform import (
    FD_STEP_FIRST,
    MapSpec,
    _ball_image,
    _fd_first,
    _in_ball,
    _jacobian,
    _linear_blocks,
    _scale_manifold,
    _unit_samples,
)


def _signed_x_diff(topo: ChartTopology, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-coordinate a - b, wrapped to (-pi, pi] on angle coordinates."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mask = topo.is_angle
    d[mask] = -((-d[mask] + np.pi) % TWO_PI - np.pi)
    return d


@dataclass(frozen=True)
class GraphPair:
    """Graphs of the local stable set (u over (s, x)) and unstable set (s over (u, x)).

    Both graphs must vanish at the zero section together with their first
    derivatives; ``tangency_violation`` measures how badly a candidate pair
    fails that.
    """

    G_s: Callable[[np.ndarray, np.ndarray], np.ndarray]
    G_u: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def zero(cls, n_s: int, n_u: int) -> "GraphPair":
        return cls(G_s=lambda s, x: np.zeros(n_u), G_u=lambda u, x: np.zeros(n_s))


def _phi(gp: GraphPair, s: np.ndarray, u: np.ndarray, x: np.ndarray) -> tuple:
    """The (s, u) blocks of Phi(s, u, x); x is left as it is."""
    return s - np.asarray(gp.G_u(u, x), dtype=float), u - np.asarray(gp.G_s(s, x), dtype=float)


def _inverse(gp: GraphPair, q_s: np.ndarray, q_u: np.ndarray, x: np.ndarray, tol: float, max_iter: int) -> tuple:
    """The (s, u) blocks of Phi^{-1}(q_s, q_u, x) by the sweeps of ``straighten_inverse``; the
    residual's two blocks are tested as one reduction, so a NaN in either never converges."""
    # the graph values of one sweep's residual are the next sweep's update
    g_u = np.asarray(gp.G_u(q_u, x), dtype=float)
    g_s = np.asarray(gp.G_s(q_s, x), dtype=float)
    for _ in range(max_iter):
        s = q_s + g_u
        u = q_u + g_s
        g_u = np.asarray(gp.G_u(u, x), dtype=float)
        g_s = np.asarray(gp.G_s(s, x), dtype=float)
        if _normal_norm(s - g_u - q_s, u - g_s - q_u) <= tol:
            return s, u
    raise DivergenceError(
        f"straightening inverse did not reach tol={tol} in {max_iter} iterations "
        f"at |s|={np.abs(q_s).max():.3g}, |u|={np.abs(q_u).max():.3g}"
    )


def straighten_point(gp: GraphPair, p: ChartPoint) -> ChartPoint:
    """Apply Phi to a chart point."""
    s, u = _phi(gp, p.s, p.u, p.x)
    return ChartPoint(s=s, u=u, x=p.x, topology=p.topology)


def straighten_inverse(gp: GraphPair, q: ChartPoint, tol: float = 1e-12, max_iter: int = 100) -> ChartPoint:
    """Solve Phi(p) = q by the fixed-point iteration

        s <- q_s + G_u(u, x),   u <- q_u + G_s(s, x),

    which contracts near the manifold because the graph derivatives vanish
    there.  Raises DivergenceError when the residual fails to reach ``tol``
    within ``max_iter`` sweeps (the point is too far out for this pair).
    """
    if tol <= 0:
        raise ContractError(f"tol must be positive, got {tol}")
    s, u = _inverse(gp, q.s, q.u, q.x, tol, max_iter)
    return ChartPoint(s=s, u=u, x=q.x, topology=q.topology)


def _graph(g, *args) -> np.ndarray:
    return np.atleast_1d(np.asarray(g(*args), dtype=float))


def _graph_derivatives(gp: GraphPair, s: np.ndarray, u: np.ndarray, x: np.ndarray, h: float) -> tuple:
    """Central differences of the closed-form graphs at (s, u, x):
    d_s G_s, d_u G_u, d_x G_s and d_x G_u."""
    return (
        _fd_first(lambda v: _graph(gp.G_s, v, x), s, h),
        _fd_first(lambda v: _graph(gp.G_u, v, x), u, h),
        _fd_first(lambda v: _graph(gp.G_s, s, v), x, h),
        _fd_first(lambda v: _graph(gp.G_u, u, v), x, h),
    )


def _dphi(gp: GraphPair, s: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """DPhi at (s, u, x): the identity minus the graph derivatives.  Only the
    closed-form graphs are differenced, never the inverse."""
    ds_gs, du_gu, dx_gs, dx_gu = _graph_derivatives(gp, s, u, x, FD_STEP_FIRST)
    a, b = s.size, s.size + u.size  # the u block is a:b, the x block b:
    d = np.eye(b + x.size)
    d[:a, a:b] -= du_gu
    d[:a, b:] -= dx_gu
    d[a:b, :a] -= ds_gs
    d[a:b, b:] -= dx_gs
    return d


def tangency_violation(gp: GraphPair, f: MapSpec) -> float:
    """Sup over 16 sampled base points of the graph values and first derivatives at 0.

    Zero for an admissible pair; anything materially positive means the
    graphs are not tangent to the model slices and Phi will not straighten
    cleanly.
    """
    dims = f.dims
    xs = _scale_manifold(_unit_samples(dims.m, 16, 0), f.x_ranges())
    zs = np.zeros(dims.n_s)
    zu = np.zeros(dims.n_u)
    worst = 0.0
    for x in xs:
        values = (_graph(gp.G_s, zs, x), _graph(gp.G_u, zu, x), *_graph_derivatives(gp, zs, zu, x, FD_STEP_FIRST))
        worst = _max_keep_nan(worst, *(vec_sup_norm(v) for v in values))
    return worst


def conjugated_radius(f: MapSpec, gp: GraphPair) -> float:
    """Largest ball radius (up to 30 bisection steps) on which Phi inverts cleanly: the inverse
    iteration lands every corner of the ball, at a handful of base points, inside B_rho."""
    xs = [f.topo.canonicalize(x) for x in _scale_manifold(_unit_samples(f.dims.m, 5, 3), f.x_ranges())]
    signs_s = [np.array(bits, dtype=float) * 2.0 - 1.0 for bits in np.ndindex(*(2,) * f.dims.n_s)]
    signs_u = [np.array(bits, dtype=float) * 2.0 - 1.0 for bits in np.ndindex(*(2,) * f.dims.n_u)]
    probes = list(itertools.product(xs, signs_s, signs_u))

    def reaches(radius: float) -> bool:
        for x, ss, su in probes:
            try:
                s, u = _inverse(gp, radius * ss, radius * su, x, tol=1e-12, max_iter=200)
            except DivergenceError:
                return False
            if not _normal_norm(s, u) < f.rho:
                return False
        return True

    if reaches(f.rho):
        return f.rho
    lo, hi = 0.0, f.rho
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if reaches(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise DivergenceError("straightening inverse fails on every probed ball radius")
    return lo


def _conjugated(f: MapSpec, gp: GraphPair, radius: Optional[float], forward: bool) -> MapSpec:
    """Phi o f o Phi^{-1} (forward) or Phi^{-1} o f o Phi as a new map spec.

    Only the remainder and its derivatives change.  The remainder is the
    image less the linear part.  Its Jacobian is the chain rule through DPhi,
    taken at the points on f's side of the conjugacy: at z = Phi^{-1}(w),
    D(Phi o f o Phi^{-1})(w) = DPhi(f(z)) Df(z) DPhi(z)^{-1}, and
    D(Phi^{-1} o f o Phi)(y) = DPhi(F(y))^{-1} Df(Phi(y)) DPhi(y), less the
    linear part.  Df is f's own block Jacobian, so a wrapped conjugated map
    chains through both layers.  The second derivatives are central
    differences of that Jacobian (one-sided at the ball's edge), symmetrized.
    """
    inverse = functools.partial(_inverse, tol=1e-13, max_iter=200)
    first, last = (inverse, _phi) if forward else (_phi, inverse)

    def compose(s, u, x):
        """The argument, its image (z_s, z_u) under ``first``, and f's image w of that; x is
        wrapped where a new point enters: the argument and the image of f."""
        s, u, x = _as_float_vector(s), _as_float_vector(u), f.topo.canonicalize(x)
        z_s, z_u = first(gp, s, u, x)
        w_s, w_u, w_x = _ball_image(f, z_s, z_u, x)
        return s, u, x, z_s, z_u, w_s, w_u, f.topo.canonicalize(w_x)

    def r_map(s, u, x):
        s, u, x, _, _, w_s, w_u, w_x = compose(s, u, x)
        w_s, w_u = last(gp, w_s, w_u, w_x)
        return (w_s - f.A_s(x) @ s, w_u - f.A_u(x) @ u, _signed_x_diff(f.topo, w_x, f.g_map(x)))

    def d_r(s, u, x):
        s, u, x, z_s, z_u, w_s, w_u, w_x = compose(s, u, x)
        jac = _jacobian(f, z_s, z_u, x, FD_STEP_FIRST)
        if forward:  # DPhi(w) Df(z) DPhi(z)^-1, the right factor by a solve on the transposes
            jac = _dphi(gp, w_s, w_u, w_x) @ np.linalg.solve(_dphi(gp, z_s, z_u, x).T, jac.T).T
        else:  # DPhi(Phi^-1(w))^-1 Df(z) DPhi(s, u, x)
            jac = np.linalg.solve(_dphi(gp, *last(gp, w_s, w_u, w_x), w_x), jac @ _dphi(gp, s, u, x))
        for rows, cols, block in _linear_blocks(f, np.concatenate((s, u, x))[None], FD_STEP_FIRST):
            jac[rows, cols] -= block[0]
        return jac

    def d2_r(s, u, x):
        dims = f.dims
        t = _fd_first(lambda z: d_r(*dims.split(z)).reshape(-1), dims.join(s, u, x), FD_STEP_FIRST,
                      inside=_in_ball(conjugated))
        t = t.reshape(dims.n, dims.n, dims.n)  # T[i, j, k] = d_k of d_r[i, j]
        return 0.5 * (t + t.transpose(0, 2, 1))

    conjugated = dataclasses.replace(
        f,
        rho=conjugated_radius(f, gp) if radius is None else float(radius),
        r_map=r_map,
        d_r=d_r,
        d2_r=d2_r,
        name=f"{f.name}_{'straightened' if forward else 'unstraightened'}",
    )
    return conjugated


def conjugate_map(f: MapSpec, gp: GraphPair, radius: Optional[float] = None) -> MapSpec:
    """Wrap Phi o f o Phi^{-1} as a new map spec on a possibly smaller ball.

    The linear data (normal blocks, base map) is unchanged; only the
    remainder differs.  It is evaluated pointwise, and its Jacobian is the
    chain rule through DPhi and f's own Jacobian rather than a finite
    difference across the inverse.  The new ball radius is found by bisection
    on corner samples unless the caller supplies one.
    """
    return _conjugated(f, gp, radius, forward=True)


def unstraighten_map(f: MapSpec, gp: GraphPair, radius: Optional[float] = None) -> MapSpec:
    """Wrap Phi^{-1} o f o Phi: gives a map whose invariant sets are the curved graphs.

    Useful for building test inputs with known stable/unstable geometry;
    ``conjugate_map`` with the same pair undoes it.
    """
    return _conjugated(f, gp, radius, forward=False)
