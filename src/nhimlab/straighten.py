"""Straightening change of variables built from invariant-manifold graphs.

Near the invariant manifold the local stable set is a graph u = G_s(s, x) and
the local unstable set a graph s = G_u(u, x), both tangent to the flat model
slices.  The coordinate change

    Phi(s, u, x) = (s - G_u(u, x), u - G_s(s, x), x)

flattens them onto {s = 0} and {u = 0}.  Phi is inverted by fixed-point
iteration (its derivative is the identity on the manifold, so the iteration
contracts on a sub-ball), and a map can be conjugated through Phi to produce
a new map spec with straightened invariant sets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ContractError, DivergenceError, OutOfNeighborhoodError
from .geometry import TWO_PI, ChartPoint, ChartTopology, vec_sup_norm
from .normalform import MapSpec, apply_map, _fd_first, _scale_manifold, _unit_samples


def _signed_x_diff(topo: ChartTopology, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-coordinate a - b, wrapped to (-pi, pi] on angle coordinates."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for i in range(d.shape[0]):
        if topo.is_angle[i]:
            d[i] = -((-d[i] + np.pi) % TWO_PI - np.pi)
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


def straighten_point(gp: GraphPair, p: ChartPoint, rho: Optional[float] = None) -> ChartPoint:
    """Apply Phi; with ``rho`` given, points outside the ball are rejected."""
    if rho is not None and not p.in_ball(rho):
        raise OutOfNeighborhoodError(norm=p.normal_norm, rho=rho)
    s = p.s - np.asarray(gp.G_u(p.u, p.x), dtype=float)
    u = p.u - np.asarray(gp.G_s(p.s, p.x), dtype=float)
    return ChartPoint(s=s, u=u, x=p.x, topology=p.topology)


def straighten_inverse(
    gp: GraphPair,
    q: ChartPoint,
    tol: float = 1e-12,
    max_iter: int = 100,
    rho: Optional[float] = None,
) -> ChartPoint:
    """Solve Phi(p) = q by the fixed-point iteration

        s <- q_s + G_u(u, x),   u <- q_u + G_s(s, x),

    which contracts near the manifold because the graph derivatives vanish
    there.  Raises DivergenceError when the residual fails to reach ``tol``
    within ``max_iter`` sweeps (the point is too far out for this pair).
    """
    if rho is not None and not q.in_ball(rho):
        raise OutOfNeighborhoodError(norm=q.normal_norm, rho=rho)
    if tol <= 0:
        raise ContractError(f"tol must be positive, got {tol}")
    x = q.x
    # the graph values of one sweep's residual are the next sweep's update
    g_u = np.asarray(gp.G_u(q.u, x), dtype=float)
    g_s = np.asarray(gp.G_s(q.s, x), dtype=float)
    for _ in range(max_iter):
        s = q.s + g_u
        u = q.u + g_s
        g_u = np.asarray(gp.G_u(u, x), dtype=float)
        g_s = np.asarray(gp.G_s(s, x), dtype=float)
        res_s = s - g_u - q.s
        res_u = u - g_s - q.u
        if max(vec_sup_norm(res_s), vec_sup_norm(res_u)) <= tol:
            return ChartPoint(s=s, u=u, x=x, topology=q.topology)
    raise DivergenceError(
        f"straightening inverse did not reach tol={tol} in {max_iter} iterations "
        f"at |s|={vec_sup_norm(q.s):.3g}, |u|={vec_sup_norm(q.u):.3g}"
    )


def tangency_violation(gp: GraphPair, f: MapSpec, sample_count: int = 16, seed: int = 0, h: float = 1e-6) -> float:
    """Sup over sampled base points of the graph values and first derivatives at 0.

    Zero for an admissible pair; anything materially positive means the
    graphs are not tangent to the model slices and Phi will not straighten
    cleanly.
    """
    dims = f.dims
    xs = _scale_manifold(_unit_samples(dims.m, sample_count, seed), f.x_ranges())
    zs = np.zeros(dims.n_s)
    zu = np.zeros(dims.n_u)

    def graph(g, *args):
        return np.atleast_1d(np.asarray(g(*args), dtype=float))

    worst = 0.0
    for x in xs:
        values = (
            graph(gp.G_s, zs, x),
            graph(gp.G_u, zu, x),
            _fd_first(lambda v: graph(gp.G_s, v, x), zs, h),
            _fd_first(lambda v: graph(gp.G_u, v, x), zu, h),
            _fd_first(lambda v: graph(gp.G_s, zs, v), x, h),
            _fd_first(lambda v: graph(gp.G_u, zu, v), x, h),
        )
        worst = max(worst, *(vec_sup_norm(v) for v in values))
    return worst


def _corner_points(f: MapSpec, rho: float, n_x: int = 5, seed: int = 3) -> list:
    # corners of the sup-norm ball at a handful of base points
    xs = _scale_manifold(_unit_samples(f.dims.m, n_x, seed), f.x_ranges())
    sign_sets_s = [np.array(bits, dtype=float) * 2.0 - 1.0 for bits in np.ndindex(*(2,) * f.dims.n_s)]
    sign_sets_u = [np.array(bits, dtype=float) * 2.0 - 1.0 for bits in np.ndindex(*(2,) * f.dims.n_u)]
    corners = []
    for x in xs:
        for ss in sign_sets_s:
            for su in sign_sets_u:
                corners.append(ChartPoint(s=rho * ss, u=rho * su, x=x, topology=f.topo))
    return corners


def _inverse_reaches(gp: GraphPair, f: MapSpec, rho_try: float) -> bool:
    """True when the inverse iteration lands every corner of B_rho_try inside B_rho."""
    for q in _corner_points(f, rho_try):
        try:
            p = straighten_inverse(gp, q, tol=1e-12, max_iter=200)
        except DivergenceError:
            return False
        if not p.in_ball(f.rho):
            return False
    return True


def conjugated_radius(f: MapSpec, gp: GraphPair, bisect_steps: int = 30) -> float:
    """Largest ball radius (up to bisection resolution) on which Phi inverts cleanly."""
    if _inverse_reaches(gp, f, f.rho):
        return f.rho
    lo, hi = 0.0, f.rho
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _inverse_reaches(gp, f, mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise DivergenceError("straightening inverse fails on every probed ball radius")
    return lo


def _conjugated(f: MapSpec, gp: GraphPair, radius: Optional[float], forward: bool) -> MapSpec:
    """Phi o f o Phi^{-1} (forward) or Phi^{-1} o f o Phi as a new map spec.

    Only the remainder changes, computed by subtraction from the image; the
    analytic remainder derivatives are dropped.
    """

    def r_map(s, u, x):
        z = ChartPoint(s=np.atleast_1d(s), u=np.atleast_1d(u), x=np.atleast_1d(x), topology=f.topo)
        if forward:
            w = straighten_point(gp, apply_map(f, straighten_inverse(gp, z, tol=1e-13, max_iter=200)))
        else:
            w = straighten_inverse(gp, apply_map(f, straighten_point(gp, z)), tol=1e-13, max_iter=200)
        r_s = w.s - f.A_s(z.x) @ z.s
        r_u = w.u - f.A_u(z.x) @ z.u
        r_x = _signed_x_diff(f.topo, w.x, f.g_map(z.x))
        return (r_s, r_u, r_x)

    return dataclasses.replace(
        f,
        rho=conjugated_radius(f, gp) if radius is None else float(radius),
        r_map=r_map,
        d_r=None,
        d2_r=None,
        name=f"{f.name}_{'straightened' if forward else 'unstraightened'}",
    )


def conjugate_map(f: MapSpec, gp: GraphPair, radius: Optional[float] = None) -> MapSpec:
    """Wrap Phi o f o Phi^{-1} as a new map spec on a possibly smaller ball.

    The linear data (normal blocks, base map) is unchanged; only the
    remainder differs, and it is evaluated pointwise so no analytic
    derivatives are carried over.  The new ball radius is found by bisection
    on corner samples unless the caller supplies one.
    """
    return _conjugated(f, gp, radius, forward=True)


def unstraighten_map(f: MapSpec, gp: GraphPair, radius: Optional[float] = None) -> MapSpec:
    """Wrap Phi^{-1} o f o Phi: gives a map whose invariant sets are the curved graphs.

    Useful for building test inputs with known stable/unstable geometry;
    ``conjugate_map`` with the same pair undoes it.
    """
    return _conjugated(f, gp, radius, forward=False)
