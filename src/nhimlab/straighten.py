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
its second derivatives are the second-order chain rule through D^2 Phi
(minus central second differences of the graphs) and f's own second
derivatives.  The remainder and both derivatives at a point come from one
evaluation, which solves each inverse once.
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
    FD_STEP_SECOND,
    MapSpec,
    _check_ball,
    _evaluator,
    _fd_first,
    _fd_second,
    _image,
    _jacobians,
    _linear_blocks,
    _linear_second,
    _scale_manifold,
    _unit_samples,
    _View,
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
    if not tol > 0:  # a NaN tolerance fails this too
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


def _d2phi(gp: GraphPair, s: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """D^2 Phi at (s, u, x) as T[i, j, k]: minus central second differences of the closed-form graphs,
    G_u over (u, x) in the s rows and G_s over (s, x) in the u rows; every other entry is zero."""
    a, b = s.size, s.size + u.size  # the u block is a:b, the x block b:
    n = b + x.size
    d = np.zeros((n, n, n))
    d[:a, a:, a:] = -_fd_second(lambda v: _graph(gp.G_u, v[: u.size], v[u.size :]), np.concatenate((u, x)),
                                FD_STEP_SECOND)
    sx = np.r_[:a, b:n]
    d[np.ix_(np.arange(a, b), sx, sx)] = -_fd_second(lambda v: _graph(gp.G_s, v[:a], v[a:]), np.concatenate((s, x)),
                                                     FD_STEP_SECOND)
    return d


def _pull(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The bilinear map t (T[i, j, k]) with both arguments mapped by m first: t[m a, m b]."""
    return np.einsum("iab,aj,bk->ijk", t, m, m)


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

    Only the remainder and its derivatives change, and all three are views of
    one evaluation per point, which runs the first map, f and the last map
    once and keeps what the derivatives need.  The remainder is the image
    less the linear part.  Its Jacobian is the chain rule through DPhi, taken
    at the points on f's side of the conjugacy: at z = Phi^{-1}(w),
    D(Phi o f o Phi^{-1})(w) = DPhi(f(z)) Df(z) DPhi(z)^{-1}, and
    D(Phi^{-1} o f o Phi)(y) = DPhi(F(y))^{-1} Df(Phi(y)) DPhi(y), less the
    linear part.  Df is f's own block Jacobian, from the same evaluation of f
    that gave f's image, so a wrapped conjugated map chains through both
    layers and solves its inverse once.  The second derivatives are the
    second-order chain rule: with Psi = Phi^{-1}, P = DPsi(p) and M = Df(z) P,

        D2(Phi o f o Psi)[a, b] = D2Phi(w)[M a, M b] + DPhi(w) (D2f(z)[P a, P b] + Df(z) D2Psi(p)[a, b]),
        D2Psi(p)[a, b] = -P D2Phi(z)[P a, P b],

    and its mirror for Psi o f o Phi, less the second derivatives of the
    linear part, symmetrized.  D2f is f's own remainder tensor plus its
    linear part's, so a wrapped conjugated map chains through both layers
    here too.  Nothing is differenced across the inverse, so the tensor
    needs no probe outside the ball.
    """
    inverse = functools.partial(_inverse, tol=1e-13, max_iter=200)
    first, last = (inverse, _phi) if forward else (_phi, inverse)
    evaluate_f = _evaluator(f, "r_map", "d_r", "d2_r")

    class Point:
        """One evaluation at (s, u, x): the argument p, its image z under ``first``, f's evaluation
        at z and its image w, w's image v under ``last``, and the remainder ``r``.  x is wrapped
        where a new point enters: the argument and w."""

        def __init__(self, s, u, x):
            self.p = s, u, x = _as_float_vector(s), _as_float_vector(u), f.topo.canonicalize(x)
            self.z = z_s, z_u = first(gp, s, u, x)
            _check_ball(f, z_s, z_u)
            self.f_at_z = evaluate_f(z_s, z_u, x)
            w_s, w_u, w_x = _image(f, z_s, z_u, x, self.f_at_z.r)
            w_x = f.topo.canonicalize(w_x)
            self.w = w_s, w_u, w_x
            self.v = v_s, v_u = last(gp, w_s, w_u, w_x)
            self.r = (v_s - f.A_s(x) @ s, v_u - f.A_u(x) @ u, _signed_x_diff(f.topo, w_x, f.g_map(x)))

        @functools.cached_property
        def chain(self):
            """f's block Jacobian at z, then DPhi at the outer and the inner point of the chain rule:
            w and z (forward), v and p (backward)."""
            (s, u, x), (z_s, z_u) = self.p, self.z
            df = _jacobians(f, np.concatenate((z_s, z_u, x))[None], FD_STEP_FIRST, [self.f_at_z])[0]
            if forward:
                return df, _dphi(gp, *self.w), _dphi(gp, z_s, z_u, x)
            return df, _dphi(gp, *self.v, self.w[2]), _dphi(gp, s, u, x)

        def full_jacobian(self):
            df, outer, inner = self.chain
            if forward:  # DPhi(w) Df(z) DPhi(z)^-1, the right factor by a solve on the transposes
                return outer @ np.linalg.solve(inner.T, df.T).T
            return np.linalg.solve(outer, df @ inner)  # DPhi(v)^-1 Df(z) DPhi(p)

        def jacobian(self):
            jac = self.full_jacobian()
            for rows, cols, block in _linear_blocks(f, np.concatenate(self.p)[None], FD_STEP_FIRST):
                jac[rows, cols] -= block[0]
            return jac

        def second(self):
            df, outer, inner = self.chain
            n, x = f.dims.n, self.p[2]
            d2f = self.f_at_z.second() + _linear_second(f, *self.z, x)  # D2f(z), the linear part's included
            if forward:
                # D2Phi(w)[M., M.] + DPhi(w) (D2f(z)[P., P.] - M D2Phi(z)[P., P.]), P = DPhi(z)^-1, M = Df(z) P
                p_inv = np.linalg.inv(inner)
                m = df @ p_inv
                t = _pull(d2f, p_inv) - np.einsum("ia,ajk->ijk", m, _pull(_d2phi(gp, *self.z, x), p_inv))
                t = _pull(_d2phi(gp, *self.w), m) + np.einsum("ia,ajk->ijk", outer, t)
            else:
                # DPhi(v)^-1 (D2f(z)[E., E.] + Df(z) D2Phi(p) - D2Phi(v)[J., J.]), E = DPhi(p), J = the full Jacobian
                t = _pull(d2f, inner) + np.einsum("ia,ajk->ijk", df, _d2phi(gp, *self.p))
                t -= _pull(_d2phi(gp, *self.v, self.w[2]), self.full_jacobian())
                t = np.linalg.solve(outer, t.reshape(n, n * n)).reshape(n, n, n)
            t -= _linear_second(f, *self.p)
            return 0.5 * (t + t.transpose(0, 2, 1))

    return dataclasses.replace(
        f,
        rho=conjugated_radius(f, gp) if radius is None else float(radius),
        r_map=_View(Point, "r"),
        d_r=_View(Point, "jacobian"),
        d2_r=_View(Point, "second"),
        name=f"{f.name}_{'straightened' if forward else 'unstraightened'}",
    )


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
