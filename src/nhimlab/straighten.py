"""Straightening change of variables built from invariant-manifold graphs.

Near the invariant manifold the local stable set is a graph u = G_s(s, x) and
the local unstable set a graph s = G_u(u, x), both tangent to the flat model
slices.  The coordinate change

    Phi(s, u, x) = (s - G_u(u, x), u - G_s(s, x), x)

flattens them onto {s = 0} and {u = 0}.  Phi is inverted by fixed-point
iteration (its derivative is the identity on the manifold, so the iteration
contracts on a sub-ball), and a map can be conjugated through Phi to produce
a new map spec with straightened invariant sets.  One array core on stacks
of rows, ``_phi``, ``_inverse``, ``_dphi`` and ``_d2phi``, does the work: it
reads the graphs in the library's one stacked contract, so a plain graph,
wrapped once when its ``GraphPair`` is built, runs once per row and per
sweep or probe, and everything around the graphs once per stack.  The
public functions wrap the core for ``ChartPoint``s as one-row stacks, the
conjugated map evaluates whole stacks, and the radius bisection solves one
probe at a time.  A one-row stack sweeps on Python floats, and reads a plain
graph as one point: one call on float vectors, with no stack built around
it.  The conjugated map carries derivatives: its
Jacobian is the chain rule through DPhi (the identity minus central
differences of the closed-form graphs), and its second derivatives are the
second-order chain rule through D^2 Phi (minus central second differences
of the graphs) and f's own second derivatives.  The remainders and both
derivatives at a stack of rows come from one evaluation, which solves each
row's inverse once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._fd import _fd_first_rows, _fd_second_rows
from .exceptions import DivergenceError
from .geometry import TWO_PI, ChartPoint, ChartTopology, _count, _max_keep_nan, _normal_norm, _positive, _wrap_angles, vec_sup_norm
from .normalform import (
    FD_STEP_FIRST,
    FD_STEP_SECOND,
    MapSpec,
    _check_ball,
    _evaluator,
    _fit,
    _image_blocks,
    _jacobians,
    _linear_blocks,
    _linear_part,
    _linear_second,
    _scale_manifold,
    _stacked,
    _Stacked,
    _unit_samples,
)


def _signed_x_diff(topo: ChartTopology, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-coordinate a - b, wrapped to (-pi, pi] on angle coordinates, for a vector or each row of a stack."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mask = topo.is_angle
    d[..., mask] = -((-d[..., mask] + np.pi) % TWO_PI - np.pi)
    return d


@dataclass(frozen=True)
class GraphPair:
    """Graphs of the local stable set (u over (s, x)) and unstable set (s over (u, x)).

    Both graphs must vanish at the zero section together with their first
    derivatives; ``tangency_violation`` measures how badly a candidate pair
    fails that.  Construction wraps each plain graph once in the per-row
    adapter of ``normalform._stacked``, its width read off its values, so a
    graph runs once per row and once per one-point read; each read is fitted
    to the block it meets (``normalform._fit``).
    """

    G_s: Callable[[np.ndarray, np.ndarray], np.ndarray]
    G_u: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "G_s", _stacked(self.G_s, name="G_s"))
        object.__setattr__(self, "G_u", _stacked(self.G_u, name="G_u"))

    @classmethod
    def zero(cls, n_s: int, n_u: int) -> "GraphPair":
        return cls(G_s=_Stacked(lambda S, X: np.zeros((len(S), n_u))),
                   G_u=_Stacked(lambda U, X: np.zeros((len(U), n_s))))


def _graph(gp: GraphPair, name: str, Z: np.ndarray, X: np.ndarray, width: int) -> np.ndarray:
    """The graph ``name`` of gp ("G_s" or "G_u") at the rows (Z, X), fitted to an (N, width) stack
    (``_fit``).  A stack of no rows reads nothing, so it has the width of the block the graph meets
    even before a plain graph's adapter has read one."""
    if not len(Z):
        return np.empty((0, width))
    return _fit(name, getattr(gp, name).rows(Z, X), (width,), len(Z))


def _phi(gp: GraphPair, S: np.ndarray, U: np.ndarray, X: np.ndarray) -> tuple:
    """The (s, u) blocks of Phi at the rows (S, U, X), as two new stacks; x is left as it is."""
    return S - _graph(gp, "G_u", U, X, S.shape[1]), U - _graph(gp, "G_s", S, X, U.shape[1])


def _inverse(gp: GraphPair, Q_s: np.ndarray, Q_u: np.ndarray, X: np.ndarray, tol: float, max_iter: int) -> tuple:
    """The (s, u) blocks of Phi^{-1} at the rows (Q_s, Q_u, X), as two new stacks, by the sweeps of
    ``straighten_inverse``: G_u over the live rows, then G_s.  Each row sweeps until its own residual
    test passes and then leaves the stack, so it takes the sweeps and has the bits of a one-row
    stack.  The residual's two blocks are tested as one reduction, so a NaN in either never
    converges; when a row has not converged after ``max_iter`` sweeps, the error names the first
    such row.  A one-row stack sweeps on Python floats (``_inverse_row``)."""
    if len(Q_s) == 1:
        return _inverse_row(gp, Q_s, Q_u, X, tol, max_iter)
    a = Q_s.shape[1]
    out = np.empty((len(Q_s), a + Q_u.shape[1]))
    live = np.arange(len(Q_s))
    q, x = np.concatenate((Q_s, Q_u), axis=1), X  # the rows still sweeping, (s, u) joined

    def graphs(z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(G_u(u, x), G_s(s, x)) at the rows z = (s, u) joined, the update of s and then that of u."""
        return np.concatenate((_graph(gp, "G_u", z[:, a:], x, a), _graph(gp, "G_s", z[:, :a], x, Q_u.shape[1])), axis=1)

    g = graphs(q, x)  # the graph values of one sweep's residual are the next sweep's update
    for _ in range(max_iter):
        z = q + g
        g = graphs(z, x)
        residual = z - g
        residual -= q
        done = np.maximum.reduce(np.abs(residual, out=residual), axis=1) <= tol
        finished = np.count_nonzero(done)
        if finished == len(live):
            out[live] = z
            return out[:, :a], out[:, a:]
        if finished:
            out[live[done]] = z[done]
            keep = ~done
            live, q, x, g = live[keep], q[keep], x[keep], g[keep]
    raise _diverged(q[:1, :a], q[:1, a:], tol, max_iter)


def _inverse_row(gp: GraphPair, Q_s: np.ndarray, Q_u: np.ndarray, X: np.ndarray, tol: float, max_iter: int) -> tuple:
    """``_inverse`` of a one-row stack, as the radius bisection and a one-point read solve it: the
    same graph reads, additions, subtractions and residual test on Python floats, which round as
    numpy's do, so the row takes the same sweeps and has the same bits, without numpy's cost per
    call on a row this short.  Each graph value is a one-point read (``_Stacked.point``), so a plain
    graph runs once per sweep on float vectors, with no stack built around the point.  The first
    reads are fitted to their blocks (``_fit``): a graph's one-point reads keep the shape of its
    first value."""
    a, b = Q_s.shape[1], Q_u.shape[1]
    x, read_u, read_s = X[0], gp.G_u.point, gp.G_s.point
    g_u, g_s = _fit("G_u", read_u(Q_u[0], x), (a,)), _fit("G_s", read_s(Q_s[0], x), (b,))
    q, g = Q_s[0].tolist() + Q_u[0].tolist(), g_u.tolist() + g_s.tolist()  # g: the update of s, then of u
    for _ in range(max_iter):
        z = list(map(operator.add, q, g))
        z_su = np.array(z)
        g = read_u(z_su[a:], x).tolist() + read_s(z_su[:a], x).tolist()
        for z_i, g_i, q_i in zip(z, g, q):
            if not abs(z_i - g_i - q_i) <= tol:  # a NaN never passes
                break
        else:
            return np.array([z[:a]]), np.array([z[a:]])
    raise _diverged(Q_s, Q_u, tol, max_iter)


def _diverged(Q_s: np.ndarray, Q_u: np.ndarray, tol: float, max_iter: int) -> DivergenceError:
    return DivergenceError(
        f"straightening inverse did not reach tol={tol} in {max_iter} iterations "
        f"at |s|={np.abs(Q_s[0]).max():.3g}, |u|={np.abs(Q_u[0]).max():.3g}"
    )


def straighten_point(gp: GraphPair, p: ChartPoint) -> ChartPoint:
    """Apply Phi to a chart point."""
    S, U = _phi(gp, p.s[None], p.u[None], p.x[None])
    return ChartPoint(s=S[0], u=U[0], x=p.x, topology=p.topology)


def straighten_inverse(gp: GraphPair, q: ChartPoint, tol: float = 1e-12, max_iter: int = 100) -> ChartPoint:
    """Solve Phi(p) = q by the fixed-point iteration

        s <- q_s + G_u(u, x),   u <- q_u + G_s(s, x),

    which contracts near the manifold because the graph derivatives vanish
    there.  Raises DivergenceError when the residual fails to reach ``tol``
    within ``max_iter`` sweeps (the point is too far out for this pair).
    """
    S, U = _inverse(gp, q.s[None], q.u[None], q.x[None], _positive(tol, "tol"), _count(max_iter, "max_iter", 1))
    return ChartPoint(s=S[0], u=U[0], x=q.x, topology=q.topology)


def _graph_derivatives(gp: GraphPair, S: np.ndarray, U: np.ndarray, X: np.ndarray, h: float) -> tuple:
    """Central differences of the closed-form graphs at the rows (S, U, X), each an (N, out, in)
    stack: d_s G_s, d_u G_u, d_x G_s and d_x G_u."""
    a, b = S.shape[1], U.shape[1]
    d_gs = _fd_first_rows(lambda V: _graph(gp, "G_s", V[:, :a], V[:, a:], b), np.concatenate((S, X), axis=1), h)
    d_gu = _fd_first_rows(lambda V: _graph(gp, "G_u", V[:, :b], V[:, b:], a), np.concatenate((U, X), axis=1), h)
    return d_gs[..., :a], d_gu[..., :b], d_gs[..., a:], d_gu[..., b:]


def _dphi(gp: GraphPair, S: np.ndarray, U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """DPhi at the rows (S, U, X), an (N, n, n) stack: the identity minus the graph derivatives.
    Only the closed-form graphs are differenced, never the inverse."""
    ds_gs, du_gu, dx_gs, dx_gu = _graph_derivatives(gp, S, U, X, FD_STEP_FIRST)
    a, b = S.shape[1], S.shape[1] + U.shape[1]  # the u block is a:b, the x block b:
    d = np.repeat(np.eye(b + X.shape[1])[None], len(S), axis=0)
    d[:, :a, a:b] -= du_gu
    d[:, :a, b:] -= dx_gu
    d[:, a:b, :a] -= ds_gs
    d[:, a:b, b:] -= dx_gs
    return d


def _d2phi(gp: GraphPair, S: np.ndarray, U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """D^2 Phi at the rows (S, U, X), an (N, n, n, n) stack of T[i, j, k]: minus central second
    differences of the closed-form graphs, G_u over (u, x) in the s rows and G_s over (s, x) in the
    u rows; every other entry is zero."""
    a, b = S.shape[1], S.shape[1] + U.shape[1]  # the u block is a:b, the x block b:
    n = b + X.shape[1]
    d = np.zeros((len(S), n, n, n))
    d[:, :a, a:, a:] = -_fd_second_rows(lambda V: _graph(gp, "G_u", V[:, : b - a], V[:, b - a :], a),
                                        np.concatenate((U, X), axis=1), FD_STEP_SECOND)
    sx = np.r_[:a, b:n]
    d[:, a:b, sx[:, None], sx] = -_fd_second_rows(lambda V: _graph(gp, "G_s", V[:, :a], V[:, a:], b - a),
                                                  np.concatenate((S, X), axis=1), FD_STEP_SECOND)
    return d


def _pull(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The bilinear maps t (a stack of T[i, j, k]) with both arguments mapped by m first: t[m a, m b].
    Each row rounds as the one-point einsum "iab,aj,bk->ijk" does."""
    return np.einsum("niab,naj,nbk->nijk", t, m, m)


def _apply(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The matrices m (a stack) applied to the outputs of the bilinear maps t: m t[a, b].  Each row
    rounds as the one-point einsum "ia,ajk->ijk" does."""
    return np.einsum("nia,najk->nijk", m, t)


def tangency_violation(gp: GraphPair, f: MapSpec) -> float:
    """Sup over 16 sampled base points of the graph values and first derivatives at 0.

    Zero for an admissible pair; anything materially positive means the
    graphs are not tangent to the model slices and Phi will not straighten
    cleanly.
    """
    dims = f.dims
    X = _scale_manifold(_unit_samples(dims.m, 16, 0), f.x_ranges())
    S, U = np.zeros((len(X), dims.n_s)), np.zeros((len(X), dims.n_u))
    values = (
        _graph(gp, "G_s", S, X, dims.n_u),
        _graph(gp, "G_u", U, X, dims.n_s),
        *_graph_derivatives(gp, S, U, X, FD_STEP_FIRST),
    )
    return _max_keep_nan(0.0, *(vec_sup_norm(v) for v in values))


def conjugated_radius(f: MapSpec, gp: GraphPair) -> float:
    """Largest ball radius (up to 30 bisection steps) on which Phi inverts cleanly: the inverse
    iteration lands every corner of the ball, at a handful of base points, inside B_rho.  The first
    base point is the lower end of every x range (x = 0 on an angle), where the bound grid and the
    seeded meshes start; the others are quasi-random.  Each probe is solved on its own, and the
    first that fails ends the radius's test."""
    ranges = f.x_ranges()
    xs = _scale_manifold(_unit_samples(f.dims.m, 5, 3), ranges)
    xs[0] = [lo for lo, _ in ranges]
    xs = [f.topo.canonicalize(x)[None] for x in xs]
    signs_s = [np.array([bits], dtype=float) * 2.0 - 1.0 for bits in np.ndindex(*(2,) * f.dims.n_s)]
    signs_u = [np.array([bits], dtype=float) * 2.0 - 1.0 for bits in np.ndindex(*(2,) * f.dims.n_u)]
    probes = list(itertools.product(xs, signs_s, signs_u))

    def reaches(radius: float) -> bool:
        for x, ss, su in probes:
            try:
                s, u = _inverse(gp, radius * ss, radius * su, x, tol=1e-12, max_iter=200)
            except DivergenceError:
                return False
            if not _normal_norm(s[0], u[0]) < f.rho:
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

    Only the remainder and its derivatives change, and all three read parts of
    one evaluation per stack of rows, which runs the first map, f and the
    last map once over the stack (the graphs once per row and sweep) and
    keeps what the derivatives need; a one-point read is a one-row stack.
    A stack's stages run in turn over all its rows: the first map, the ball
    check, f's evaluation, the image and the last map.  The callers read a
    failing stack again row by row (``normalform._in_row_order``), so the
    error is the first row's, as one point at a time raised it.  The
    remainder is the image
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
    linear part, symmetrized, each contraction one einsum over the stack.
    D2f is f's own remainder tensor plus its
    linear part's, so a wrapped conjugated map chains through both layers
    here too.  Nothing is differenced across the inverse, so the tensor
    needs no probe outside the ball.
    """
    inverse = functools.partial(_inverse, tol=1e-13, max_iter=200)
    first, last = (inverse, _phi) if forward else (_phi, inverse)
    evaluate_f = _evaluator(f, "r_map", "d_r", "d2_r")
    dims, is_angle = f.dims, f.topo.is_angle

    class Points:
        """One evaluation at the rows (S, U, X): the arguments p, their images z under ``first``,
        f's evaluation at z and the images w, w's images v under ``last``, and the remainders
        ``r``.  x is wrapped where new rows enter: the arguments and w.  ``take`` keeps a subset
        of the rows without evaluating anything again."""

        def __init__(self, S, U, X):
            X = _wrap_angles(np.array(X, dtype=float), is_angle)
            self.p = S, U, X = np.asarray(S, dtype=float), np.asarray(U, dtype=float), X
            self.z = Z_s, Z_u = first(gp, S, U, X)
            _check_ball(f, Z_s, Z_u)
            self.f_at_z = evaluate_f(Z_s, Z_u, X)
            W_s, W_u, W_x = _image_blocks(f, Z_s, Z_u, X, self.f_at_z.r)
            self.w = W_s, W_u, _wrap_angles(W_x, is_angle)
            self.v = V_s, V_u = last(gp, *self.w)
            A_s, A_u, g = _linear_part(f, S, U, X)
            self.r = (V_s - A_s, V_u - A_u, _signed_x_diff(f.topo, W_x, g))

        def take(self, rows) -> "Points":
            out = object.__new__(Points)
            for name in ("p", "z", "w", "v", "r"):
                setattr(out, name, tuple(block[rows] for block in getattr(self, name)))
            out.f_at_z = self.f_at_z.take(rows)
            return out

        @functools.cached_property
        def chain(self):
            """f's block Jacobians at z, then DPhi at the outer and the inner points of the chain
            rule: w and z (forward), v and p (backward)."""
            (S, U, X), (Z_s, Z_u) = self.p, self.z
            df = _jacobians(f, np.concatenate((Z_s, Z_u, X), axis=1), FD_STEP_FIRST, self.f_at_z)
            if forward:
                return df, _dphi(gp, *self.w), _dphi(gp, Z_s, Z_u, X)
            return df, _dphi(gp, *self.v, self.w[2]), _dphi(gp, S, U, X)

        def full_jacobian(self):
            df, outer, inner = self.chain
            if forward:  # DPhi(w) Df(z) DPhi(z)^-1, the right factor by a solve on the transposes
                return np.matmul(outer, np.linalg.solve(inner.swapaxes(1, 2), df.swapaxes(1, 2)).swapaxes(1, 2))
            return np.linalg.solve(outer, np.matmul(df, inner))  # DPhi(v)^-1 Df(z) DPhi(p)

        def jacobian(self):
            jac = self.full_jacobian()
            for rows, cols, block in _linear_blocks(f, np.concatenate(self.p, axis=1), FD_STEP_FIRST):
                jac[:, rows, cols] -= block
            return jac

        def second(self):
            df, outer, inner = self.chain
            n, (S, U, X) = dims.n, self.p
            d2f = self.f_at_z.second() + _linear_second(f, *self.z, X)  # D2f(z), the linear part's included
            if forward:
                # D2Phi(w)[M., M.] + DPhi(w) (D2f(z)[P., P.] - M D2Phi(z)[P., P.]), P = DPhi(z)^-1, M = Df(z) P
                p_inv = np.linalg.inv(inner)
                m = np.matmul(df, p_inv)
                t = _pull(d2f, p_inv) - _apply(m, _pull(_d2phi(gp, *self.z, X), p_inv))
                t = _pull(_d2phi(gp, *self.w), m) + _apply(outer, t)
            else:
                # DPhi(v)^-1 (D2f(z)[E., E.] + Df(z) D2Phi(p) - D2Phi(v)[J., J.]), E = DPhi(p), J = the full Jacobian
                t = _pull(d2f, inner) + _apply(df, _d2phi(gp, S, U, X))
                t -= _pull(_d2phi(gp, *self.v, self.w[2]), self.full_jacobian())
                t = np.linalg.solve(outer, t.reshape(len(t), n, n * n)).reshape(t.shape)
            t -= _linear_second(f, S, U, X)
            return 0.5 * (t + t.transpose(0, 1, 3, 2))

    return dataclasses.replace(
        f,
        rho=conjugated_radius(f, gp) if radius is None else radius,
        r_map=_Stacked(lambda S, U, X: Points(S, U, X).r, Points),
        d_r=_Stacked(lambda S, U, X: Points(S, U, X).jacobian(), Points),
        d2_r=_Stacked(lambda S, U, X: Points(S, U, X).second(), Points),
        name=f"{f.name}_{'straightened' if forward else 'unstraightened'}",
    )


def conjugate_map(f: MapSpec, gp: GraphPair, radius: Optional[float] = None) -> MapSpec:
    """Wrap Phi o f o Phi^{-1} as a new map spec on a possibly smaller ball.

    The linear data (normal blocks, base map) is unchanged; only the
    remainder differs.  It is evaluated on whole stacks of rows, and its
    Jacobian is the chain rule through DPhi and f's own Jacobian rather than
    a finite difference across the inverse.  The new ball radius is found by bisection
    on corner samples unless the caller supplies one.
    """
    return _conjugated(f, gp, radius, forward=True)


def unstraighten_map(f: MapSpec, gp: GraphPair, radius: Optional[float] = None) -> MapSpec:
    """Wrap Phi^{-1} o f o Phi: gives a map whose invariant sets are the curved graphs.

    Useful for building test inputs with known stable/unstable geometry;
    ``conjugate_map`` with the same pair undoes it.
    """
    return _conjugated(f, gp, radius, forward=False)
