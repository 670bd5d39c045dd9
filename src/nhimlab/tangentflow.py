"""Orbit propagation with tangent frames, inclinations, and closed-form bounds.

A jet is a base point plus a frame of tangent vectors pushed forward by the
block Jacobian.  One private array step advances many jets at once (a mesh
run calls it once per iterate over its alive nodes, a lone jet is its
one-row case); a step where no row escapes pushes the rows as given, with
no gather or scatter.  Every callable of the map is read in the one
stacked contract (``normalform._Stacked``), once per step over all rows:
a plain callable, wrapped once when its ``MapSpec`` is built, runs once
per row.  Frames are renormalized to unit sup norm after every step (inclinations are
scale-free, and the unstable part would otherwise overflow); the stretch
factor is read off the unnormalized push.  The closed-form decay
bounds live here too so experiments can compare measured inclinations
against them term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import (
    ContractError,
    DegenerateVectorError,
    EscapeError,
    ModelInconsistencyError,
)
from .geometry import ChartPoint, Dimensions, TangentVector, _count, _wrap_angles, vec_sup_norm
from .normalform import FD_STEP_FIRST, BoundSet, MapSpec, _check_ball, _images, _in_row_order, _jacobians


@dataclass(frozen=True)
class JetState:
    """Base point, tangent frame, iterate index."""

    p: ChartPoint
    frame: tuple
    n: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "frame", tuple(self.frame))
        if not self.frame:
            raise ContractError("frame must contain at least one tangent vector")


@dataclass(frozen=True)
class InclinationRecord:
    """Per-step diagnostics.

    I_s and I_x are sups over the frame of |v_s|/|v_u| and |v_x|/|v_u|
    (vectors with v_u = 0 are skipped; inf when none qualifies); stretch is
    the min over the frame of the unnormalized |v_u| growth during the step.
    """

    n: int
    I_s: float
    I_x: float
    stretch: float
    s_norm: float
    u_norm: float


def _unit_rows(F: np.ndarray) -> np.ndarray:
    """F with every row (last axis) rescaled to unit sup norm."""
    norms = np.abs(F).max(axis=-1, keepdims=True)
    if not norms.all():
        raise DegenerateVectorError("cannot normalize a zero tangent vector")
    return F * (1.0 / norms)


def unit_frame(vectors: Sequence[TangentVector]) -> tuple:
    """Rescale each vector to unit sup norm."""
    return tuple(
        TangentVector(*np.split(_unit_rows(v.as_array()), [v.v_s.size, v.v_s.size + v.v_u.size]))
        for v in vectors
    )


def _block_norms(dims: Dimensions, F: np.ndarray) -> tuple:
    """Sup norms (|v_s|, |v_u|, |v_x|) of every row (last axis) of F."""
    a = np.abs(F)
    su = dims.n_s + dims.n_u
    return a[..., : dims.n_s].max(axis=-1), a[..., dims.n_s : su].max(axis=-1), a[..., su:].max(axis=-1)


def _inclinations(dims: Dimensions, F: np.ndarray) -> tuple:
    """Per-row (|v_s|/|v_u|, |v_x|/|v_u|) of the frame rows F and the mask of
    rows with v_u != 0; rows without an unstable part get inf."""
    ns, nu, nx = _block_norms(dims, F)
    has_u = nu > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(has_u, ns / nu, math.inf), np.where(has_u, nx / nu, math.inf), has_u


def _frame_inclinations(dims: Dimensions, F: np.ndarray) -> tuple:
    """(I_s, I_x) of every frame of the stack F (... x k x n): sups over its rows
    with v_u != 0, inf for a frame with none; a NaN in such a row is kept."""
    inc_s, inc_x, has_u = _inclinations(dims, F)
    counted = has_u.any(axis=-1)
    return tuple(np.where(counted, np.where(has_u, inc, -math.inf).max(axis=-1), math.inf) for inc in (inc_s, inc_x))


def _step(f: MapSpec, Z: np.ndarray, F: np.ndarray, require_unstable: bool, restricted: bool) -> tuple:
    """One map step of the points Z = (s, u, x) (N x n) and their frames F (N x k x n).

    First the images of all rows (``normalform._images``), then the
    Jacobians of the rows still in the ball (``normalform._jacobians``),
    from the live rows of the images' evaluation.  Each callable is read
    once over the rows through ``.rows``, so a plain callable, wrapped once
    at construction, runs once per row; when r_map and d_r are parts of one
    evaluation (a conjugated map), all rows are evaluated as one stack.
    A stack that raises is read again row by row, so the error is the
    first row's.
    Returns (images, pushed unit-row frames, the live rows' unnormalized
    pushes, escaped mask, image normal norms); an escaped row keeps its input
    state.  When no row escapes, every row is live and Z and F are read as
    given, with no row gathered or scattered back.  The unstable stretch of
    a frame is read off those pushes by
    ``_jet_step`` alone, so a mesh step takes no frame norms before its push
    unless ``require_unstable`` asks for them.  ``restricted``
    keeps the images on {u = 0} (drift above 1e-12 is model inconsistency,
    the rest snaps to 0) and zeroes the Jacobians' unstable-row couplings,
    which vanish analytically there.
    """
    dims = f.dims
    a, b = dims.n_s, dims.n_s + dims.n_u  # the u block is a:b, the x block b:
    _check_ball(f, Z[:, :a], Z[:, a:b])
    Q, points = _images(f, Z)
    if restricted:
        drift = np.abs(Q[:, a:b]).max(axis=1)
        leaks = drift[drift > 1e-12]
        if leaks.size:
            raise ModelInconsistencyError(f"stable slice is not invariant: |u| = {leaks[0]:.3g} after one step")
        Q[:, a:b] = 0.0
    _wrap_angles(Q[:, b:], f.topo.is_angle)
    q_norms = np.abs(Q[:, :b]).max(axis=1)
    escaped = ~(q_norms < f.rho)
    some_escaped = escaped.any()
    Z_live, F_live = Z, F
    if some_escaped:  # only the rows still in the ball take a Jacobian
        live = np.flatnonzero(~escaped)
        Z_live, F_live, points = Z[live], F[live], points.take(live)
    J = _in_row_order(lambda rows: _jacobians(f, Z_live[rows], FD_STEP_FIRST, points.take(rows)), len(Z_live))
    if restricted:
        J[:, a:b, :a] = 0.0
        J[:, a:b, b:] = 0.0
    if require_unstable and not _block_norms(dims, F_live)[1].all():
        raise DegenerateVectorError("frame vector has zero unstable component")
    # one gemv per frame row, the routine of jac @ v; F @ J.T or einsum rounds differently
    W = np.matmul(J[:, None], F_live[..., None])[..., 0]
    scale = np.abs(W).max(axis=-1, keepdims=True)
    if not scale.all():
        raise DegenerateVectorError("frame vector annihilated by the Jacobian")
    if not some_escaped:
        return Q, W / scale, W, escaped, q_norms
    Q[escaped] = Z[escaped]
    frames = F.copy()
    frames[live] = W / scale
    return Q, frames, W, escaped, q_norms


def _jet_step(f: MapSpec, j: JetState, require_unstable: bool, restricted: bool) -> tuple:
    """``_step`` on one JetState, returning (JetState, InclinationRecord); the
    stretch is the least |v_u| growth of the frame, from its unnormalized push."""
    dims = f.dims
    frame = np.array([v.as_array() for v in j.frame])[None]
    Q, F, W, escaped, q_norms = _step(f, j.p.as_array()[None], frame, require_unstable, restricted)
    n = j.n + 1
    if escaped[0]:
        raise EscapeError(f"orbit left the rho={f.rho} ball at iterate {n} (normal norm {q_norms[0]:.6g})", j)
    nu, nu_w = _block_norms(dims, frame)[1], _block_norms(dims, W)[1]
    stretch = float(np.divide(nu_w, nu, out=np.full_like(nu, math.inf), where=nu > 0.0).min())
    inc_s, inc_x = (float(I[0]) for I in _frame_inclinations(dims, F))
    (s, u, x), F = dims.split(Q[0]), F[0]
    nxt = JetState(ChartPoint(s, u, x, f.topo), tuple(TangentVector(*dims.split(w)) for w in F), n)
    return nxt, InclinationRecord(n, inc_s, inc_x, stretch, float(np.abs(s).max()), float(np.abs(u).max()))


def step_jet(f: MapSpec, j: JetState, require_unstable: bool = True) -> tuple:
    """One map step of the point and its frame.

    Returns (JetState, InclinationRecord).  Raises EscapeError carrying the
    surviving state when the image leaves the ball; with require_unstable,
    any frame vector with zero unstable part raises DegenerateVectorError
    before its push.
    """
    return _jet_step(f, j, require_unstable, restricted=False)


def stable_restricted_step(f: MapSpec, j: JetState) -> tuple:
    """step_jet specialized to the straightened stable set {u = 0}.

    Uses the reduced Jacobian in which the unstable row couples to nothing
    but itself (the structural conditions force those blocks to vanish on
    {u = 0}).  The image must stay on the slice: a u-component above 1e-12
    means the map violates its own invariance condition, which is reported
    as model inconsistency, and the remaining dust is snapped to exactly 0.
    """
    if vec_sup_norm(j.p.u) != 0.0:
        raise ContractError("stable_restricted_step needs a base point with u = 0 exactly")
    return _jet_step(f, j, require_unstable=False, restricted=True)


class InclinationBounds(NamedTuple):
    bound_x: float
    bound_s: float
    pre_asymptotic: bool


def theoretical_inclination_bounds(
    b: BoundSet, n: int, I0_x: float, I0_s: float, s0: float
) -> InclinationBounds:
    """Closed-form decay bounds for orbits on the straightened stable set.

        bound_x = (k/(1/lam - k))^n I0_x + C s0 n (lam+k)^(n-1)
        bound_s = ((lam+k)/(1/lam - k))^n I0_s + (lam+k)^(n-2) n (C s0 + I0_x)

    The stable bound's derivation assumes n >= 2; below that we return I0_s
    unchanged and flag the record pre-asymptotic rather than evaluate a
    negative power.  Both bounds are pure arithmetic in I0_x, I0_s and s0:
    arrays of them give one bound per element, with the bits of one call each.
    """
    if not b.lk1_ok:
        raise ContractError(f"need lam + k < 1, got {b.lam + b.k}")
    n = _count(n, "n")
    gap = b.gap
    lk = b.lam + b.k
    bound_x = (b.k / gap) ** n * I0_x + b.C * s0 * n * (lk ** (n - 1) if n >= 1 else 0.0)
    if n < 2:
        return InclinationBounds(bound_x=bound_x, bound_s=I0_s, pre_asymptotic=True)
    bound_s = (lk / gap) ** n * I0_s + lk ** (n - 2) * n * (b.C * s0 + I0_x)
    return InclinationBounds(bound_x=bound_x, bound_s=bound_s, pre_asymptotic=False)


def sn_contraction_bound(b: BoundSet, n: int, s0: float) -> float:
    """Stable-component decay bound (lam+k)^n * s0; an array of s0 gives one bound per element."""
    return (b.lam + b.k) ** n * s0


class StretchBound(NamedTuple):
    refined: float
    floor: float


def stretch_lower_bound(b: BoundSet, eps: float) -> StretchBound:
    """Per-step growth floor for the unstable part of an eps-inclined vector.

    refined = 1/lam - k - k*eps - (k + C*rho)*eps; floor = 1/lam - 2k is the
    coarser constant that already certifies expansion when 1/lam - 2k > 1.
    """
    refined = 1.0 / b.lam - b.k - b.k * eps - (b.k + b.C * b.rho) * eps
    return StretchBound(refined=refined, floor=1.0 / b.lam - 2.0 * b.k)
