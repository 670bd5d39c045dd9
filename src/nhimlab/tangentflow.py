"""Orbit propagation with tangent frames, inclinations, and closed-form bounds.

A jet is a base point plus a frame of tangent vectors pushed forward by the
block Jacobian.  Frames are renormalized to unit sup norm after every step
(inclinations are scale-free, and the unstable part would otherwise overflow
within a few dozen iterates); the stretch factor is recorded before the
renormalization.  The closed-form decay bounds live here too so experiments
can compare measured inclinations against them term by term.
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
from .geometry import ChartPoint, TangentVector, vec_sup_norm
from .normalform import BoundSet, MapSpec, apply_map, jacobian


@dataclass(frozen=True)
class JetState:
    """Base point, tangent frame, iterate index."""

    p: ChartPoint
    frame: tuple
    n: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ContractError(f"iterate index must be nonnegative, got {self.n}")
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


def unit_frame(vectors: Sequence[TangentVector]) -> tuple:
    """Rescale each vector to unit sup norm."""
    out = []
    for v in vectors:
        norm = v.sup_norm()
        if norm == 0.0:
            raise DegenerateVectorError("cannot normalize a zero tangent vector")
        out.append(v.scaled(1.0 / norm))
    return tuple(out)


def _frame_inclinations(frame: Sequence[TangentVector]) -> tuple:
    inc_s = -math.inf
    inc_x = -math.inf
    for v in frame:
        ns, nu, nx = v.block_norms()
        if nu == 0.0:
            continue
        inc_s = max(inc_s, ns / nu)
        inc_x = max(inc_x, nx / nu)
    if inc_s == -math.inf:
        return math.inf, math.inf
    return inc_s, inc_x


def _push_frame(jac: np.ndarray, f: MapSpec, frame, require_unstable: bool) -> tuple:
    new_frame = []
    stretch = math.inf
    for v in frame:
        _, nu, _ = v.block_norms()
        if nu == 0.0 and require_unstable:
            raise DegenerateVectorError("frame vector has zero unstable component")
        w = jac @ v.as_array()
        w_s, w_u, w_x = f.dims.split(w)
        if nu > 0.0:
            stretch = min(stretch, vec_sup_norm(w_u) / nu)
        scale = max(abs(w).max(), 0.0)
        if scale == 0.0:
            raise DegenerateVectorError("frame vector annihilated by the Jacobian")
        new_frame.append(TangentVector(v_s=w_s / scale, v_u=w_u / scale, v_x=w_x / scale))
    return tuple(new_frame), stretch


def _step(f: MapSpec, j: JetState, q: ChartPoint, require_unstable: bool, restricted: bool) -> tuple:
    """Shared tail of one jet step to the image point q: escape check,
    Jacobian (unstable-row couplings zeroed when ``restricted``), frame
    push, and the step's record."""
    if not q.in_ball(f.rho):
        raise EscapeError(
            f"orbit left the rho={f.rho} ball at iterate {j.n + 1} "
            f"(normal norm {q.normal_norm:.6g})",
            survivor=j,
        )
    jac = jacobian(f, j.p)
    if restricted:
        # zero the unstable-row couplings; they vanish analytically on {u = 0}
        dims = f.dims
        jac[dims.n_s : dims.n_s + dims.n_u, : dims.n_s] = 0.0
        jac[dims.n_s : dims.n_s + dims.n_u, dims.n_s + dims.n_u :] = 0.0
    new_frame, stretch = _push_frame(jac, f, j.frame, require_unstable)
    inc_s, inc_x = _frame_inclinations(new_frame)
    nxt = JetState(p=q, frame=new_frame, n=j.n + 1)
    rec = InclinationRecord(
        n=nxt.n,
        I_s=inc_s,
        I_x=inc_x,
        stretch=stretch,
        s_norm=vec_sup_norm(q.s),
        u_norm=vec_sup_norm(q.u),
    )
    return nxt, rec


def step_jet(f: MapSpec, j: JetState, require_unstable: bool = True) -> tuple:
    """One map step of the point and its frame.

    Returns (JetState, InclinationRecord).  Raises EscapeError carrying the
    surviving state when the image leaves the ball; with require_unstable,
    any frame vector with zero unstable part raises DegenerateVectorError
    before stepping.
    """
    return _step(f, j, apply_map(f, j.p), require_unstable, restricted=False)


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
    q = apply_map(f, j.p)
    drift = vec_sup_norm(q.u)
    if drift > 1e-12:
        raise ModelInconsistencyError(
            f"stable slice is not invariant: |u| = {drift:.3g} after one step"
        )
    q = ChartPoint(s=q.s, u=np.zeros_like(q.u), x=q.x, topology=q.topology)
    return _step(f, j, q, require_unstable=False, restricted=True)


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
    negative power.
    """
    if not b.lk1_ok:
        raise ContractError(f"need lam + k < 1, got {b.lam + b.k}")
    if not b.lk2_ok:
        raise ContractError(f"need 1/lam - k > 1, got {b.gap}")
    if n < 0:
        raise ContractError(f"iterate must be nonnegative, got {n}")
    gap = b.gap
    lk = b.lam + b.k
    bound_x = (b.k / gap) ** n * I0_x + b.C * s0 * n * (lk ** (n - 1) if n >= 1 else 0.0)
    if n < 2:
        return InclinationBounds(bound_x=bound_x, bound_s=I0_s, pre_asymptotic=True)
    bound_s = (lk / gap) ** n * I0_s + lk ** (n - 2) * n * (b.C * s0 + I0_x)
    return InclinationBounds(bound_x=bound_x, bound_s=bound_s, pre_asymptotic=False)


def sn_contraction_bound(b: BoundSet, n: int, s0: float) -> float:
    """Stable-component decay bound (lam+k)^n * s0."""
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


def ratio_identity_check(v_prev: TangentVector, v_next: TangentVector) -> tuple:
    """Both sides of the norm-ratio factorization, quadratic combination.

    With |v|^2 = |v_s|^2 + |v_u|^2 + |v_x|^2 (sup norm per block, root sum of
    squares across blocks),

        |v'|/|v| = (|v'_u|/|v_u|) * sqrt(1 + I'_s^2 + I'_x^2) / sqrt(1 + I_s^2 + I_x^2)

    holds exactly; the pair (lhs, rhs) is returned for comparison.  Note the
    quadratic combination here differs from the sup norm used elsewhere; both
    diagnostics are intentional.
    """
    ps, pu, px = v_prev.block_norms()
    ns, nu, nx = v_next.block_norms()
    if pu == 0.0 or nu == 0.0:
        raise DegenerateVectorError("ratio identity needs nonzero unstable components")
    lhs = math.sqrt(ns * ns + nu * nu + nx * nx) / math.sqrt(ps * ps + pu * pu + px * px)
    rhs = (nu / pu) * math.sqrt(1.0 + (ns / nu) ** 2 + (nx / nu) ** 2) / math.sqrt(
        1.0 + (ps / pu) ** 2 + (px / pu) ** 2
    )
    return lhs, rhs


def records_to_csv(records: Sequence[InclinationRecord]) -> str:
    """CSV text with columns n, I_s, I_x, stretch, s_norm, u_norm."""
    lines = ["n,I_s,I_x,stretch,s_norm,u_norm"]
    for r in records:
        lines.append(
            f"{r.n},{r.I_s:.17g},{r.I_x:.17g},{r.stretch:.17g},{r.s_norm:.17g},{r.u_norm:.17g}"
        )
    return "\n".join(lines) + "\n"
