"""Transversal-disk experiments: iterate a mesh, measure C^1 closeness, find K.

A disk transversal to the stable set is given as a graph s = sigma(u, x) over
a box containing u = 0.  Its mesh is pushed forward with tangent frames;
nodes leaving the neighborhood are censored, which realizes the
intersect-with-U trimming of the iterated disk.  Closeness to the unstable
set is measured in C^0 (sup of |s|) and C^1 (frame inclinations); the first
iterate from which both stay below a tolerance is the experiment's K.  A
boundary-tracking variant handles annuli whose edge circles are invariant,
and a domination report compares every measured inclination against the
closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import (
    ContractError,
    EmptyMeshError,
    EscapeError,
    ModelInconsistencyError,
    OutOfNeighborhoodError,
)
from .geometry import TWO_PI, ChartPoint, TangentVector, vec_sup_norm
from .normalform import FD_STEP_FIRST, BoundSet, MapSpec, _fd_first, check_constants
from .tangentflow import (
    JetState,
    _frame_inclinations,
    stable_restricted_step,
    step_jet,
    sn_contraction_bound,
    theoretical_inclination_bounds,
    unit_frame,
)


@dataclass(frozen=True)
class DiskSpec:
    """Graph disk s = sigma(u, x) meshed over u_box x x_box.

    The box must contain u = 0 in its interior so the disk actually crosses
    the stable set; the mesh is snapped so one node per u-axis sits at 0
    exactly, making the crossing slice part of the sample.
    """

    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u_box: tuple
    x_box: tuple
    mesh_per_axis: int
    dsigma: Optional[Callable] = None

    def __post_init__(self):
        if self.mesh_per_axis < 1:
            raise ContractError(f"mesh_per_axis must be >= 1, got {self.mesh_per_axis}")
        object.__setattr__(self, "u_box", tuple((float(a), float(b)) for a, b in self.u_box))
        object.__setattr__(self, "x_box", tuple((float(a), float(b)) for a, b in self.x_box))
        for lo, hi in self.u_box:
            if not (lo < 0.0 < hi):
                raise ContractError(f"u_box must contain 0 in its interior, got [{lo}, {hi}]")
        for lo, hi in self.x_box:
            if not lo < hi:
                raise ContractError(f"x_box sides must be nondegenerate, got [{lo}, {hi}]")


@dataclass(frozen=True)
class MeshOrbit:
    """Mesh nodes with jets, survivor flags, and death times (-1 = alive)."""

    tags: tuple
    jets: tuple
    alive: tuple
    died_at: tuple
    n: int

    def alive_count(self) -> int:
        return sum(1 for a in self.alive if a)

    def alive_indices(self) -> list:
        return [i for i, a in enumerate(self.alive) if a]


@dataclass(frozen=True)
class C1Distance:
    """C^0 and C^1 distance of the alive mesh to the unstable set at iterate n."""

    n: int
    c0: float
    c1: float

    @property
    def value(self) -> float:
        return max(self.c0, self.c1)


def _axis_nodes(lo: float, hi: float, count: int, periodic: bool) -> np.ndarray:
    if periodic and abs((hi - lo) - TWO_PI) < 1e-12:
        return np.linspace(lo, hi, count, endpoint=False)
    return np.linspace(lo, hi, count)


def _snap_zero(nodes: np.ndarray) -> np.ndarray:
    out = nodes.copy()
    out[int(np.argmin(np.abs(out)))] = 0.0
    return out


def _sigma_partials(d: DiskSpec, u: np.ndarray, x: np.ndarray):
    if d.dsigma is not None:
        du, dx = d.dsigma(u, x)
        return np.atleast_2d(np.asarray(du, dtype=float)), np.atleast_2d(np.asarray(dx, dtype=float))
    du = _fd_first(lambda v: np.atleast_1d(d.sigma(v, x)), u, FD_STEP_FIRST)
    dx = _fd_first(lambda v: np.atleast_1d(d.sigma(u, v)), x, FD_STEP_FIRST)
    return du, dx


def seed_mesh(d: DiskSpec, f: MapSpec) -> MeshOrbit:
    """Regular grid over the disk with embedding tangent frames at every node.

    The frame at (u, x) spans the disk tangent space: one vector per u axis,
    (d sigma/d u_j, e_j, 0), and one per manifold axis, (d sigma/d x_i, 0, e_i),
    each normalized to unit sup norm.
    """
    dims = f.dims
    if len(d.u_box) != dims.n_u or len(d.x_box) != dims.m:
        raise ContractError(
            f"disk boxes ({len(d.u_box)}, {len(d.x_box)}) do not match map dimensions "
            f"({dims.n_u}, {dims.m})"
        )
    u_axes = [
        _snap_zero(_axis_nodes(lo, hi, d.mesh_per_axis, periodic=False)) for lo, hi in d.u_box
    ]
    x_axes = [
        _axis_nodes(lo, hi, d.mesh_per_axis, periodic=bool(f.topo.is_angle[i]))
        for i, (lo, hi) in enumerate(d.x_box)
    ]
    axes = u_axes + x_axes
    tags = []
    jets = []
    for idx in np.ndindex(*(len(a) for a in axes)):
        u = np.array([u_axes[j][idx[j]] for j in range(dims.n_u)])
        x = np.array([x_axes[i][idx[dims.n_u + i]] for i in range(dims.m)])
        s = np.atleast_1d(np.asarray(d.sigma(u, x), dtype=float))
        if s.shape != (dims.n_s,):
            raise ContractError(f"sigma returned shape {s.shape}, expected ({dims.n_s},)")
        p = ChartPoint(s=s, u=u, x=x, topology=f.topo)
        if not p.in_ball(f.rho):
            raise OutOfNeighborhoodError(norm=p.normal_norm, rho=f.rho)
        du, dx = _sigma_partials(d, u, x)
        frame = []
        for j in range(dims.n_u):
            e = np.zeros(dims.n_u)
            e[j] = 1.0
            frame.append(TangentVector(v_s=du[:, j].copy(), v_u=e, v_x=np.zeros(dims.m)))
        for i in range(dims.m):
            e = np.zeros(dims.m)
            e[i] = 1.0
            frame.append(TangentVector(v_s=dx[:, i].copy(), v_u=np.zeros(dims.n_u), v_x=e))
        jets.append(JetState(p=p, frame=unit_frame(frame), n=0))
        tags.append((tuple(u), tuple(x)))
    return MeshOrbit(
        tags=tuple(tags),
        jets=tuple(jets),
        alive=tuple(True for _ in jets),
        died_at=tuple(-1 for _ in jets),
        n=0,
    )


def advance_mesh(mo: MeshOrbit, f: MapSpec, steps: int = 1) -> MeshOrbit:
    """Advance every alive node; escapes censor the node, keeping its last state."""
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    jets = list(mo.jets)
    alive = list(mo.alive)
    died_at = list(mo.died_at)
    n = mo.n
    for _ in range(steps):
        n += 1
        for i, jet in enumerate(jets):
            if not alive[i]:
                continue
            try:
                jets[i], _ = step_jet(f, jet, require_unstable=False)
            except EscapeError as err:
                jets[i] = err.survivor
                alive[i] = False
                died_at[i] = n
        if not any(alive):
            raise EmptyMeshError(
                f"every mesh node escaped by iterate {n}; narrow the disk u_box"
            )
    return MeshOrbit(tags=mo.tags, jets=tuple(jets), alive=tuple(alive), died_at=tuple(died_at), n=n)


def _vector_gap(v: TangentVector) -> float:
    """Per-vector distance from the unstable direction.

    Vectors with an unstable part use the inclination pair max(|v_s|, |v_x|)/|v_u|;
    vectors tangent to the base (v_u = 0) are measured by the slope |v_s|/|v_x|
    they acquire over the manifold.  A vector with only a stable part is
    infinitely far.
    """
    ns, nu, nx = v.block_norms()
    if nu > 0.0:
        return max(ns, nx) / nu
    if nx > 0.0:
        return ns / nx
    return math.inf


def c1_distance(mo: MeshOrbit, indices: Optional[Sequence[int]] = None) -> C1Distance:
    """c0 = sup |s|, c1 = sup of frame-vector gaps, over alive nodes.

    ``indices`` restricts the reduction to a subset of nodes (boundary
    submeshes in the annulus experiment).
    """
    pool = mo.alive_indices() if indices is None else [i for i in indices if mo.alive[i]]
    if not pool:
        raise EmptyMeshError("no alive mesh nodes to measure")
    c0 = 0.0
    c1 = 0.0
    for i in pool:
        jet = mo.jets[i]
        c0 = max(c0, vec_sup_norm(jet.p.s))
        for v in jet.frame:
            c1 = max(c1, _vector_gap(v))
    return C1Distance(n=mo.n, c0=c0, c1=c1)


@dataclass(frozen=True)
class FindKResult:
    K: Optional[int]
    series: tuple
    alive_series: tuple
    final_orbit: MeshOrbit

    @property
    def found(self) -> bool:
        return self.K is not None

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "series": [
                {"n": c.n, "c0": c.c0, "c1": c.c1, "alive": a}
                for c, a in zip(self.series, self.alive_series)
            ],
        }


def _first_settled(pairs: Sequence[tuple], eps: float) -> Optional[int]:
    """Smallest n of the (n, value) pairs from which every later value stays <= eps."""
    settled = None
    for n, value in reversed(pairs):
        if value <= eps:
            settled = n
        else:
            break
    return settled


def _iterates(mo: MeshOrbit, f: MapSpec, n_max: int):
    """The orbit itself, then its n_max successive images."""
    yield mo
    for _ in range(n_max):
        mo = advance_mesh(mo, f, 1)
        yield mo


def _settle(orbits, eps: float) -> FindKResult:
    """Distance series, alive counts and settling iterate over a run of orbits."""
    series = []
    alive = []
    for mo in orbits:
        series.append(c1_distance(mo))
        alive.append(mo.alive_count())
    return FindKResult(
        K=_first_settled([(c.n, c.value) for c in series], eps),
        series=tuple(series),
        alive_series=tuple(alive),
        final_orbit=mo,
    )


def find_K(d: DiskSpec, f: MapSpec, eps: float, n_max: int) -> FindKResult:
    """Smallest iterate from which the mesh stays C^1 eps-close through n_max.

    Not finding one within the horizon is a result (K = None), not an error;
    the caller sees the full distance series either way.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    if n_max < 0:
        raise ContractError(f"n_max must be nonnegative, got {n_max}")
    return _settle(_iterates(seed_mesh(d, f), f, n_max), eps)


@dataclass(frozen=True)
class DominationReport:
    """Margins (bound minus measurement) for the two estimate regimes.

    slice_rows: (n, margin_x, margin_s, margin_sn) minima over the u=0 slice;
    margin_s is None while the stable bound is pre-asymptotic (n < 2).
    persistence_rows: (n, margin_x, margin_s) for off-slice survivors at steps
    where the thin-slab persistence premise held at n-1.
    """

    slice_rows: tuple
    persistence_rows: tuple
    eps: float
    eps_s: float
    notes: tuple = field(default_factory=tuple)

    def worst_margin(self) -> float:
        worst = math.inf
        for row in self.slice_rows:
            for v in row[1:]:
                if v is not None:
                    worst = min(worst, v)
        for row in self.persistence_rows:
            worst = min(worst, row[1], row[2])
        return worst

    def ok(self, tol: float = 1e-9) -> bool:
        """All margins hold within tol; a report with no rows checked nothing and fails."""
        if not (self.slice_rows or self.persistence_rows):
            return False
        return self.worst_margin() >= -tol

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "eps_s": self.eps_s,
            "worst_margin": None if not (self.slice_rows or self.persistence_rows) else self.worst_margin(),
            "slice_rows": [list(r) for r in self.slice_rows],
            "persistence_rows": [list(r) for r in self.persistence_rows],
            "notes": list(self.notes),
        }


def _restricted_seed(jet: JetState) -> Optional[JetState]:
    frame = [v for v in jet.frame if v.block_norms()[1] > 0.0]
    if not frame:
        return None
    return JetState(p=jet.p, frame=tuple(frame), n=jet.n)


def _vector_inclination(v: TangentVector) -> Optional[tuple]:
    """(I_s, I_x) of a single vector, or None when it has no unstable part."""
    ns, nu, nx = v.block_norms()
    if nu == 0.0:
        return None
    return (ns / nu, nx / nu)


def verify_bound_domination(d: DiskSpec, f: MapSpec, b: BoundSet, n_max: int) -> DominationReport:
    """Check every measured inclination against its closed-form bound.

    On the u = 0 slice the decay bounds apply at every iterate; off the slice
    the thin-slab persistence statement applies once |s| <= eps_s and both
    inclinations have dipped below the target.  Negative margins falsify
    either the model's structural conditions or the constant estimates, so
    they are reported rather than raised.
    """
    broken = [c.name for c in check_constants(b) if not c.holds]
    if broken:
        raise ContractError(f"constant budget violates {', '.join(broken)}")
    mo = seed_mesh(d, f)
    notes = []

    # regime 1: the stable slice, compared against the closed-form decay bounds
    slice_jets = []
    for i in mo.alive_indices():
        jet = mo.jets[i]
        if vec_sup_norm(jet.p.u) == 0.0:
            restricted = _restricted_seed(jet)
            if restricted is not None:
                slice_jets.append(restricted)
    if not slice_jets:
        notes.append("no u=0 slice nodes with unstable-pointing frame vectors")
    per_node = []
    for jet in slice_jets:
        ns0, nx0 = _frame_inclinations(jet.frame)
        s0 = vec_sup_norm(jet.p.s)
        rows = []
        cur = jet
        for n in range(1, n_max + 1):
            try:
                cur, rec = stable_restricted_step(f, cur)
            except EscapeError:
                break
            bounds = theoretical_inclination_bounds(b, n, I0_x=nx0, I0_s=ns0, s0=s0)
            margin_x = bounds.bound_x - rec.I_x
            margin_s = None if bounds.pre_asymptotic else bounds.bound_s - rec.I_s
            margin_sn = sn_contraction_bound(b, n, s0) - rec.s_norm
            rows.append((n, margin_x, margin_s, margin_sn))
        per_node.append(rows)
    slice_rows = []
    if per_node:
        depth = min(len(rows) for rows in per_node)
        for j in range(depth):
            n = per_node[0][j][0]
            mx = min(rows[j][1] for rows in per_node)
            ms_vals = [rows[j][2] for rows in per_node if rows[j][2] is not None]
            ms = min(ms_vals) if ms_vals else None
            msn = min(rows[j][3] for rows in per_node)
            slice_rows.append((n, mx, ms, msn))

    # regime 2: off-slice survivors, checked per frame vector for persistence
    eps = b.target_eps
    persistence_rows = []
    if b.eps_s <= 0.0:
        notes.append("eps_s = 0: thin-slab persistence regime is empty for this budget")
    else:
        for i in mo.alive_indices():
            jet = mo.jets[i]
            if vec_sup_norm(jet.p.u) == 0.0:
                continue
            cur = jet
            s_now = vec_sup_norm(cur.p.s)
            armed = [
                inc is not None and s_now <= b.eps_s and inc[0] <= eps and inc[1] <= eps
                for inc in (_vector_inclination(v) for v in cur.frame)
            ]
            for n in range(1, n_max + 1):
                try:
                    cur, rec = step_jet(f, cur, require_unstable=False)
                except EscapeError:
                    break
                incs = [_vector_inclination(v) for v in cur.frame]
                for idx, inc in enumerate(incs):
                    if armed[idx] and inc is not None:
                        persistence_rows.append((n, eps - inc[1], eps - inc[0]))
                    armed[idx] = (
                        inc is not None
                        and rec.s_norm <= b.eps_s
                        and inc[0] <= eps
                        and inc[1] <= eps
                    )
    return DominationReport(
        slice_rows=tuple(slice_rows),
        persistence_rows=tuple(persistence_rows),
        eps=eps,
        eps_s=b.eps_s,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CircleTrack:
    """Distance series of one boundary circle submesh: (n, c0, c1, y_dev) rows."""

    y_value: float
    rows: tuple
    K_prime: Optional[int]


@dataclass(frozen=True)
class AnnulusReport:
    full: FindKResult
    circles: tuple

    def to_dict(self) -> dict:
        out = self.full.to_dict()
        out["circles"] = [
            {
                "y": ct.y_value,
                "K_prime": ct.K_prime,
                "rows": [list(r) for r in ct.rows],
            }
            for ct in self.circles
        ]
        return out


def _circle_row(mo: MeshOrbit, indices, y_value: float, y_index: int):
    dist = c1_distance(mo, indices=indices)
    y_dev = 0.0
    for i in indices:
        if not mo.alive[i]:
            continue
        y_dev = max(y_dev, abs(float(mo.jets[i].p.x[y_index]) - y_value))
    return (mo.n, dist.c0, dist.c1, y_dev)


def annulus_experiment(
    f: MapSpec, y0: float, y1: float, d: DiskSpec, eps: float, n_max: int
) -> AnnulusReport:
    """Full-mesh K plus boundary-circle tracking on an annulus base.

    The model must hold the circles {y = y0} and {y = y1} invariant; their
    submeshes are tracked separately, any y drift beyond 1e-10 is model
    inconsistency, and each circle gets its own settling iterate K'.
    """
    if f.dims.m != 2 or not f.topo.is_angle[0] or f.topo.is_angle[1]:
        raise ContractError("annulus experiment needs base coordinates (angle, action)")
    if not y0 < y1:
        raise ContractError(f"need y0 < y1, got {y0}, {y1}")
    y_index = 1
    mo = seed_mesh(d, f)
    edge0 = [i for i, tag in enumerate(mo.tags) if tag[1][y_index] == y0]
    edge1 = [i for i, tag in enumerate(mo.tags) if tag[1][y_index] == y1]
    if not edge0 or not edge1:
        raise ContractError(
            "mesh does not sample the boundary circles; x_box must span [y0, y1] inclusively"
        )
    rows0 = []
    rows1 = []

    def tracked():
        for orbit in _iterates(mo, f, n_max):
            for indices, y_val, rows in ((edge0, y0, rows0), (edge1, y1, rows1)):
                row = _circle_row(orbit, indices, y_val, y_index)
                if row[3] > 1e-10:
                    raise ModelInconsistencyError(
                        f"boundary circle y={y_val} drifted by {row[3]:.3g} at iterate {orbit.n}"
                    )
                rows.append(row)
            yield orbit

    full = _settle(tracked(), eps)
    circles = tuple(
        CircleTrack(
            y_value=y_val,
            rows=tuple(rows),
            K_prime=_first_settled([(r[0], max(r[1], r[2], r[3])) for r in rows], eps),
        )
        for y_val, rows in ((y0, rows0), (y1, rows1))
    )
    return AnnulusReport(full=full, circles=circles)


def make_default_disk(
    f: MapSpec,
    bounds: Optional[BoundSet] = None,
    n_target: int = 8,
    mesh_per_axis: int = 5,
    sigma_level: Optional[float] = None,
) -> DiskSpec:
    """Constant-graph disk sized so its mesh survives about n_target iterates.

    The u half-width rho*(lam+k)^n_target comes from the expansion rate: a
    node needs |u| below rho/(1/lam)^n to last n steps, and lam+k is the
    certified margin version of lam.
    """
    k = bounds.k if bounds is not None else 0.0
    level = 0.6 * f.rho if sigma_level is None else float(sigma_level)
    if abs(level) >= f.rho:
        raise ContractError(f"sigma_level {level} must sit inside the rho={f.rho} ball")
    half = f.rho * (f.lam + k) ** n_target
    s_const = np.full(f.dims.n_s, level)
    return DiskSpec(
        sigma=lambda u, x: s_const.copy(),
        u_box=tuple((-half, half) for _ in range(f.dims.n_u)),
        x_box=tuple(f.x_ranges()),
        mesh_per_axis=mesh_per_axis,
        dsigma=lambda u, x: (
            np.zeros((f.dims.n_s, f.dims.n_u)),
            np.zeros((f.dims.n_s, f.dims.m)),
        ),
    )
