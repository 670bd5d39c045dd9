"""Transversal-disk experiments: iterate a mesh, measure C^1 closeness, find K.

A disk transversal to the stable set is given as a graph s = sigma(u, x) over
a box containing u = 0.  One run loop pushes its mesh forward with tangent
frames, every alive node in one array step per iterate, for every reader
below; nodes leaving the neighborhood are censored (the intersect-with-U
trimming of the disk).
Closeness to the unstable set is measured in C^0 (sup of |s|) and C^1 (frame
inclinations); the first iterate from which both stay below a tolerance is
the experiment's K.  A boundary-tracking variant handles annuli whose edge
circles are invariant, and a domination report compares every measured
inclination against the closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from ._fd import _fd_first_rows
from .exceptions import (
    ContractError,
    EmptyMeshError,
    ModelInconsistencyError,
)
from .geometry import TWO_PI, ChartPoint, ChartTopology, Dimensions, TangentVector, _count, _finite, _positive, _wrap_angles
from .normalform import FD_STEP_FIRST, BoundSet, MapSpec, _check_ball, _fit, _in_row_order, _stacked, _Stacked, check_constants
from .tangentflow import (
    JetState,
    _block_norms,
    _frame_inclinations,
    _inclinations,
    _step,
    _unit_rows,
    sn_contraction_bound,
    theoretical_inclination_bounds,
)


@dataclass(frozen=True)
class DiskSpec:
    """Graph disk s = sigma(u, x) meshed over u_box x x_box.

    The box must contain u = 0 in its interior so the disk actually crosses
    the stable set; the mesh is snapped so one node per u-axis sits at 0
    exactly, making the crossing slice part of the sample.  ``dsigma``, when
    given, returns the pair (d sigma/d u, d sigma/d x).  Construction wraps
    each plain callable once in the per-row adapter ``normalform._stacked``,
    its widths read off its values, so each runs once per node; seeding
    fits each read to the map's blocks (``normalform._fit``).
    """

    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u_box: tuple
    x_box: tuple
    mesh_per_axis: int
    dsigma: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "mesh_per_axis", _count(self.mesh_per_axis, "mesh_per_axis", 1))
        for box in ("u_box", "x_box"):
            object.__setattr__(self, box, tuple((_finite(a, box), _finite(b, box)) for a, b in getattr(self, box)))
        object.__setattr__(self, "sigma", _stacked(self.sigma, name="sigma"))
        object.__setattr__(self, "dsigma", _stacked(self.dsigma, None, None, name="dsigma"))
        for lo, hi in self.u_box:
            if not (lo < 0.0 < hi):
                raise ContractError(f"u_box must contain 0 in its interior, got [{lo}, {hi}]")
        for lo, hi in self.x_box:
            if not lo < hi:
                raise ContractError(f"x_box sides must be nondegenerate, got [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class MeshOrbit:
    """Mesh nodes held as arrays, one row per node: base points (N, n) and
    tangent frames (N, k, n) in (s, u, x) layout, with the node tags and
    death times (-1 = alive), the one record of which nodes survive.  A dead
    node keeps its last state inside the ball.  ``dims`` and ``topo``
    describe the chart of the rows.
    """

    tags: tuple
    points: np.ndarray
    frames: np.ndarray
    died_at: tuple
    n: int
    dims: Dimensions
    topo: ChartTopology

    def __post_init__(self):
        self.points.flags.writeable = False
        self.frames.flags.writeable = False

    @cached_property
    def alive(self) -> tuple:
        """Survivor flags, one per node, read off ``died_at``."""
        return tuple(d < 0 for d in self.died_at)

    @cached_property
    def jets(self) -> tuple:
        """Read-only JetState view of the rows, built on first use; a dead
        node's jet is its last state, at iterate died_at - 1."""
        split = self.dims.split
        return tuple(
            JetState(
                p=ChartPoint(*split(z), self.topo),
                frame=tuple(TangentVector(*split(v)) for v in F),
                n=self.n if died < 0 else died - 1,
            )
            for z, F, died in zip(self.points, self.frames, self.died_at)
        )

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


def _sigma_partials(d: DiskSpec, U: np.ndarray, X: np.ndarray, n_s: int) -> np.ndarray:
    """The partials (d sigma/d u, d sigma/d x) at the nodes (U, X), joined as an (N, n_s, n_u + m)
    stack: ``dsigma``, or central differences of sigma in (u, x), each read fitted to its blocks (``_fit``)."""
    n_u, m = U.shape[1], X.shape[1]
    if d.dsigma is not None:
        return np.concatenate(_fit("dsigma", d.dsigma.rows(U, X), [(n_s, n_u), (n_s, m)], len(U)), axis=2)
    return _fd_first_rows(lambda V: _fit("sigma", d.sigma.rows(V[:, :n_u], V[:, n_u:]), (n_s,), len(V)),
                          np.concatenate((U, X), axis=1), FD_STEP_FIRST)


def seed_mesh(d: DiskSpec, f: MapSpec) -> MeshOrbit:
    """Regular grid over the disk with embedding tangent frames at every node.

    The frame at (u, x) spans the disk tangent space: one vector per u axis,
    (d sigma/d u_j, e_j, 0), and one per manifold axis, (d sigma/d x_i, 0, e_i),
    each normalized to unit sup norm.  Sigma and its partials are read as
    one stack each over all nodes; a stack that fails is read again node by
    node, so the error is the first failing node's.
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
    n_s, n_u, k = dims.n_s, dims.n_u, dims.n_u + dims.m
    nodes = np.stack(np.meshgrid(*u_axes, *x_axes, indexing="ij"), axis=-1).reshape(-1, k)

    def read(rows) -> tuple:
        U, X = nodes[rows, :n_u], nodes[rows, n_u:]
        S = _fit("sigma", d.sigma.rows(U, X), (n_s,), len(U))
        _check_ball(f, S, U)
        partials = _sigma_partials(d, U, X, n_s)
        bad = np.flatnonzero(~np.isfinite(partials).all(axis=(1, 2)))  # a NaN value already failed the ball
        if bad.size:
            raise ContractError(f"sigma partials are not finite at u={U[bad[0]]}, x={X[bad[0]]}")
        return S, partials

    S, partials = _in_row_order(read, len(nodes))
    points = np.concatenate((S, nodes[:, :n_u], _wrap_angles(nodes[:, n_u:].copy(), f.topo.is_angle)), axis=1)
    frames = np.zeros((len(nodes), k, dims.n))
    frames[:, :, :n_s] = partials.transpose(0, 2, 1)
    frames[:, :, n_s:] = np.eye(k)
    tags = tuple((tuple(u), tuple(x)) for u, x in zip(nodes[:, :n_u], nodes[:, n_u:]))
    return MeshOrbit(tags, points, _unit_rows(frames), (-1,) * len(nodes), 0, dims, f.topo)


def _orbits(f: MapSpec, mo: MeshOrbit, steps: int, restricted: bool = False):
    """The mesh run: ``mo``, then its image at each of the next ``steps`` iterates, every alive row
    pushed in one ``_step`` call per iterate.  An escaped row keeps its last state; the run stops at
    the iterate where no row is left alive."""
    yield mo
    died_at = np.array(mo.died_at)
    for n in range(mo.n + 1, mo.n + steps + 1):
        rows = np.flatnonzero(died_at < 0)
        if not len(rows):
            return
        points, frames = mo.points.copy(), mo.frames.copy()
        points[rows], frames[rows], _, escaped, _ = _step(
            f, points[rows], frames[rows], require_unstable=False, restricted=restricted
        )
        died_at[rows[escaped]] = n
        mo = MeshOrbit(mo.tags, points, frames, tuple(died_at.tolist()), n, mo.dims, mo.topo)
        yield mo


def _living(run):
    """The orbits of ``run``; one with no alive node is an EmptyMeshError."""
    for mo in run:
        if not any(mo.alive):
            raise EmptyMeshError(f"every mesh node escaped by iterate {mo.n}; narrow the disk u_box")
        yield mo


def advance_mesh(mo: MeshOrbit, f: MapSpec, steps: int = 1) -> MeshOrbit:
    """Advance every alive node; escapes censor the node, keeping its last state."""
    for mo in _living(_orbits(f, mo, _count(steps, "steps", 1))):
        pass
    return mo


def _node_distances(mo: MeshOrbit, pool) -> tuple:
    """Per node of ``pool``: sup |s| and the sup of its frame-vector gaps (see ``c1_distance``)."""
    ns, nu, nx = _block_norms(mo.dims, mo.frames[pool])
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.where(nu > 0.0, np.maximum(ns, nx) / nu, np.where(nx > 0.0, ns / nx, math.inf))
    return np.abs(mo.points[pool, : mo.dims.n_s]).max(axis=1), gaps.max(axis=1)


def _distance(n: int, c0: np.ndarray, gaps: np.ndarray) -> C1Distance:
    """The C1Distance of the nodes whose ``_node_distances`` are c0 and gaps."""
    if not len(c0):
        raise EmptyMeshError("no alive mesh nodes to measure")
    return C1Distance(n=n, c0=float(c0.max()), c1=float(gaps.max()))


def c1_distance(mo: MeshOrbit, indices: Optional[Sequence[int]] = None) -> C1Distance:
    """c0 = sup |s|, c1 = sup of frame-vector gaps, over alive nodes.

    A vector's gap is its distance from the unstable direction: with an
    unstable part, the inclination pair max(|v_s|, |v_x|)/|v_u|; tangent to
    the base (v_u = 0), the slope |v_s|/|v_x| it acquires over the manifold;
    with only a stable part, inf.  ``indices`` restricts the reduction to a
    subset of nodes; one that is not a node number is a ContractError.
    """
    if indices is not None:
        indices = [_count(i, "indices") for i in indices]
        if any(i >= len(mo.alive) for i in indices):
            raise ContractError(f"indices must be below the mesh's {len(mo.alive)} nodes, got {max(indices)}")
    pool = mo.alive_indices() if indices is None else [i for i in indices if mo.alive[i]]
    return _distance(mo.n, *_node_distances(mo, pool))


@dataclass(frozen=True)
class FindKResult:
    """Settling iterate K, distance series and alive counts of a run; ``_run``
    is the run itself, the seeded orbit and its images, one per iterate."""

    K: Optional[int]
    series: tuple
    alive_series: tuple
    _run: tuple = field(repr=False)

    @property
    def final_orbit(self) -> MeshOrbit:
        return self._run[-1]

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


def _settle(measured, eps: float) -> FindKResult:
    """Distance series, alive counts and settling iterate over a run of (orbit, its C1Distance) pairs."""
    run, series = zip(*measured)
    return FindKResult(
        K=_first_settled([(c.n, c.value) for c in series], eps),
        series=series,
        alive_series=tuple(mo.alive_count() for mo in run),
        _run=run,
    )


def find_K(d: DiskSpec, f: MapSpec, eps: float, n_max: int) -> FindKResult:
    """Smallest iterate from which the mesh stays C^1 eps-close through n_max.

    Not finding one within the horizon is a result (K = None), not an error;
    the caller sees the full distance series either way; a mesh whose every
    node escapes within it is an EmptyMeshError.  The result keeps the run
    (``final_orbit`` is its last orbit), so a domination check of the same
    disk and horizon reads its off-slice nodes from it instead of pushing
    them again (``cli.cmd_lambda`` does, through ``_run_domination``).
    """
    eps, n_max = _positive(eps, "eps"), _count(n_max, "n_max")
    return _settle(((mo, c1_distance(mo)) for mo in _living(_orbits(f, seed_mesh(d, f), n_max))), eps)


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
        """The least margin of all rows, +inf with none; one reduction, so a NaN margin anywhere is kept."""
        margins = [v for row in (*self.slice_rows, *self.persistence_rows) for v in row[1:] if v is not None]
        return float(np.min(margins, initial=math.inf))

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


def verify_bound_domination(d: DiskSpec, f: MapSpec, b: BoundSet, n_max: int) -> DominationReport:
    """Check every measured inclination against its closed-form bound.

    On the u = 0 slice the decay bounds apply at every iterate; off the slice
    the thin-slab persistence statement applies once |s| <= eps_s and both
    inclinations have dipped below the target.  The slice nodes are one
    restricted run, read up to the first slice escape, and each iterate's
    slice margins are one stacked reduction: one array of frame
    inclinations, one of each bound, and their minima.  The off-slice nodes
    are one run of the seed with its slice nodes dead from the start, which
    ``_run_domination`` reads from a ``find_K`` run instead, with the same
    bits; unlike ``find_K``, the report runs on once every node has escaped.
    Negative margins falsify either the model's structural conditions or the
    constant estimates, so they are reported rather than raised; a NaN
    margin is kept.
    """
    n_max = _count(n_max, "n_max")
    _check_budget(b)
    mo = seed_mesh(d, f)
    off_slice = replace(mo, died_at=tuple(np.where(_on_slice(mo), 0, -1).tolist()))
    return _domination(f, b, mo, n_max, _orbits(f, off_slice, n_max))


def _run_domination(found: FindKResult, f: MapSpec, b: BoundSet) -> DominationReport:
    """``verify_bound_domination`` of the disk and horizon of ``found``, a ``find_K`` run on f, bit for
    bit: its off-slice nodes are read from the run, and only the slice nodes are pushed again."""
    _check_budget(b)
    return _domination(f, b, found._run[0], len(found._run) - 1, found._run)


def _check_budget(b: BoundSet) -> None:
    broken = [c.name for c in check_constants(b) if not c.holds]
    if broken:
        raise ContractError(f"constant budget violates {', '.join(broken)}")


def _on_slice(mo: MeshOrbit) -> np.ndarray:
    """The mask of the alive nodes on the u = 0 slice."""
    return np.array(mo.alive) & ~mo.points[:, mo.dims.n_s : mo.dims.n_s + mo.dims.n_u].any(axis=1)


def _domination(f: MapSpec, b: BoundSet, mo: MeshOrbit, n_max: int, run) -> DominationReport:
    """The domination report of the seeded mesh ``mo`` through n_max.  ``run`` is a mesh run of
    ``mo`` (``_orbits``) from iterate 0 whose off-slice rows are ``mo``'s; its slice rows are not
    read, and the slice regime pushes its own restricted run."""
    dims = f.dims
    notes = []

    def sup_s(Z):
        return np.abs(Z[:, : dims.n_s]).max(axis=1)

    on_slice = _on_slice(mo)
    off_slice = np.array(mo.alive) & ~on_slice

    # regime 1: the stable slice, compared against the closed-form decay bounds;
    # a seeded frame's rows j < n_u carry e_j in the u block and the others none,
    # so those rows are the ones pointing out of the slice
    slice_rows = []
    if not on_slice.any():
        notes.append("no u=0 slice nodes with unstable-pointing frame vectors")
    else:
        nodes = np.flatnonzero(on_slice)
        start = MeshOrbit(tuple(mo.tags[i] for i in nodes), mo.points[nodes], mo.frames[nodes, : dims.n_u],
                          (-1,) * len(nodes), 0, dims, mo.topo)
        (ns0, nx0), s0 = _frame_inclinations(dims, start.frames), sup_s(start.points)
        for orbit in islice(_orbits(f, start, n_max, restricted=True), 1, None):
            if not all(orbit.alive):  # rows run up to the depth every slice node reached
                break
            inc_s, inc_x = _frame_inclinations(dims, orbit.frames)
            bounds = theoretical_inclination_bounds(b, orbit.n, I0_x=nx0, I0_s=ns0, s0=s0)
            margin_s = None if bounds.pre_asymptotic else float(np.min(bounds.bound_s - inc_s))
            margin_sn = float(np.min(sn_contraction_bound(b, orbit.n, s0) - sup_s(orbit.points)))
            slice_rows.append((orbit.n, float(np.min(bounds.bound_x - inc_x)), margin_s, margin_sn))

    # regime 2: off-slice survivors, checked per frame vector for persistence
    eps = b.target_eps
    persistence_rows = []
    if b.eps_s <= 0.0:
        notes.append("eps_s = 0: thin-slab persistence regime is empty for this budget")
    else:
        rows_of = [[] for _ in mo.tags]
        was_armed = np.zeros(mo.frames.shape[:2], dtype=bool)
        for orbit in run:
            live = np.flatnonzero(off_slice & np.array(orbit.alive))
            if not len(live):
                break
            n, Z = orbit.n, orbit.points[live]
            inc_s, inc_x, has_u = _inclinations(dims, orbit.frames[live])
            for r, j in zip(*np.nonzero(was_armed[live] & has_u)):
                rows_of[live[r]].append((n, eps - float(inc_x[r, j]), eps - float(inc_s[r, j])))
            was_armed[live] = has_u & (sup_s(Z) <= b.eps_s)[:, None] & (inc_s <= eps) & (inc_x <= eps)
        persistence_rows = [row for rows in rows_of for row in rows]
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


def annulus_experiment(
    f: MapSpec, y0: float, y1: float, d: DiskSpec, eps: float, n_max: int
) -> AnnulusReport:
    """Full-mesh K plus boundary-circle tracking on an annulus base.

    The model must hold the circles {y = y0} and {y = y1} invariant; their
    submeshes are tracked separately, any y drift beyond 1e-10 is model
    inconsistency, and each circle gets its own settling iterate K'.  Each
    iterate's node distances are taken once, over the alive nodes, and
    reduced over the whole mesh and over each circle's alive nodes.
    """
    if f.dims.m != 2 or not f.topo.is_angle[0] or f.topo.is_angle[1]:
        raise ContractError("annulus experiment needs base coordinates (angle, action)")
    y0, y1, eps, n_max = _finite(y0, "y0"), _finite(y1, "y1"), _positive(eps, "eps"), _count(n_max, "n_max")
    if not y0 < y1:
        raise ContractError(f"need y0 < y1, got {y0}, {y1}")
    y_col = f.dims.n_s + f.dims.n_u + 1  # the action coordinate y
    mo = seed_mesh(d, f)
    edges = [np.array([tag[1][1] == y for tag in mo.tags]) for y in (y0, y1)]
    if not all(edge.any() for edge in edges):
        raise ContractError(
            "mesh does not sample the boundary circles; x_box must span [y0, y1] inclusively"
        )
    rows0 = []
    rows1 = []

    def measured():
        for orbit in _living(_orbits(f, mo, n_max)):
            pool = np.flatnonzero(np.array(orbit.died_at) < 0)
            c0, gaps = _node_distances(orbit, pool)
            for edge, y_val, rows in zip(edges, (y0, y1), (rows0, rows1)):
                on = edge[pool]
                dist = _distance(orbit.n, c0[on], gaps[on])
                y_dev = float(np.abs(orbit.points[pool[on], y_col] - y_val).max())
                if y_dev > 1e-10:
                    raise ModelInconsistencyError(
                        f"boundary circle y={y_val} drifted by {y_dev:.3g} at iterate {orbit.n}"
                    )
                rows.append((orbit.n, dist.c0, dist.c1, y_dev))
            yield orbit, _distance(orbit.n, c0, gaps)

    full = _settle(measured(), eps)
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
    level = 0.6 * f.rho if sigma_level is None else _finite(sigma_level, "sigma_level")
    if not abs(level) < f.rho:
        raise ContractError(f"sigma_level {level} must sit inside the rho={f.rho} ball")
    half = f.rho * (f.lam + k) ** _count(n_target, "n_target", 1)
    return _affine_disk(np.full(f.dims.n_s, level), tuple((-half, half) for _ in range(f.dims.n_u)),
                        tuple(f.x_ranges()), mesh_per_axis)


def _affine_disk(const: np.ndarray, u_box: tuple, x_box: tuple, mesh_per_axis: int,
                 coeffs: Optional[tuple] = None) -> DiskSpec:
    """The graph disk s = const + a u + b x, with (a, b) = ``coeffs``, over u_box x x_box, in stacked
    row forms.  sigma adds one matrix-vector product per row for a and one for b, the routine of
    ``a @ u``; without ``coeffs`` the disk is constant and sigma adds nothing, so every row has the
    bits of ``const`` (a level of -0.0 stays -0.0)."""
    a, b = coeffs or (np.zeros((len(const), len(u_box))), np.zeros((len(const), len(x_box))))

    def sigma(U, X):
        if coeffs is None:
            return np.repeat(const[None], len(U), axis=0)
        return const + np.matmul(a, U[..., None])[..., 0] + np.matmul(b, X[..., None])[..., 0]

    def dsigma(U, X):
        return np.repeat(a[None], len(U), axis=0), np.repeat(b[None], len(X), axis=0)

    return DiskSpec(sigma=_Stacked(sigma), u_box=u_box, x_box=x_box, mesh_per_axis=mesh_per_axis,
                    dsigma=_Stacked(dsigma))
