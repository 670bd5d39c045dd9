"""Transversal-disk experiments: iterate a mesh, measure C^1 closeness, find K.

A disk transversal to the stable set is given as a graph s = sigma(u, x) over
a box containing u = 0.  One run (``MeshRun``) pushes its mesh forward with
tangent frames, every alive node in one array step per iterate, and holds
the whole run as arrays: points (T, N, n), frames (T, N, k, n) and one
escape iterate per node; nodes leaving the neighborhood are censored (the
intersect-with-U trimming of the disk).
Closeness to the unstable set is measured in C^0 (sup of |s|) and C^1 (frame
inclinations); the first iterate from which both stay below a tolerance is
the experiment's K.  A boundary-tracking variant handles annuli whose edge
circles are invariant, and a domination report compares every measured
inclination against the closed-form bounds.  Each of these readers measures
a run once, as reductions over all its iterates masked by the run's (T, N)
liveness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from ._fd import _fd_first_rows
from .exceptions import (
    ContractError,
    EmptyMeshError,
    ModelInconsistencyError,
)
from .geometry import TWO_PI, ChartPoint, ChartTopology, Dimensions, TangentVector, _count, _finite, _positive, _wrap_angles
from .normalform import FD_STEP_FIRST, BoundSet, MapSpec, _check_ball, _in_row_order, _read, _Stacked, check_constants
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
    given, returns the pair (d sigma/d u, d sigma/d x).  Both are kept as
    given; seeding reads them at the map's blocks (``normalform._read``), so
    a plain one runs once per node.
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
        for lo, hi in self.u_box:
            if not (lo < 0.0 < hi):
                raise ContractError(f"u_box must contain 0 in its interior, got [{lo}, {hi}]")
        for lo, hi in self.x_box:
            if not lo < hi:
                raise ContractError(f"x_box sides must be nondegenerate, got [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class MeshOrbit:
    """Mesh nodes at one iterate held as arrays, one row per node: base points
    (N, n) and tangent frames (N, k, n) in (s, u, x) layout, with the node
    tags and death times (-1 = alive), the one record of which nodes
    survive.  A dead node keeps its last state inside the ball.  ``dims``
    and ``topo`` describe the chart of the rows.  Seeding makes one; each
    iterate of a ``MeshRun`` is one, a view of the run's arrays.
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
    stack: ``dsigma``, or central differences of sigma in (u, x), each read at its blocks (``_read``)."""
    n_u, m = U.shape[1], X.shape[1]
    if d.dsigma is not None:
        return np.concatenate(_read(d.dsigma, "dsigma", [(n_s, n_u), (n_s, m)], U, X), axis=2)
    return _fd_first_rows(lambda V: _read(d.sigma, "sigma", (n_s,), V[:, :n_u], V[:, n_u:]),
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
        S = _read(d.sigma, "sigma", (n_s,), U, X)
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


class MeshRun:
    """A mesh run held as arrays: the points (T, N, n) and frames (T, N, k, n) of the N nodes of a
    seeded orbit at its iterates n0, ..., n0 + T - 1, and ``died_at`` (N,), the iterate each node
    escaped at (-1 while alive).  A node keeps its last state in the ball from its escape on.
    ``alive`` is the (T, N) liveness every whole-run reduction is masked by, and ``run[t]`` the
    MeshOrbit of iterate n0 + t, a view of the arrays.

    ``push`` writes the run iterate by iterate, every alive row pushed in one ``_step`` call per
    iterate; a step that raises leaves the run holding the iterates before it.  The arrays grow with
    the run's length; a reader that needs only a bounded stretch at a time pushes ``_segments``.
    """

    def __init__(self, mo: MeshOrbit, steps: int):
        self.tags, self.dims, self.topo, self.n0 = mo.tags, mo.dims, mo.topo, mo.n
        self.points = np.empty((steps + 1, *mo.points.shape))
        self.frames = np.empty((steps + 1, *mo.frames.shape))
        self.points[0], self.frames[0] = mo.points, mo.frames
        self.died_at = np.array(mo.died_at)

    def push(self, f: MapSpec, restricted: bool = False, living: bool = True) -> "MeshRun":
        """Push the orbit through its ``steps``.  A ``restricted`` run (``_step``) ends before the
        iterate where any row escapes, and never raises for it; any other run ends before the
        iterate where no row is left alive, which is an EmptyMeshError when ``living``."""
        P, F, died_at = self.points, self.frames, self.died_at
        written = 0
        try:
            for t in range(len(P)):
                if t:
                    live = np.flatnonzero(died_at < 0)
                    rows = slice(None) if len(live) == len(died_at) else live  # all alive: no gather or scatter
                    P[t], F[t] = P[t - 1], F[t - 1]
                    P[t, rows], F[t, rows], _, escaped, _ = _step(f, P[t - 1, rows], F[t - 1, rows], False, restricted)
                    died_at[live[escaped]] = self.n0 + t
                alive = died_at < 0
                if restricted and not alive.all():
                    break
                if not alive.any():
                    if living:
                        raise EmptyMeshError(f"every mesh node escaped by iterate {self.n0 + t}; narrow the disk u_box")
                    break
                written = t + 1
        finally:
            self.points, self.frames = P[:written], F[:written]
        return self

    def __len__(self) -> int:
        return len(self.points)

    @property
    def alive(self) -> np.ndarray:
        """(T, N): whether each node is alive at each iterate of the run."""
        iterates = self.n0 + np.arange(len(self))[:, None]
        return (self.died_at < 0) | (iterates < self.died_at)

    def __getitem__(self, t: int) -> MeshOrbit:
        t = range(len(self))[t]
        died_at = tuple(np.where(self.alive[t], -1, self.died_at).tolist())
        return MeshOrbit(self.tags, self.points[t], self.frames[t], died_at, self.n0 + t, self.dims, self.topo)


_SEGMENT = 64  # iterates per run of ``_segments``


def _segments(f: MapSpec, mo: MeshOrbit, steps: int, **push):
    """The run of ``mo`` through ``steps`` (``MeshRun.push`` with ``push``), as consecutive runs of at
    most ``_SEGMENT`` steps, each from the last iterate of the one before, so a reader holds a
    bounded stretch of the run at a time; the bits are those of one run."""
    while True:
        run = MeshRun(mo, min(steps, _SEGMENT)).push(f, **push)
        yield run
        steps -= _SEGMENT
        if steps <= 0 or len(run) <= _SEGMENT:  # done, or the run ended early
            return
        mo = run[-1]


def advance_mesh(mo: MeshOrbit, f: MapSpec, steps: int = 1) -> MeshOrbit:
    """Advance every alive node; escapes censor the node, keeping its last state.  The run is pushed
    in ``_segments`` and the result's arrays are copies, so no more than one segment is held."""
    for run in _segments(f, mo, _count(steps, "steps", 1)):
        pass
    mo = run[-1]
    return replace(mo, points=mo.points.copy(), frames=mo.frames.copy())


def _node_distances(dims: Dimensions, points: np.ndarray, frames: np.ndarray) -> tuple:
    """Per node of the points (..., n) and their frames (..., k, n): sup |s| and the sup of its
    frame-vector gaps (see ``c1_distance``)."""
    ns, nu, nx = _block_norms(dims, frames)
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.where(nu > 0.0, np.maximum(ns, nx) / nu, np.where(nx > 0.0, ns / nx, math.inf))
    return np.abs(points[..., : dims.n_s]).max(axis=-1), gaps.max(axis=-1)


def _maxima(mask: np.ndarray, *values: np.ndarray) -> list:
    """Per iterate, a row of the (T, N) ``mask``, the max of each (T, N) array of ``values`` over
    the nodes the mask holds (-inf over none), as one list of floats per array."""
    return [np.max(v, axis=1, where=mask, initial=-math.inf).tolist() for v in values]


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
    if not pool:
        raise EmptyMeshError("no alive mesh nodes to measure")
    c0, gaps = _node_distances(mo.dims, mo.points[pool], mo.frames[pool])
    return C1Distance(n=mo.n, c0=float(c0.max()), c1=float(gaps.max()))


@dataclass(frozen=True)
class FindKResult:
    """Settling iterate K, distance series and alive counts of a run; ``_run``
    is the run itself (``MeshRun``), its seeded orbit and one image per iterate."""

    K: Optional[int]
    series: tuple
    alive_series: tuple
    _run: MeshRun = field(repr=False)

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


def _found(run: MeshRun, eps: float, distances: tuple) -> FindKResult:
    """Distance series, alive counts and settling iterate of ``run``, whose ``_node_distances`` are
    ``distances``: each iterate's c0 and c1 are maxima over its alive nodes."""
    alive = run.alive
    series = tuple(map(C1Distance, range(run.n0, run.n0 + len(run)), *_maxima(alive, *distances)))
    return FindKResult(
        K=_first_settled([(c.n, c.value) for c in series], eps),
        series=series,
        alive_series=tuple(alive.sum(axis=1).tolist()),
        _run=run,
    )


def find_K(d: DiskSpec, f: MapSpec, eps: float, n_max: int) -> FindKResult:
    """Smallest iterate from which the mesh stays C^1 eps-close through n_max.

    Not finding one within the horizon is a result (K = None), not an error;
    the caller sees the full distance series either way; a mesh whose every
    node escapes within it is an EmptyMeshError.  The series is measured over
    the whole run at once.  The result keeps the run (``final_orbit`` is its
    last orbit), so a domination check of the same disk and horizon reads its
    off-slice nodes from it instead of pushing them again (``cli.cmd_lambda``
    does, through ``_run_domination``).
    """
    eps, n_max = _positive(eps, "eps"), _count(n_max, "n_max")
    run = MeshRun(seed_mesh(d, f), n_max).push(f)
    return _found(run, eps, _node_distances(run.dims, run.points, run.frames))


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
    Both runs are pushed in ``_segments``, so the memory they hold does not
    grow with n_max.
    Negative margins falsify either the model's structural conditions or the
    constant estimates, so they are reported rather than raised; a NaN
    margin is kept.
    """
    n_max = _count(n_max, "n_max")
    _check_budget(b)
    return _domination(f, b, seed_mesh(d, f), n_max)


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


def _domination(f: MapSpec, b: BoundSet, mo: MeshOrbit, n_max: int, run: Optional[MeshRun] = None
                ) -> DominationReport:
    """The domination report of the seeded mesh ``mo`` through n_max, each regime one masked reduction
    per segment of a run.  ``run`` is a mesh run of ``mo`` from iterate 0 whose off-slice rows are
    ``mo``'s, or None to push the off-slice rows here in ``_segments``, once the slice regime is done;
    its slice rows are not read, and the slice regime pushes its own restricted run."""
    dims = f.dims
    notes = []

    def sup_s(Z):
        return np.abs(Z[..., : dims.n_s]).max(axis=-1)

    on_slice = _on_slice(mo)

    # regime 1: the stable slice, compared against the closed-form decay bounds;
    # seeding snaps a node to 0 on every u axis, so the seeded mesh always has
    # slice nodes; a seeded frame's rows j < n_u carry e_j in the u block and
    # the others none, so those rows are the ones pointing out of the slice
    nodes = np.flatnonzero(on_slice)
    start = MeshOrbit(tuple(mo.tags[i] for i in nodes), mo.points[nodes], mo.frames[nodes, : dims.n_u],
                      (-1,) * len(nodes), 0, dims, mo.topo)
    (ns0, nx0), s0 = _frame_inclinations(dims, start.frames), sup_s(start.points)
    slice_rows = []
    for sliced in _segments(f, start, n_max, restricted=True):  # up to the depth every slice node reached
        ns = range(sliced.n0 + 1, sliced.n0 + len(sliced))
        bounds = [theoretical_inclination_bounds(b, n, I0_x=nx0, I0_s=ns0, s0=s0) for n in ns]
        limits = np.array([(bd.bound_s, bd.bound_x, sn_contraction_bound(b, n, s0)) for n, bd in zip(ns, bounds)])
        measured = np.stack((*_frame_inclinations(dims, sliced.frames[1:]), sup_s(sliced.points[1:])), axis=1)
        margins = np.min(limits.reshape(measured.shape) - measured, axis=2).tolist()  # (0,) limits when no step
        slice_rows += [(n, margin_x, None if bd.pre_asymptotic else margin_s, margin_sn)
                       for n, bd, (margin_s, margin_x, margin_sn) in zip(ns, bounds, margins)]

    # regime 2: off-slice survivors, checked per frame vector for persistence
    eps = b.target_eps
    persistence_rows = []
    if b.eps_s <= 0.0:
        notes.append("eps_s = 0: thin-slab persistence regime is empty for this budget")
    else:
        runs = [run]
        if run is None:  # the seed with its slice nodes dead from the start
            runs = _segments(f, replace(mo, died_at=tuple(np.where(on_slice, 0, -1).tolist())), n_max, living=False)
        parts = []
        for run in runs:
            inc_s, inc_x, has_u = _inclinations(dims, run.frames)
            armed = has_u & (sup_s(run.points) <= b.eps_s)[..., None] & (inc_s <= eps) & (inc_x <= eps)
            # a frame row armed at one iterate is checked at the next, while its node is alive off the slice
            checked = (run.alive & ~on_slice)[1:, :, None] & armed[:-1] & has_u[1:]
            node, t, j = np.nonzero(checked.transpose(1, 0, 2))
            t += 1
            parts.append((node, run.n0 + t, eps - inc_x[t, node, j], eps - inc_s[t, node, j]))
        node, n, margin_x, margin_s = map(np.concatenate, zip(*parts))
        order = np.argsort(node, kind="stable")  # node by node, each in iterate order
        persistence_rows = zip(n[order].tolist(), margin_x[order].tolist(), margin_s[order].tolist())
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
    inconsistency, and each circle gets its own settling iterate K'.  The
    node distances are taken once over the whole run and reduced over the
    alive nodes of the whole mesh and of each circle at every iterate.  A
    circle that drifts, or has no alive node, at an iterate the run reached
    is reported before an error of a later iterate.
    """
    if f.dims.m != 2 or not f.topo.is_angle[0] or f.topo.is_angle[1]:
        raise ContractError("annulus experiment needs base coordinates (angle, action)")
    y0, y1, eps, n_max = _finite(y0, "y0"), _finite(y1, "y1"), _positive(eps, "eps"), _count(n_max, "n_max")
    if not y0 < y1:
        raise ContractError(f"need y0 < y1, got {y0}, {y1}")
    mo = seed_mesh(d, f)
    edges = [np.array([tag[1][1] == y for tag in mo.tags]) for y in (y0, y1)]
    if not all(edge.any() for edge in edges):
        raise ContractError(
            "mesh does not sample the boundary circles; x_box must span [y0, y1] inclusively"
        )
    run = MeshRun(mo, n_max)
    try:
        run.push(f)
    finally:
        distances = _node_distances(f.dims, run.points, run.frames)
        tracks = _circle_rows(run, distances, edges, (y0, y1))
    circles = tuple(
        CircleTrack(y_value=y, rows=rows, K_prime=_first_settled([(r[0], max(r[1], r[2], r[3])) for r in rows], eps))
        for y, rows in zip((y0, y1), tracks)
    )
    return AnnulusReport(full=_found(run, eps, distances), circles=circles)


def _circle_rows(run: MeshRun, distances: tuple, edges: list, ys: tuple) -> list:
    """The (n, c0, c1, y_dev) rows of each boundary circle, the nodes of ``edges`` at the levels
    ``ys``, over ``run``, whose ``_node_distances`` are ``distances``: maxima over the circle's alive
    nodes.  The first iterate, circle by circle, where a circle has no alive node is an
    EmptyMeshError, or where it drifts from its level by more than 1e-10 a ModelInconsistencyError."""
    alive, n = run.alive, list(range(run.n0, run.n0 + len(run)))
    y_col = run.dims.n_s + run.dims.n_u + 1  # the action coordinate y
    tracks, faults = [], []
    for edge, y in zip(edges, ys):
        on = alive & edge
        c0, c1, y_dev = _maxima(on, *distances, np.abs(run.points[..., y_col] - y))
        tracks.append(tuple(zip(n, c0, c1, y_dev)))
        faults.append(np.stack((~on.any(axis=1), np.array(y_dev) > 1e-10), axis=1))
    faults = np.stack(faults, axis=1)  # (iterate, circle, empty or drifted)
    if faults.any():
        t, circle, drifted = np.unravel_index(np.argmax(faults), faults.shape)
        if not drifted:
            raise EmptyMeshError("no alive mesh nodes to measure")
        raise ModelInconsistencyError(
            f"boundary circle y={ys[circle]} drifted by {tracks[circle][t][3]:.3g} at iterate {n[t]}"
        )
    return tracks


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
