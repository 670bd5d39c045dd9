"""Normal-form maps near a compact invariant manifold.

A map is stored in the block form

    f(s, u, x) = (A_s(x) s,  A_u(x) u,  g(x)) + r(s, u, x)

on U = B_rho x M, with the remainder r subject to five structural conditions:

    a) r(0, 0, x) = 0                   (the manifold itself is invariant)
    b) r_u(s, 0, x) = 0                 (the stable slice {u = 0} is invariant)
    c) r_s(0, u, x) = 0                 (the unstable slice {s = 0} is invariant)
    d) r_x(0, u, x) = r_x(s, 0, x) = 0  (on both slices the x-dynamics is g)
    e) ||A_s(x)|| <= lambda < 1 and ||A_u(x)^-1|| <= lambda < 1

This module evaluates such maps, assembles the exact block Jacobian, checks
the conditions numerically on quasi-random samples, and measures the constant
budget (k, C, C~, D, ...) that the inclination estimates run on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._fd import _fd_first, _fd_first_rows, _fd_second
from .exceptions import ContractError, OutOfNeighborhoodError
from .geometry import (
    TWO_PI,
    ChartPoint,
    ChartTopology,
    Dimensions,
    _as_float_vector,
    _count,
    _max_keep_nan,
    _normal_norm,
    mat_row_sup_norm,
    tensor_row_sup_norm,
    vec_sup_norm,
)

# Central-difference steps: balance truncation against roundoff at 64 bit.
FD_STEP_FIRST = 1e-6
FD_STEP_SECOND = 1e-4

# Grid rows whose derivatives estimate_bounds holds at once: 1.8 MB of
# second-derivative tensors at n = 6, whatever the grid's size.
BOUND_ROWS = 1024


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Immutable description of one normal-form map.

    The four defining callables take and return plain 1-d/2-d float arrays:
    ``A_s(x)``, ``A_u(x)`` yield the normal blocks, ``g_map(x)`` the manifold
    image (un-wrapped; angles are canonicalized only when points are built),
    and ``r_map(s, u, x)`` the remainder triple ``(r_s, r_u, r_x)``.

    Analytic derivatives are optional.  When present they must follow the
    block order (s, u, x): ``d_r`` is the full n x n Jacobian of r, ``d2_r``
    the n x n x n second-derivative tensor T[i, j, k] = d2 r_i / dz_j dz_k,
    ``d_A_s``/``d_A_u`` are (n_s, n_s, m)/(n_u, n_u, m) tensors of
    d A / d x_k, and ``d_g``/``d2_g`` differentiate the manifold map.
    Everything must be pure; evaluation order is never guaranteed.

    The mesh step, validation and the bound grid evaluate stacks of rows.
    A user's callables run once per row.  The built-in maps of ``models``
    carry a stacked form of each callable those read, so they run once per
    stack, with the same bits; a conjugated map evaluates a whole stack at
    once, its graphs once per row per sweep.
    """

    dims: Dimensions
    topo: ChartTopology
    rho: float
    lam: float
    A_s: Callable[[np.ndarray], np.ndarray]
    A_u: Callable[[np.ndarray], np.ndarray]
    g_map: Callable[[np.ndarray], np.ndarray]
    r_map: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    d_r: Optional[Callable] = None
    d2_r: Optional[Callable] = None
    d_A_s: Optional[Callable] = None
    d_A_u: Optional[Callable] = None
    d_g: Optional[Callable] = None
    d2_g: Optional[Callable] = None
    x_box: Optional[tuple] = None  # sampling ranges for linear manifold coords
    name: str = ""

    def __post_init__(self):
        if not self.rho > 0:  # a NaN radius fails this too
            raise ContractError(f"rho must be positive, got {self.rho}")
        if not (0.0 < self.lam < 1.0):
            raise ContractError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.topo.m != self.dims.m:
            raise ContractError("topology and dimensions disagree on m")
        if self.x_box is not None and len(self.x_box) != self.dims.m:
            raise ContractError("x_box must list one (lo, hi) range per manifold coordinate")

    def point(self, s, u, x) -> ChartPoint:
        return ChartPoint(np.atleast_1d(s), np.atleast_1d(u), np.atleast_1d(x), self.topo)

    def x_ranges(self) -> list:
        """Per-coordinate sampling ranges: angles get [0, 2*pi), linear
        coordinates their declared box (default (-1, 1))."""
        ranges = []
        for i, kind in enumerate(self.topo.kinds):
            if kind == "angle":
                ranges.append((0.0, TWO_PI))
            elif self.x_box is not None:
                ranges.append(tuple(map(float, self.x_box[i])))
            else:
                ranges.append((-1.0, 1.0))
        return ranges


@dataclass(frozen=True)
class _Stacked:
    """A callable of a built-in map with its stacked form.  Calling it runs ``one``, the one-point
    callable; ``rows`` takes the same arguments with a leading row axis and returns new arrays
    stacked along it (for ``r_map`` the three blocks, each N x block), each row with the bits of
    ``one`` there.  The mesh step, validation and the bound grid read ``rows``, so they evaluate such
    a callable once per stack."""

    one: Callable
    rows: Callable

    def __call__(self, *args):
        return self.one(*args)


def _rows(fn, shape: tuple, *args, one: Optional[Callable] = None) -> np.ndarray:
    """``fn`` at every row of the stacked arguments ``args``, as a new (N, *shape) stack: one call of
    its stacked form when it has one (a ``_Stacked`` callable or a ``_View``), otherwise one call of
    ``one`` (default ``fn``) per row."""
    if isinstance(fn, (_Stacked, _View)):
        return fn.rows(*args)
    one = fn if one is None else one
    out = np.empty((len(args[0]), *shape))
    for i, row in enumerate(zip(*args)):
        out[i] = one(*row)
    return out


def _in_row_order(read: Callable, count: int):
    """``read(slice(None))``, which reads all ``count`` rows of a stack at once.  When that raises,
    ``read`` runs again on one row at a time, so that the error raised is the one a loop over the
    rows raises first: the same type and message, from the same row."""
    try:
        return read(slice(None))
    except Exception:
        for i in range(count):
            read(slice(i, i + 1))
        raise


def _remainders(evaluate: Callable, S, U, X) -> tuple:
    """``evaluate(S, U, X)``, the evaluation of a stack of rows, and its remainder blocks; when that
    raises, the error is the first row's."""

    def read(rows):
        point = evaluate(S[rows], U[rows], X[rows])
        return point, point.r

    return _in_row_order(read, len(S))


def _columns(dims: Dimensions, Z: np.ndarray) -> tuple:
    """The s, u and x columns of the rows of Z, as views."""
    a, b = dims.n_s, dims.n_s + dims.n_u
    return Z[:, :a], Z[:, a:b], Z[:, b:]


def _linear_part(f: MapSpec, S, U, X) -> tuple:
    """(A_s(x) s, A_u(x) u, g(x)) at the rows (S, U, X), each a new N x block stack.  A(x) s is one
    stacked ``np.matmul``, the BLAS matrix-vector product of ``A @ s`` per row."""
    dims = f.dims
    return (
        np.matmul(_rows(f.A_s, (dims.n_s, dims.n_s), X), S[..., None])[..., 0],
        np.matmul(_rows(f.A_u, (dims.n_u, dims.n_u), X), U[..., None])[..., 0],
        _rows(f.g_map, (dims.m,), X, one=_g_flat(f)),
    )


def _image_blocks(f: MapSpec, S, U, X, r: tuple) -> tuple:
    """The blocks (S', U', X') of f at the rows (S, U, X) from their remainder blocks ``r``, each a
    new N x block stack, with angles in X' not yet wrapped."""
    return tuple(linear + block for linear, block in zip(_linear_part(f, S, U, X), r))


def _images(f: MapSpec, Z: np.ndarray) -> tuple:
    """The images of the rows (s, u, x) of Z (N x n) under f, as the rows of a new N x n array with
    x' not yet wrapped, and the rows' evaluation (``_evaluator``) for ``_jacobians`` to reuse.  One
    evaluation reads the remainders of all rows; when it raises, the error is the first row's."""
    S, U, X = _columns(f.dims, Z)
    point, r = _remainders(_evaluator(f, "r_map", "d_r"), S, U, X)
    return np.concatenate(_image_blocks(f, S, U, X, r), axis=1), point


def _image(f: MapSpec, s, u, x) -> tuple:
    """The blocks (s', u', x') of f at one point, angles in x' not yet wrapped: ``_images`` of one row."""
    return tuple(f.dims.split(_images(f, f.dims.join(s, u, x)[None])[0][0]))


def _check_ball(f: MapSpec, S, U) -> None:
    """Raises unless the normal part (s, u) of the point, or of every row of the stacks (S, U), lies
    in f's ball; the error names the norm of the first row outside."""
    norms = np.atleast_1d(np.abs(np.concatenate((S, U), axis=-1)).max(axis=-1))
    outside = norms[~(norms < f.rho)]
    if outside.size:
        raise OutOfNeighborhoodError(float(outside[0]), f.rho)


def apply_map(f: MapSpec, p: ChartPoint) -> ChartPoint:
    """Evaluate f at p; raises if p leaves the working ball."""
    _check_ball(f, p.s, p.u)
    return ChartPoint(*_image(f, p.s, p.u, p.x), f.topo)


def _r_flat(f: MapSpec):
    """The remainder r as a function of the concatenated coordinate z = (s, u, x)."""
    return lambda z: f.dims.join(*f.r_map(*f.dims.split(z)))


def _g_flat(f: MapSpec):
    """The base map g with its value flattened to a vector."""
    return lambda z: np.asarray(f.g_map(z), dtype=float).reshape(-1)


def _in_ball(f: MapSpec):
    """Membership of a concatenated coordinate z = (s, u, x) in f's working ball."""
    return lambda z: _normal_norm(*f.dims.split(z)[:2]) < f.rho


def _r_jacobian(f: MapSpec, s, u, x, h: float) -> np.ndarray:
    if f.d_r is not None:
        return np.asarray(f.d_r(s, u, x), dtype=float)
    return _fd_first(_r_flat(f), f.dims.join(s, u, x), h, inside=_in_ball(f))


@dataclass(frozen=True)
class _View:
    """``r_map``, ``d_r`` or ``d2_r`` of a map whose remainder and its derivatives at a stack of rows
    come from one evaluation: ``evaluate(S, U, X)`` returns an object with the remainder blocks ``r``
    (N x block each), the methods ``jacobian()`` and ``second()`` and ``take(rows)``, the evaluation
    of a subset of its rows.  ``rows`` reads the part named by ``part`` on a stack; calling the view
    reads it at one point, as a one-row stack."""

    evaluate: Callable
    part: str

    def rows(self, S, U, X):
        stack = self.evaluate(S, U, X)
        return stack.r if self.part == "r" else getattr(stack, self.part)()

    def __call__(self, s, u, x):
        out = self.rows(*(_as_float_vector(v)[None] for v in (s, u, x)))
        return tuple(block[0] for block in out) if self.part == "r" else out[0]


class _Given:
    """f at the rows (S, U, X) through its callables as given: reading ``r`` runs ``r_map``,
    ``jacobian()`` runs ``d_r`` (by differences of ``r_map`` with step ``h`` when absent) and
    ``second()`` runs ``d2_r`` (by differences when absent), each once per stack through its stacked
    form and otherwise once per row, in row order."""

    def __init__(self, f: MapSpec, S, U, X, h: float = FD_STEP_FIRST):
        self.f, self.S, self.U, self.X, self.h = f, S, U, X, h

    def take(self, rows) -> "_Given":
        return _Given(self.f, self.S[rows], self.U[rows], self.X[rows], self.h)

    @property
    def r(self) -> tuple:
        f, args = self.f, (self.S, self.U, self.X)
        if isinstance(f.r_map, (_Stacked, _View)):
            return f.r_map.rows(*args)
        joined = np.array([f.dims.join(*f.r_map(*row)) for row in zip(*args)]).reshape(len(self.S), f.dims.n)
        return _columns(f.dims, joined)

    def jacobian(self) -> np.ndarray:
        f, n = self.f, self.f.dims.n
        return _rows(f.d_r, (n, n), self.S, self.U, self.X, one=lambda s, u, x: _r_jacobian(f, s, u, x, self.h))

    def second(self) -> np.ndarray:
        f, n = self.f, self.f.dims.n
        return _rows(f.d2_r, (n, n, n), self.S, self.U, self.X, one=lambda s, u, x: _second_tensor(f, s, u, x))


def _shared_evaluation(f: MapSpec, *reads: str) -> Optional[Callable]:
    """The one evaluation that f's callables ``reads`` are all views of, or None when they are not
    (plain functions, or views of different evaluations after a ``dataclasses.replace``)."""
    views = [getattr(f, name) for name in reads]
    if all(isinstance(v, _View) and v.evaluate is views[0].evaluate for v in views):
        return views[0].evaluate
    return None


def _evaluator(f: MapSpec, *reads: str) -> Callable:
    """(S, U, X) -> f's remainder at those rows with its derivatives on demand, for a caller that
    reads f's callables ``reads``: their shared evaluation when there is one, otherwise ``_Given``,
    which reads each callable as it is."""
    return _shared_evaluation(f, *reads) or functools.partial(_Given, f)


def _g_jacobian(f: MapSpec, x, h: float) -> np.ndarray:
    if f.d_g is not None:
        return np.asarray(f.d_g(x), dtype=float)
    return _fd_first(_g_flat(f), x, h)


def _a_tensor(f: MapSpec, which: str, x, h: float) -> np.ndarray:
    """d A / d x as an (n, n, m) tensor, analytic when available."""
    fun = f.A_s if which == "s" else f.A_u
    der = f.d_A_s if which == "s" else f.d_A_u
    if der is not None:
        return np.asarray(der(x), dtype=float)
    size = f.dims.n_s if which == "s" else f.dims.n_u
    cols = _fd_first(lambda z: np.asarray(fun(z), dtype=float).reshape(-1), x, h)
    return cols.reshape(size, size, -1)


def _a_tensors(f: MapSpec, which: str, X: np.ndarray, h: float) -> np.ndarray:
    """``_a_tensor`` at the rows of X, as a new (N, k, k, m) stack."""
    size = f.dims.n_s if which == "s" else f.dims.n_u
    der = f.d_A_s if which == "s" else f.d_A_u
    return _rows(der, (size, size, f.dims.m), X, one=lambda x: _a_tensor(f, which, x, h))


def jacobian(f: MapSpec, p: ChartPoint, h: float = FD_STEP_FIRST) -> np.ndarray:
    """Exact block Jacobian of f at p in (s, u, x) layout.

    Row by row:

        [ A_s + d_s r_s   d_u r_s   d_x r_s + (d_x A_s) s ]
        [     d_s r_u   A_u + d_u r_u   d_x r_u + (d_x A_u) u ]
        [     d_s r_x       d_u r_x     d_x g + d_x r_x    ]

    Analytic derivatives are used when the MapSpec carries them; otherwise
    central differences with step h (one-sided next to the boundary of U).
    """
    if not p.in_ball(f.rho):
        raise OutOfNeighborhoodError(p.normal_norm, f.rho)
    if not h > 0:  # a NaN step fails this too
        raise ContractError(f"finite-difference step must be positive, got {h}")
    return _jacobians(f, p.as_array()[None], h)[0]


def _jacobians(f: MapSpec, Z: np.ndarray, h: float, points=None) -> np.ndarray:
    """The block Jacobians (N x n x n) of f at the rows (s, u, x) of Z (N x n), which must lie in the ball.

    The Jacobians of r come first, from the rows' evaluation ``points``
    when the caller has it (as ``_images`` returns it), else from ``_Given``
    with step ``h``.  Then the linear blocks; each block addition runs once
    over the stack, and the five blocks touch disjoint entries, so every row
    has the bits of its own sum.
    """
    if points is None:
        points = _Given(f, *_columns(f.dims, Z), h)
    jac = points.jacobian()
    for rows, cols, block in _linear_blocks(f, Z, h):
        jac[:, rows, cols] += block
    return jac


def _linear_blocks(f: MapSpec, Z: np.ndarray, h: float) -> tuple:
    """The (rows, cols, blocks) pieces that ``_jacobians`` adds to the Jacobians of r at the rows
    (s, u, x) of Z: A_s, A_u, d_x g, (d_x A_s) s and (d_x A_u) u, each stacked over the rows, from
    the callables' stacked forms where they have them and row by row otherwise."""
    n_s, n_u, m = f.dims.n_s, f.dims.n_u, f.dims.m
    a, b = n_s, n_s + n_u  # the u block is a:b, the x block b:
    sl_s, sl_u, sl_x = slice(None, a), slice(a, b), slice(b, None)
    S, U, X = _columns(f.dims, Z)
    d_a_s, d_a_u = _a_tensors(f, "s", X, h), _a_tensors(f, "u", X, h)
    return (
        (sl_s, sl_s, _rows(f.A_s, (n_s, n_s), X)),
        (sl_u, sl_u, _rows(f.A_u, (n_u, n_u), X)),
        (sl_x, sl_x, _rows(f.d_g, (m, m), X, one=lambda x: _g_jacobian(f, x, h))),
        (sl_s, sl_x, np.einsum("nijk,nj->nik", d_a_s, S)),
        (sl_u, sl_x, np.einsum("nijk,nj->nik", d_a_u, U)),
    )


def _linear_second(f: MapSpec, S, U, X) -> np.ndarray:
    """D^2 of the linear part (A_s(x) s, A_u(x) u, g(x)) at the rows (S, U, X) as a stack of
    T[i, j, k]: d_x A in the (s, x) and (u, x) pairs, (d_x d_x A) s and (d_x d_x A) u from central
    differences of ``_a_tensor`` in x, and the second derivatives of g in the x rows.  Each row's
    contraction with s and u rounds as the one-point einsum "ijkl,j->ikl" does."""
    dims = f.dims
    a, b = dims.n_s, dims.n_s + dims.n_u  # the u block is a:b, the x block b:
    t = np.zeros((len(X), dims.n, dims.n, dims.n))
    for which, rows, V in (("s", slice(None, a), S), ("u", slice(a, b), U)):
        d_a = _a_tensors(f, which, X, FD_STEP_FIRST)  # d_a[:, i, j, k] = d A[i, j] / d x_k
        flat = math.prod(d_a.shape[1:])
        dd_a = _fd_first_rows(lambda Y: _a_tensors(f, which, Y, FD_STEP_FIRST).reshape(len(Y), flat), X,
                              FD_STEP_SECOND).reshape(*d_a.shape, -1)
        t[:, rows, rows, b:] = d_a
        t[:, rows, b:, rows] = d_a.transpose(0, 1, 3, 2)
        t[:, rows, b:, b:] = np.einsum("nijkl,nj->nikl", dd_a, V)
    t[:, b:, b:, b:] = _rows(f.d2_g, (dims.m,) * 3, X, one=lambda x: _g_second_tensor(f, x))
    return t


# ---------------------------------------------------------------------------
# Condition validation


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    description: str
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple
    sample_count: int
    tol: float
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "sample_count": self.sample_count,
            "tol": self.tol,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _primes(count: int) -> list:
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found):
            found.append(n)
        n += 1
    return found


def _unit_samples(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy samples in the unit cube.

    Scrambled Halton points (Owen, "A randomized Halton algorithm in R",
    arXiv:1706.02808): coordinate i is the radical inverse of the point index
    in the i-th prime base, with each digit position passed through its own
    random permutation.  One permutation per digit that still changes a
    double (base**-k > 2**-54) is drawn from ``default_rng(seed)``, so the
    points match ``scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed)``
    bit for bit.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((count, dim))
    for col, base in enumerate(_primes(dim)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(count)
        b2r = 1.0 / base
        for perm in perms:
            out[:, col] += perm[q % base] * b2r
            b2r /= base
            q //= base
    return out


def _scale_normal(t: np.ndarray, rho: float) -> np.ndarray:
    # strictly inside the open ball
    return (2.0 * t - 1.0) * rho * (1.0 - 1e-9)


def _scale_manifold(t: np.ndarray, ranges: list) -> np.ndarray:
    out = np.empty_like(t)
    for i, (lo, hi) in enumerate(ranges):
        out[:, i] = lo + t[:, i] * (hi - lo)
    return out


def validate_conditions(f: MapSpec, sample_count: int = 256, tol: float = 1e-10, seed: int = 0) -> ConditionReport:
    """Check conditions a)-e) plus their first-order consequences on samples.

    Violations are measured in sup norms; condition e) additionally covers
    singular A_u(x) (reported as an infinite violation rather than raised).
    The derivative consequences are the slice identities d_s r_u = d_x r_u = 0
    on {u=0}, d_u r_s = d_x r_s = 0 on {s=0}, and the matching r_x blocks.
    """
    sample_count = _count(sample_count, "sample_count", 1)
    seed = _count(seed, "seed")
    if not tol > 0:  # a NaN tolerance fails this too
        raise ContractError(f"tol must be positive, got {tol}")
    dims = f.dims
    n_s, n_u, m = dims.n_s, dims.n_u, dims.m
    ranges = f.x_ranges()

    t = _unit_samples(n_s + n_u + m, sample_count, seed)
    s_samp = _scale_normal(t[:, :n_s], f.rho)
    u_samp = _scale_normal(t[:, n_s : n_s + n_u], f.rho)
    x_samp = _scale_manifold(t[:, n_s + n_u :], ranges)

    def sup(*blocks):
        """Sup norm over all entries of the given stacked blocks, NaN kept."""
        return _max_keep_nan(0.0, *(vec_sup_norm(b) for b in blocks))

    evaluate = _evaluator(f, "r_map", "d_r")

    def slices(lo: int, hi: int) -> tuple:
        """The evaluation of samples lo..hi at their zero section, stable slice and unstable slice,
        in this order per sample, and its remainder blocks, each (samples, 3, block)."""
        S = np.zeros((hi - lo, 3, n_s))
        U = np.zeros((hi - lo, 3, n_u))
        S[:, 1], U[:, 2] = s_samp[lo:hi], u_samp[lo:hi]
        point, r = _remainders(evaluate, S.reshape(-1, n_s), U.reshape(-1, n_u), np.repeat(x_samp[lo:hi], 3, axis=0))
        return point, [block.reshape(hi - lo, 3, -1) for block in r]

    # one stack for the derivative samples, whose slice rows give the derivative checks below, then
    # stacks of at most BOUND_ROWS rows for the rest
    deriv_count = min(sample_count, 32)
    per_stack = max(1, BOUND_ROWS // 3)
    first, r = slices(0, deriv_count)
    starts = range(deriv_count, sample_count, per_stack)
    stacks = [r] + [slices(lo, min(lo + per_stack, sample_count))[1] for lo in starts]
    viol_a = viol_b = viol_c = viol_d = 0.0
    for r_s, r_u, r_x in stacks:
        viol_a = _max_keep_nan(viol_a, sup(r_s[:, 0], r_u[:, 0], r_x[:, 0]))
        viol_b = _max_keep_nan(viol_b, sup(r_u[:, 1]))
        viol_c = _max_keep_nan(viol_c, sup(r_s[:, 2]))
        viol_d = _max_keep_nan(viol_d, sup(r_x[:, 1], r_x[:, 2]))

    viol_e = 0.0
    for i in range(sample_count):
        x_i = x_samp[i]
        viol_e = _max_keep_nan(viol_e, mat_row_sup_norm(f.A_s(x_i)) - f.lam)
        a_u = np.asarray(f.A_u(x_i), dtype=float)
        try:
            inv = np.linalg.inv(a_u)
        except np.linalg.LinAlgError:
            viol_e = math.inf
            continue
        viol_e = _max_keep_nan(viol_e, mat_row_sup_norm(inv) - f.lam)
    viol_e = _max_keep_nan(viol_e, 0.0)

    # First-order consequences, on the slice rows of the first samples: the r-blocks of the other
    # normal direction and of x must not move with the slice's own direction or with x
    sl_s = slice(0, n_s)
    sl_u = slice(n_s, n_s + n_u)
    sl_x = slice(n_s + n_u, dims.n)
    on_slices = np.arange(3 * deriv_count).reshape(-1, 3)[:, 1:].reshape(-1)  # (s, 0, x) then (0, u, x)
    jac = _in_row_order(lambda rows: first.take(on_slices[rows]).jacobian(), len(on_slices))
    on_s, on_u = jac[0::2], jac[1::2]
    viol_bc = sup(on_s[:, sl_u, sl_s], on_s[:, sl_u, sl_x], on_u[:, sl_s, sl_u], on_u[:, sl_s, sl_x])
    viol_dd = sup(on_s[:, sl_x, sl_s], on_s[:, sl_x, sl_x], on_u[:, sl_x, sl_u], on_u[:, sl_x, sl_x])

    checks = (
        ConditionCheck("a", "r(0,0,x) = 0: the manifold is invariant", viol_a, tol),
        ConditionCheck("b", "r_u(s,0,x) = 0: stable slice is straight", viol_b, tol),
        ConditionCheck("c", "r_s(0,u,x) = 0: unstable slice is straight", viol_c, tol),
        ConditionCheck("d", "r_x = 0 on both slices: x-dynamics conjugate to g", viol_d, tol),
        ConditionCheck("e", "||A_s|| <= lambda and ||A_u^-1|| <= lambda", viol_e, tol),
        ConditionCheck("derivatives_bc", "slice remainder Jacobian blocks vanish (b, c)", viol_bc, tol),
        ConditionCheck("derivatives_d", "slice r_x derivative blocks vanish (d)", viol_dd, tol),
    )
    return ConditionReport(checks=checks, sample_count=sample_count, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# Constant budget


@dataclass(frozen=True)
class BoundSet:
    """Measured constants of one map plus the slab quantities derived from them.

    Only the constants are given; ``mu_star``, ``eps_s`` and ``delta`` are
    computed from them at construction, so ``dataclasses.replace`` recomputes
    them too.  ``eps_s`` is the half-width of the stable slab on which the
    persistence argument runs, chosen as the infimum of the two admissible
    branches (capped at rho); ``delta = (C+1) eps_s`` bounds the
    slice-vanishing first derivatives there, and ``mu_star`` is the
    inclination-denominator factor at ``target_eps``.  ``c_excluded`` reports
    the second-derivative mass of the (sigma' = s) blocks, which the budget
    deliberately leaves out.
    """

    lam: float
    k: float
    C: float
    C_tilde: float
    D: float
    rho: float
    target_eps: float
    c_excluded: float = 0.0
    mu_star: float = field(init=False)
    eps_s: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        lam, k, C, eps, gap = self.lam, self.k, self.C, self.target_eps, self.gap
        denom = 1.0 - ((2.0 * k + C * self.rho) / gap) * eps
        if denom <= 0.0:
            mu_star = math.inf
            eps_s = 0.0
        else:
            mu_star = 1.0 / denom
            branch_x = eps * (gap / mu_star) * (1.0 - k * mu_star / gap) / (C + 1.0 + eps * (self.C_tilde + C + 1.0))
            branch_s = eps * (1.0 - (lam + k) * mu_star / gap) / (C + 1.0 + (2.0 * C + 1.0) * eps)
            if math.isnan(branch_x) or math.isnan(branch_s):
                eps_s = math.nan  # min/max would drop it and read an unknown slab as an empty one
            else:
                eps_s = max(0.0, min(branch_x, branch_s, self.rho))
        object.__setattr__(self, "mu_star", mu_star)
        object.__setattr__(self, "eps_s", eps_s)
        object.__setattr__(self, "delta", (C + 1.0) * eps_s)

    @property
    def gap(self) -> float:
        """lambda^-1 - k, the effective one-step expansion floor."""
        return 1.0 / self.lam - self.k

    @property
    def lk1_ok(self) -> bool:
        return 0.0 < self.lam + self.k < 1.0

    @property
    def lk2_ok(self) -> bool:
        return self.gap > 1.0

    @property
    def slab_ok(self) -> bool:
        return self.eps_s > 0.0

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "k": self.k,
            "C": self.C,
            "C_tilde": self.C_tilde,
            "D": self.D,
            "rho": self.rho,
            "eps_s": self.eps_s,
            "delta": self.delta,
            "mu_star": self.mu_star,
            "target_eps": self.target_eps,
            "c_excluded": self.c_excluded,
            "lk1_ok": self.lk1_ok,
            "lk2_ok": self.lk2_ok,
        }


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    holds: bool
    slack: float

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "slack": self.slack}


def check_constants(b: BoundSet) -> tuple:
    """Evaluate the four standing inequalities with their numeric slack."""
    rate = (b.k + b.lam) - b.k / b.gap
    contraction = 1.0 - ((b.lam + b.k) / b.gap) * b.mu_star
    return (
        ConstraintCheck("lambda_plus_k_below_one", b.lk1_ok, 1.0 - (b.lam + b.k)),
        ConstraintCheck("inverse_gap_above_one", b.lk2_ok, b.gap - 1.0),
        ConstraintCheck("inclination_rate_below_budget", rate > 0.0, rate),
        ConstraintCheck("slab_contraction", contraction > 0.0, contraction),
    )


def _bound_grid(f: MapSpec, density: int, margin: float) -> np.ndarray:
    """Regular product grid over the sampling box.

    ``density`` counts subdivisions per axis: bounded axes get density+1 nodes
    including both endpoints, periodic axes density nodes without the wrap
    duplicate.  Doubling the density therefore refines every axis in place,
    which keeps the sampled sups monotone under refinement.
    """
    dims = f.dims
    half = f.rho * (1.0 - 1e-9) - margin
    if half <= 0:
        half = 0.5 * f.rho
    axes = []
    for _ in range(dims.n_s + dims.n_u):
        axes.append(np.linspace(-half, half, density + 1))
    for (lo, hi), kind in zip(f.x_ranges(), f.topo.kinds):
        if kind == "angle":
            axes.append(np.linspace(lo, hi, density, endpoint=False))
        else:
            axes.append(np.linspace(lo, hi, density + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _second_tensor(f: MapSpec, s, u, x) -> np.ndarray:
    if f.d2_r is not None:
        return np.asarray(f.d2_r(s, u, x), dtype=float)
    return _fd_second(_r_flat(f), f.dims.join(s, u, x), FD_STEP_SECOND)


def _g_second_tensor(f: MapSpec, x) -> np.ndarray:
    if f.d2_g is not None:
        return np.asarray(f.d2_g(x), dtype=float)
    return _fd_second(_g_flat(f), x, FD_STEP_SECOND)


def estimate_bounds(f: MapSpec, grid_density: int = 7, target_eps: float = 1e-2) -> BoundSet:
    """Sample the constant budget on a regular grid and derive the slab.

    k is the sup of ||Dr||; C sups the second derivatives of r_s and r_x over
    differentiation pairs (sigma in {s,u,x}, sigma' in {u,x}); C~ sups the
    second derivative of g; D sups ||d_x A_s||.  Sampling (from below) is
    monotone under grid-density doubling.  Whether the
    measured k actually satisfies the standing inequalities is reported by
    ``check_constants`` / the BoundSet flags, never raised.

    The grid is read in stacks of at most ``BOUND_ROWS`` rows: one
    evaluation per stack gives the derivatives of r at all its rows, then
    the per-x C~ and D terms run once per new x.  A stack that raises is
    read again row by row, so the error is the first grid row's, as a
    per-row pass raises it.  k, C and ``c_excluded`` are one
    ``tensor_row_sup_norm`` per block over each stack.  Each |.|-sum still runs
    along one output row's flattened block, and the max is exact and keeps
    a NaN from any row, so the constants have the bits of a per-row pass.
    """
    grid_density = _count(grid_density, "grid_density", 2)
    if not target_eps > 0:  # a NaN target fails this too
        raise ContractError(f"target_eps must be positive, got {target_eps}")
    dims = f.dims
    n = dims.n
    sl_s = slice(0, dims.n_s)
    sl_u = slice(dims.n_s, dims.n_s + dims.n_u)
    sl_x = slice(dims.n_s + dims.n_u, n)
    margin = 0.0 if (f.d_r is not None and f.d2_r is not None) else 2.5 * FD_STEP_SECOND
    grid = _bound_grid(f, grid_density, margin)

    def row_sup(t: np.ndarray, *index) -> float:
        """``tensor_row_sup_norm`` over the blocks t[row][index] of all stacked rows at once,
        their output rows stacked as the rows of one tensor."""
        block = t[(slice(None), *index)]
        return tensor_row_sup_norm(block.reshape(-1, *block.shape[2:]))

    k = 0.0
    c_listed = 0.0
    c_excluded = 0.0
    c_tilde = 0.0
    d_bound = 0.0
    # (i, sigma, sigma') for i in {s, x}, sigma in {s, u, x}: sigma' in {u, x} is C, sigma' = s is excluded
    listed = [(rows, sig, sig2) for rows in (sl_s, sl_x) for sig in (sl_s, sl_u, sl_x) for sig2 in (sl_u, sl_x)]
    excluded = [(rows, sig, sl_s) for rows in (sl_s, sl_x) for sig in (sl_s, sl_u, sl_x)]
    size = min(BOUND_ROWS, len(grid))
    seen_x = set()
    evaluate = _evaluator(f, "d_r", "d2_r")

    def read(chunk: np.ndarray) -> tuple:
        """The rows' Jacobians and second derivatives of r, then C~ and D terms at each x of the
        rows not yet seen, as (key, term, term) in row order."""
        point = evaluate(*_columns(dims, chunk))
        jac, t2 = point.jacobian(), point.second()
        x_terms, keys = [], set(seen_x)
        for x_i in chunk[:, sl_x]:
            x_key = x_i.tobytes()
            if x_key not in keys:
                keys.add(x_key)
                g2 = tensor_row_sup_norm(_g_second_tensor(f, x_i))
                x_terms.append((x_key, g2, tensor_row_sup_norm(_a_tensor(f, "s", x_i, FD_STEP_FIRST))))
        return jac, t2, x_terms

    for start in range(0, len(grid), size):
        chunk = grid[start : start + size]
        jac, t2, x_terms = _in_row_order(lambda rows: read(chunk[rows]), len(chunk))
        for x_key, g2, d_a in x_terms:
            seen_x.add(x_key)
            c_tilde = _max_keep_nan(c_tilde, g2)
            d_bound = _max_keep_nan(d_bound, d_a)
        k = _max_keep_nan(k, row_sup(jac))
        c_listed = _max_keep_nan(c_listed, *(row_sup(t2, *index) for index in listed))
        c_excluded = _max_keep_nan(c_excluded, *(row_sup(t2, *index) for index in excluded))
    return BoundSet(
        lam=f.lam,
        k=k,
        C=c_listed,
        C_tilde=c_tilde,
        D=d_bound,
        rho=f.rho,
        target_eps=target_eps,
        c_excluded=c_excluded,
    )
