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

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._fd import _fd_first_rows, _fd_second_rows
from .exceptions import ContractError, OutOfNeighborhoodError
from .geometry import (
    TWO_PI,
    ChartPoint,
    ChartTopology,
    Dimensions,
    _as_float_vector,
    _count,
    _finite,
    _max_keep_nan,
    _positive,
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

    The library reads every callable in one contract, on stacks of rows
    (``_Stacked``).  Construction wraps each plain callable once in a
    per-row adapter, so a user's callable runs once per row, in row order;
    the built-in maps of ``models`` pass stacked forms, which run once per
    stack with the same bits, and a conjugated map evaluates a whole stack
    at once.  ``dataclasses.replace`` wraps only the callables it replaces.
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
        object.__setattr__(self, "rho", _positive(self.rho, "rho"))
        if not (0.0 < self.lam < 1.0):
            raise ContractError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.topo.m != self.dims.m:
            raise ContractError("topology and dimensions disagree on m")
        if self.x_box is not None:
            if len(self.x_box) != self.dims.m:
                raise ContractError("x_box must list one (lo, hi) range per manifold coordinate")
            object.__setattr__(self, "x_box", tuple((_finite(a, "x_box"), _finite(b, "x_box")) for a, b in self.x_box))
        n_s, n_u, m, n = self.dims.n_s, self.dims.n_u, self.dims.m, self.dims.n
        shapes = dict(A_s=[(n_s, n_s)], A_u=[(n_u, n_u)], g_map=[(m,)], r_map=[(n_s,), (n_u,), (m,)],
                      d_r=[(n, n)], d2_r=[(n, n, n)], d_A_s=[(n_s, n_s, m)], d_A_u=[(n_u, n_u, m)],
                      d_g=[(m, m)], d2_g=[(m, m, m)])
        for name, block_shapes in shapes.items():
            object.__setattr__(self, name, _stacked(getattr(self, name), *block_shapes, name=name))

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
                ranges.append(self.x_box[i])
            else:
                ranges.append((-1.0, 1.0))
        return ranges


@dataclass(frozen=True, eq=False)
class _Stacked:
    """A callable in the one contract the library reads: ``rows`` takes its arguments with a leading
    row axis and returns new stacks along it (a tuple of them for a callable of several blocks),
    each row with the bits of the callable there.  ``evaluate`` is the one evaluation that ``rows``
    reads a part of, when there is one (``_shared_evaluation``).  ``point`` reads one point on float
    vectors: a per-row adapter calls its function once (``_stacked``), and any other reads a one-row
    stack.  Calling it converts its arguments to float vectors and reads ``point``."""

    rows: Callable
    evaluate: Optional[Callable] = None
    point: Optional[Callable] = None

    def __post_init__(self):
        if self.point is None:
            rows = self.rows
            object.__setattr__(self, "point", lambda *args: _row(rows(*(v[None] for v in args))))

    def __call__(self, *args):
        return self.point(*map(_as_float_vector, args))


def _row(out):
    """The first row of a stack, or of each stack in a tuple of them."""
    return tuple(block[0] for block in out) if isinstance(out, tuple) else out[0]


def _fit(name: str, value, shape, rows: Optional[int] = None):
    """``value``, what the callable ``name`` returns, in the shape of its block, ``shape``: the same
    array when it is an array of that shape, else a float array of its entries.  A value fits only
    when its shape is its block's, or when both hold one entry; a shape of None is the value's own,
    at least 1-d.  A ``shape`` that is a list holds the shapes of several blocks, the items of
    ``value``, fitted in turn into a tuple.  With ``rows`` given, ``value`` is a stack of that many
    rows and ``shape`` a row's: an array with the rows along its first axis, or a list of row values,
    stacked into one new float array.  None, a wrong number of blocks and a value that does not fit
    are refused with a ContractError that names ``name``."""
    if type(value) is np.ndarray and value.shape == (shape if rows is None else (rows, *shape)):
        return value
    if value is None:
        raise ContractError(f"{name} returned None, which a float block would store as NaN")
    if type(shape) is list:
        blocks = tuple(value)
        if len(blocks) != len(shape):
            raise ContractError(f"{name} returns a value of length {len(blocks)} where it has {len(shape)} blocks")
        return tuple(_fit(name, block, block_shape, rows) for block, block_shape in zip(blocks, shape))
    if type(value) is list and rows is not None:
        if not value:
            return np.empty((0, *shape))
        try:
            stack = np.array(value, dtype=float)  # never broadcasts: rows of another shape make another stack
        except ValueError:  # rows of different shapes
            stack = None
        if stack is not None and stack.shape == (rows, *shape):
            return stack
        if stack is None or any(row is None for row in value):  # the first row that does not fit is refused
            return np.array([_fit(name, row, shape) for row in value], dtype=float)
        value = stack
    array = np.asarray(value, dtype=float)
    got = array.shape if rows is None else array.shape[1:]
    if shape is None:
        shape = got or (1,)
    if got != shape and not math.prod(got) == 1 == math.prod(shape):
        raise ContractError(f"{name} returns a value of shape {got} where its block has shape {shape}")
    return array.reshape(shape if rows is None else (rows, *shape))


def _stacked(fn, *shapes, name: str = "a callable"):
    """``fn`` in the stacked contract: as it is when it already is a ``_Stacked`` (or None), otherwise
    its per-row adapter, whose ``rows`` calls ``fn`` once per row, in row order, and stacks its values,
    fitted to their blocks (``_fit``), into one new (N, *shape) stack per block.  The blocks are the
    items of the value when ``shapes`` names several, else the value is the one block.  A shape given
    as None, or the one shape when none is given, is the first value's, read once and kept; before
    that, a stack of no rows has blocks of width 0.  Once its one block's shape is known, a one-point
    read calls ``fn`` once and returns a new copy of its fitted value, with no stack built around the
    point; before that, and for several blocks, it is a one-row ``rows``.  A ValueError that ``fn``
    raises propagates as it is."""
    if fn is None or isinstance(fn, _Stacked):
        return fn
    shapes = list(shapes) or [None]
    several = len(shapes) > 1
    one = None if several else shapes[0]  # the shape of the one block, once known

    def rows(*args):
        nonlocal one
        values = list(map(fn, *args))
        if values and None in shapes:  # the first value read gives the shapes not yet known
            first = _fit(name, values[0], shapes if several else one)
            shapes[:] = [block.shape for block in first] if several else [first.shape]
            one = None if several else shapes[0]
        if not several:
            return _fit(name, values, one or (0,), len(values))
        blocks = [_fit(name, value, shapes) for value in values]
        return tuple(_fit(name, [value[j] for value in blocks], shape or (0,), len(values))
                     for j, shape in enumerate(shapes))

    def point(*args):
        if one is None:  # several blocks, or a shape not yet read
            return _row(rows(*(v[None] for v in args)))
        return _fit(name, fn(*args), one).astype(float)

    return _Stacked(rows, point=point)


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
    return (
        np.matmul(f.A_s.rows(X), S[..., None])[..., 0],
        np.matmul(f.A_u.rows(X), U[..., None])[..., 0],
        f.g_map.rows(X),
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


class _Given:
    """f at the rows (S, U, X) through its callables as given: reading ``r`` runs ``r_map``,
    ``jacobian()`` runs ``d_r`` and ``second()`` runs ``d2_r``, each once per stack.  Without
    ``d_r`` or ``d2_r`` they difference ``r_map`` instead, in one read of all the probes: first
    differences with step ``h``, one-sided next to the boundary of U, and second differences."""

    def __init__(self, f: MapSpec, S, U, X, h: float = FD_STEP_FIRST):
        self.f, self.S, self.U, self.X, self.h = f, S, U, X, h

    def take(self, rows) -> "_Given":
        return _Given(self.f, self.S[rows], self.U[rows], self.X[rows], self.h)

    @property
    def r(self) -> tuple:
        return self.f.r_map.rows(self.S, self.U, self.X)

    def _flat_r(self, Z: np.ndarray) -> np.ndarray:
        """r at the rows (s, u, x) of Z, as the rows of a new N x n array."""
        return np.concatenate(self.f.r_map.rows(*_columns(self.f.dims, Z)), axis=1)

    def jacobian(self) -> np.ndarray:
        f, a = self.f, self.f.dims.n_s + self.f.dims.n_u
        if f.d_r is None:
            return _fd_first_rows(self._flat_r, np.concatenate((self.S, self.U, self.X), axis=1), self.h,
                                  inside=lambda P: np.abs(P[:, :a]).max(axis=1) < f.rho)
        return f.d_r.rows(self.S, self.U, self.X)

    def second(self) -> np.ndarray:
        if self.f.d2_r is None:
            return _fd_second_rows(self._flat_r, np.concatenate((self.S, self.U, self.X), axis=1), FD_STEP_SECOND)
        return self.f.d2_r.rows(self.S, self.U, self.X)


def _shared_evaluation(f: MapSpec, *reads: str) -> Optional[Callable]:
    """The one evaluation that f's callables ``reads`` are all parts of, or None when they are not
    (callables as given, or parts of different evaluations after a ``dataclasses.replace``)."""
    shared = [getattr(getattr(f, name), "evaluate", None) for name in reads]  # None for an absent callable
    return shared[0] if shared[0] is not None and all(e is shared[0] for e in shared) else None


def _evaluator(f: MapSpec, *reads: str) -> Callable:
    """(S, U, X) -> f's remainder at those rows with its derivatives on demand, for a caller that
    reads f's callables ``reads``: their shared evaluation when there is one, otherwise ``_Given``,
    which reads each callable as it is."""
    return _shared_evaluation(f, *reads) or functools.partial(_Given, f)


def _a_tensors(f: MapSpec, which: str, X: np.ndarray, h: float) -> np.ndarray:
    """d A / d x at the rows of X, as a new (N, k, k, m) stack: ``d_A_s`` or ``d_A_u``, or central
    differences with step h of ``A_s`` or ``A_u`` when absent."""
    size = f.dims.n_s if which == "s" else f.dims.n_u
    der = f.d_A_s if which == "s" else f.d_A_u
    if der is not None:
        return der.rows(X)
    fun = f.A_s if which == "s" else f.A_u
    cols = _fd_first_rows(lambda Y: fun.rows(Y).reshape(len(Y), size * size), X, h)
    return cols.reshape(len(X), size, size, f.dims.m)


def _g_jacobians(f: MapSpec, X: np.ndarray, h: float) -> np.ndarray:
    """d_x g at the rows of X, as a new (N, m, m) stack: ``d_g``, or central differences of g."""
    return f.d_g.rows(X) if f.d_g is not None else _fd_first_rows(f.g_map.rows, X, h)


def _g_seconds(f: MapSpec, X: np.ndarray) -> np.ndarray:
    """D^2 g at the rows of X, as a new (N, m, m, m) stack: ``d2_g``, or second differences of g."""
    return f.d2_g.rows(X) if f.d2_g is not None else _fd_second_rows(f.g_map.rows, X, FD_STEP_SECOND)


def jacobian(f: MapSpec, p: ChartPoint, h: float = FD_STEP_FIRST) -> np.ndarray:
    """Exact block Jacobian of f at p in (s, u, x) layout.

    Row by row:

        [ A_s + d_s r_s   d_u r_s   d_x r_s + (d_x A_s) s ]
        [     d_s r_u   A_u + d_u r_u   d_x r_u + (d_x A_u) u ]
        [     d_s r_x       d_u r_x     d_x g + d_x r_x    ]

    Analytic derivatives are used when the MapSpec carries them; otherwise
    central differences with step h (one-sided next to the boundary of U).
    """
    _check_ball(f, p.s, p.u)
    return _jacobians(f, p.as_array()[None], _positive(h, "h"))[0]


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
    (s, u, x) of Z: A_s, A_u, d_x g, (d_x A_s) s and (d_x A_u) u, each stacked over the rows."""
    a, b = f.dims.n_s, f.dims.n_s + f.dims.n_u  # the u block is a:b, the x block b:
    sl_s, sl_u, sl_x = slice(None, a), slice(a, b), slice(b, None)
    S, U, X = _columns(f.dims, Z)
    d_a_s, d_a_u = _a_tensors(f, "s", X, h), _a_tensors(f, "u", X, h)
    return (
        (sl_s, sl_s, f.A_s.rows(X)),
        (sl_u, sl_u, f.A_u.rows(X)),
        (sl_x, sl_x, _g_jacobians(f, X, h)),
        (sl_s, sl_x, np.einsum("nijk,nj->nik", d_a_s, S)),
        (sl_u, sl_x, np.einsum("nijk,nj->nik", d_a_u, U)),
    )


def _linear_second(f: MapSpec, S, U, X) -> np.ndarray:
    """D^2 of the linear part (A_s(x) s, A_u(x) u, g(x)) at the rows (S, U, X) as a stack of
    T[i, j, k]: d_x A in the (s, x) and (u, x) pairs, (d_x d_x A) s and (d_x d_x A) u from central
    differences of ``_a_tensors`` in x, and the second derivatives of g in the x rows.  Each row's
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
    t[:, b:, b:, b:] = _g_seconds(f, X)
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
    tol = _positive(tol, "tol")
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

    # stacks of BOUND_ROWS // 3 samples, never fewer than the 32 whose slice rows give the derivative checks below
    per_stack = max(32, BOUND_ROWS // 3)
    first, r = slices(0, min(per_stack, sample_count))
    stacks = [r] + [slices(lo, min(lo + per_stack, sample_count))[1] for lo in range(per_stack, sample_count, per_stack)]
    viol_a = viol_b = viol_c = viol_d = 0.0
    for r_s, r_u, r_x in stacks:
        viol_a = _max_keep_nan(viol_a, sup(r_s[:, 0], r_u[:, 0], r_x[:, 0]))
        viol_b = _max_keep_nan(viol_b, sup(r_u[:, 1]))
        viol_c = _max_keep_nan(viol_c, sup(r_s[:, 2]))
        viol_d = _max_keep_nan(viol_d, sup(r_x[:, 1], r_x[:, 2]))

    # condition e) on one stack of all samples; a singular A_u(x) reads an infinite violation
    A_s, A_u = _in_row_order(lambda rows: (f.A_s.rows(x_samp[rows]), f.A_u.rows(x_samp[rows])), sample_count)
    try:
        inv = np.linalg.inv(A_u)
    except np.linalg.LinAlgError:
        inv = np.full(A_u.shape, math.inf)
        for i, a_u in enumerate(A_u):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(a_u)
    # the induced norm is a max over matrix rows: the rows of all samples at once give the sup
    norms = (mat_row_sup_norm(A.reshape(-1, A.shape[-1])) for A in (A_s, inv))
    viol_e = _max_keep_nan(0.0, *(norm - f.lam for norm in norms))

    # First-order consequences, on the slice rows of the first samples: the r-blocks of the other
    # normal direction and of x must not move with the slice's own direction or with x
    sl_s = slice(0, n_s)
    sl_u = slice(n_s, n_s + n_u)
    sl_x = slice(n_s + n_u, dims.n)
    on_slices = np.arange(3 * min(sample_count, 32)).reshape(-1, 3)[:, 1:].reshape(-1)  # (s, 0, x) then (0, u, x)
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
    D^2 g and d_x A_s are read once, stacked over its x values not seen
    before.  A stack that raises is read again row by row, so the error is
    the first grid row's, as a per-row pass raises it.  k, C and ``c_excluded`` are one
    ``tensor_row_sup_norm`` per block over each stack.  Each |.|-sum still runs
    along one output row's flattened block, and the max is exact and keeps
    a NaN from any row, so the constants have the bits of a per-row pass.
    """
    grid_density = _count(grid_density, "grid_density", 2)
    target_eps = _positive(target_eps, "target_eps")
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
        """The rows' Jacobians and second derivatives of r, the keys of their x values, and D^2 g and
        d_x A_s stacked over the x values not yet seen (none when there are none)."""
        point = evaluate(*_columns(dims, chunk))
        jac, t2 = point.jacobian(), point.second()
        first = {}
        for i, x_i in enumerate(chunk[:, sl_x]):
            first.setdefault(x_i.tobytes(), i)
        X = chunk[[i for key, i in first.items() if key not in seen_x], sl_x]
        return jac, t2, first, (_g_seconds(f, X), _a_tensors(f, "s", X, FD_STEP_FIRST)) if len(X) else ()

    for start in range(0, len(grid), size):
        chunk = grid[start : start + size]
        jac, t2, keys, x_terms = _in_row_order(lambda rows: read(chunk[rows]), len(chunk))
        seen_x.update(keys)
        if x_terms:
            c_tilde = _max_keep_nan(c_tilde, row_sup(x_terms[0]))
            d_bound = _max_keep_nan(d_bound, row_sup(x_terms[1]))
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
