"""Coordinate containers and the sup-norm toolbox.

Phase space splits into a stable block s, an unstable block u, and manifold
coordinates x living on R^a x T^b.  Every vector norm here is the sup norm and
every matrix norm is the induced maximum absolute row sum; higher-order
derivative tensors use the same "max over output row, sum over inputs" rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .exceptions import ContractError

TWO_PI = 2.0 * np.pi

ANGLE = "angle"
LINEAR = "linear"


def _as_float_vector(v) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(-1)


@dataclass(frozen=True)
class Dimensions:
    """Block sizes (n_s, n_u, m) of the chart."""

    n_s: int
    n_u: int
    m: int

    def __post_init__(self):
        for label in ("n_s", "n_u", "m"):
            object.__setattr__(self, label, _count(getattr(self, label), label, 1))

    @property
    def n(self) -> int:
        return self.n_s + self.n_u + self.m

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a length-n vector into its (s, u, x) blocks."""
        z = _as_float_vector(z)
        if z.size != self.n:
            raise ContractError(f"expected a vector of length {self.n}, got {z.size}")
        return z[: self.n_s], z[self.n_s : self.n_s + self.n_u], z[self.n_s + self.n_u :]

    def join(self, s, u, x) -> np.ndarray:
        return np.concatenate([_as_float_vector(s), _as_float_vector(u), _as_float_vector(x)])


@dataclass(frozen=True)
class ChartTopology:
    """Per-coordinate topology of the manifold factor: ``angle`` or ``linear``."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.kinds) == 0:
            raise ContractError("topology needs at least one coordinate")
        for kind in self.kinds:
            if kind not in (ANGLE, LINEAR):
                raise ContractError(f"coordinate kind must be 'angle' or 'linear', got {kind!r}")

    @classmethod
    def angles(cls, m: int) -> "ChartTopology":
        return cls((ANGLE,) * m)

    @classmethod
    def lines(cls, m: int) -> "ChartTopology":
        return cls((LINEAR,) * m)

    @classmethod
    def of(cls, kinds: Iterable[str]) -> "ChartTopology":
        return cls(tuple(kinds))

    @property
    def m(self) -> int:
        return len(self.kinds)

    @cached_property
    def is_angle(self) -> np.ndarray:
        """Read-only mask of the angle coordinates, built on first use."""
        mask = np.array([k == ANGLE for k in self.kinds], dtype=bool)
        mask.flags.writeable = False
        return mask

    def canonicalize(self, x) -> np.ndarray:
        """Wrap angle coordinates into [0, 2*pi); leave linear ones untouched."""
        x = _as_float_vector(x).copy()
        if x.size != self.m:
            raise ContractError(f"expected {self.m} manifold coordinates, got {x.size}")
        return _wrap_angles(x, self.is_angle)


def _wrap_angles(X: np.ndarray, is_angle: np.ndarray) -> np.ndarray:
    """Wrap the angle coordinates of a vector, or of each row of X, into [0, 2*pi) in place."""
    coords = X.T  # coordinates first: a view, and plain boolean indexing, for both shapes
    wrapped = np.mod(coords[is_angle], TWO_PI)
    # np.mod can round a tiny negative argument up to the full period
    wrapped[wrapped >= TWO_PI] = 0.0
    coords[is_angle] = wrapped
    return X


def _count(n, name: str, minimum: int = 0) -> int:
    """``n`` as an int; a count that is a boolean, NaN, infinite, not integral
    or below ``minimum`` is a ContractError, never a conversion error or a
    silently truncated count."""
    try:
        value = int(n)
        integral = value == n and not isinstance(n, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or value < minimum:
        raise ContractError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return value


def _real(x) -> bool:
    """Whether ``x`` is a real that is not a boolean; a float is told apart before the slower ABC test."""
    return isinstance(x, float) or (isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_)))


def _finite(x, name: str) -> float:
    """``x`` as a float; a boolean, a value of no real type, NaN or a real beyond the float range
    (infinite, or an int too large to convert) is a ContractError, never an OverflowError."""
    try:
        if _real(x) and math.isfinite(x):
            return float(x)
    except OverflowError:  # math.isfinite of an int too large for a float
        pass
    raise ContractError(f"{name} must be finite, got {x!r}")


def _positive(x, name: str) -> float:
    """``x`` as a float; a boolean, a value of no real type, NaN, a real not above zero or one beyond
    the float range is a ContractError, never a conversion error or a NaN that passes a ``<= 0`` test."""
    if not (_real(x) and x > 0):
        raise ContractError(f"{name} must be positive, got {x!r}")
    try:
        return _finite(x, name)
    except ContractError:  # an infinite real, or an int too large for a float
        raise ContractError(f"{name} must be positive and finite, got {x!r}") from None


def _frozen_array(v) -> np.ndarray:
    arr = np.array(v, dtype=float).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point (s, u, x); angle coordinates are stored canonically in [0, 2*pi)."""

    s: np.ndarray
    u: np.ndarray
    x: np.ndarray
    topology: ChartTopology

    def __post_init__(self):
        object.__setattr__(self, "s", _frozen_array(self.s))
        object.__setattr__(self, "u", _frozen_array(self.u))
        object.__setattr__(self, "x", _frozen_array(self.topology.canonicalize(self.x)))

    @property
    def normal_norm(self) -> float:
        """max(|s|_sup, |u|_sup), the norm deciding membership in B_rho."""
        return _normal_norm(self.s, self.u)

    def in_ball(self, rho: float) -> bool:
        return self.normal_norm < rho

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.s, self.u, self.x])


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent components (v_s, v_u, v_x) at a chart point."""

    v_s: np.ndarray
    v_u: np.ndarray
    v_x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_s", _frozen_array(self.v_s))
        object.__setattr__(self, "v_u", _frozen_array(self.v_u))
        object.__setattr__(self, "v_x", _frozen_array(self.v_x))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.v_s, self.v_u, self.v_x])

    def block_norms(self) -> tuple[float, float, float]:
        """(|v_s|, |v_u|, |v_x|), each a sup norm; empty-block guard not needed."""
        return (vec_sup_norm(self.v_s), vec_sup_norm(self.v_u), vec_sup_norm(self.v_x))


def vec_sup_norm(v) -> float:
    """Sup norm max_i |v_i| of a nonempty vector."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ContractError("sup norm of an empty vector is undefined")
    return float(np.max(np.abs(arr)))


def _max_keep_nan(acc: float, *values: float) -> float:
    """max(acc, *values), but a NaN anywhere is kept: Python's max drops a NaN that is not first."""
    for v in values:
        if v > acc or v != v:
            acc = v
    return acc


def _normal_norm(s: np.ndarray, u: np.ndarray) -> float:
    """max(|s|_sup, |u|_sup) as one reduction, so a NaN in either block is NaN (never in a ball)."""
    return float(np.abs(np.concatenate((s, u))).max())


def mat_row_sup_norm(a) -> float:
    """Maximum absolute row sum, the operator norm induced by the sup norm."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ContractError("matrix norm needs a nonempty 2-d array")
    return float(np.max(np.sum(np.abs(arr), axis=1)))


def tensor_row_sup_norm(t) -> float:
    """Max over the first (output) axis of the total absolute mass of the rest.

    Reduces to ``vec_sup_norm`` for 1-d input and ``mat_row_sup_norm`` for 2-d;
    for higher-order derivative tensors it is the Lipschitz constant the
    mean-value estimates need under sup norms.
    """
    arr = np.asarray(t, dtype=float)
    if arr.size == 0:
        raise ContractError("tensor norm needs a nonempty array")
    if arr.ndim == 1:
        return float(np.max(np.abs(arr)))
    flat = np.abs(arr).reshape(arr.shape[0], -1)
    return float(np.max(np.sum(flat, axis=1)))
