"""Central finite differences of vector functions, at one point and at stacks of rows.

The stacked forms build every probe of every row first and hand them to the
function as one stack; each row gets the probes and the bits of the
one-point form.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import ContractError


def _fd_first(func, z: np.ndarray, h: float, inside=None) -> np.ndarray:
    """Columnwise central difference of a vector function, with a one-sided
    fallback on coordinates where a probe would leave the admissible set."""
    z = np.asarray(z, dtype=float)
    base = None
    cols = []
    for j in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[j] += h
        zm[j] -= h
        ok_p = inside is None or inside(zp)
        ok_m = inside is None or inside(zm)
        if ok_p and ok_m:
            cols.append((func(zp) - func(zm)) / (2.0 * h))
        elif ok_p:
            if base is None:
                base = func(z)
            cols.append((func(zp) - base) / h)
        elif ok_m:
            if base is None:
                base = func(z)
            cols.append((base - func(zm)) / h)
        else:
            raise ContractError("finite-difference step does not fit inside the neighborhood; reduce h")
    return np.stack(cols, axis=1)


def _fd_second(func, z: np.ndarray, h: float) -> np.ndarray:
    """Full symmetric second-derivative tensor T[i, j, k] by central stencils: ``_fd_second_rows`` of one row."""
    return _fd_second_rows(lambda V: np.array([func(v) for v in V]), np.asarray(z, dtype=float)[None], h)[0]


def _fd_first_rows(call: Callable, Z: np.ndarray, h: float) -> np.ndarray:
    """Central differences at every row of Z (N x k) as a new (N, out, k) stack, each with the probes
    and the bits of ``_fd_first`` (which has a one-sided fallback this has not).  ``call`` takes
    the stack of all 2 k N probes and returns the stack of its values there."""
    count, k = Z.shape
    probes = np.repeat(Z[:, None, :], 2 * k, axis=1)  # the k plus probes, then the k minus probes
    cols = np.arange(k)
    probes[:, cols, cols] += h
    probes[:, k + cols, cols] -= h
    values = call(probes.reshape(-1, k))
    values = values.reshape(count, 2, k, values.shape[-1])
    return np.ascontiguousarray(((values[:, 0] - values[:, 1]) / (2.0 * h)).transpose(0, 2, 1))


def _fd_second_rows(call: Callable, Z: np.ndarray, h: float) -> np.ndarray:
    """``_fd_second`` at every row of Z (N x k) as a new (N, out, k, k) stack, with its probes and
    bits.  ``call`` takes the stack of all probes and returns the stack of its values there."""
    count, k = Z.shape
    pairs = [(j, l) for j in range(k) for l in range(j + 1, k)]
    # probe 0 is the row; then z +- h e_j; then z + (+-h, +-h) on each pair, in the order ++, +-, -+, --
    plus = [(1 + 2 * j, j) for j in range(k)]
    minus = [(2 + 2 * j, j) for j in range(k)]
    for q, (j, l) in enumerate(pairs):
        base = 1 + 2 * k + 4 * q
        plus += [(base, j), (base, l), (base + 1, j), (base + 2, l)]
        minus += [(base + 1, l), (base + 2, j), (base + 3, j), (base + 3, l)]
    probes = np.repeat(Z[:, None, :], 1 + 2 * k + 4 * len(pairs), axis=1)
    for step, at in ((h, plus), (-h, minus)):  # z + (-h) is z - h, bit for bit
        p, c = np.array(at).T
        probes[:, p, c] += step
    v = call(probes.reshape(-1, k))
    v = v.reshape(*probes.shape[:2], v.shape[-1])
    out = np.empty((count, v.shape[2], k, k))
    for j in range(k):
        out[:, :, j, j] = (v[:, 1 + 2 * j] - 2.0 * v[:, 0] + v[:, 2 + 2 * j]) / (h * h)
    for q, (j, l) in enumerate(pairs):
        base = 1 + 2 * k + 4 * q
        mixed = (v[:, base] - v[:, base + 1] - v[:, base + 2] + v[:, base + 3]) / (4.0 * h * h)
        out[:, :, j, l] = mixed
        out[:, :, l, j] = mixed
    return out
