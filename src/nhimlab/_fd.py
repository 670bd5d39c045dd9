"""Central finite differences of vector functions at stacks of rows.

Each form builds every probe of every row first and hands them to the
function as one stack, so a function in the stacked contract runs once per
difference.  The first difference falls back to a one-sided column where a
probe would leave the admissible set.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .exceptions import ContractError


def _fd_first_rows(call: Callable, Z: np.ndarray, h: float, inside: Optional[Callable] = None) -> np.ndarray:
    """Central differences at every row of Z (N x k) as a new (N, out, k) stack.  ``call`` takes a
    stack of probes and returns the stack of its values there; it runs once, on each row's k plus
    probes, then its k minus probes, in row order.

    ``inside``, when given, takes a stack of probes and says which lie in the admissible set.  A
    probe outside is never read: its column is the one-sided difference against the row's own
    value, which is read after the row's probes.  A column with no probe inside raises a
    ContractError before any probe is read."""
    count, k = Z.shape
    probes = np.repeat(Z[:, None, :], 2 * k, axis=1)  # the k plus probes, then the k minus probes
    cols = np.arange(k)
    probes[:, cols, cols] += h
    probes[:, k + cols, cols] -= h
    if inside is None:
        values = call(probes.reshape(-1, k))
        values = values.reshape(count, 2, k, values.shape[-1])
        return np.ascontiguousarray(((values[:, 0] - values[:, 1]) / (2.0 * h)).transpose(0, 2, 1))
    ok = inside(probes.reshape(-1, k)).reshape(count, 2, k)
    if not (ok[:, 0] | ok[:, 1]).all():
        raise ContractError("finite-difference step does not fit inside the neighborhood; reduce h")
    read = np.concatenate((ok.reshape(count, 2 * k), ~ok.all(axis=(1, 2))[:, None]), axis=1)
    values = call(np.concatenate((probes, Z[:, None, :]), axis=1)[read])
    v = np.zeros((count, 2 * k + 1, values.shape[-1]))
    v[read] = values
    plus, minus, row = v[:, :k], v[:, k : 2 * k], v[:, 2 * k :]
    central = (plus - minus) / (2.0 * h)
    one_sided = np.where(ok[:, 0, :, None], (plus - row) / h, (row - minus) / h)
    return np.ascontiguousarray(np.where(ok.all(axis=1)[..., None], central, one_sided).transpose(0, 2, 1))


def _fd_second_rows(call: Callable, Z: np.ndarray, h: float) -> np.ndarray:
    """Second differences at every row of Z (N x k) as a new (N, out, k, k) stack of the full symmetric
    tensors T[i, j, l], by central stencils.  ``call`` takes the stack of all probes and returns the
    stack of its values there."""
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
