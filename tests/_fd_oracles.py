"""One-point finite differences, the oracles of the stacked ones in ``nhimlab._fd``.

``_fd_first`` differences one point column by column, reading each probe on
its own, with the one-sided fallback next to the edge of the admissible set;
``_r_jacobian`` runs it on a map's remainder inside the map's ball.
"""

import numpy as np

from nhimlab._fd import _fd_second_rows
from nhimlab.exceptions import ContractError
from nhimlab.geometry import _normal_norm


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


def _r_flat(f):
    """The remainder r as a function of the concatenated coordinate z = (s, u, x)."""
    return lambda z: f.dims.join(*f.r_map(*f.dims.split(z)))


def _in_ball(f):
    """Membership of a concatenated coordinate z = (s, u, x) in f's working ball."""
    return lambda z: _normal_norm(*f.dims.split(z)[:2]) < f.rho


def _r_jacobian(f, s, u, x, h: float) -> np.ndarray:
    """Central differences of r at one point with step h, one-sided next to the boundary of U."""
    return _fd_first(_r_flat(f), f.dims.join(s, u, x), h, inside=_in_ball(f))
