"""Hot loops for the Hamiltonian flow: jitted when numba is installed, else plain Python.

The splitting integrator advances a 6-component state (p, q, I, theta, J, phi)
through kick(h/2) / drift(h) / kick(h/2) compositions.  The force is evaluated
once per step (n_steps + 1 times per call): a kick moves only (p, I, J) and the
force reads only (q, theta, phi), so the closing half kick of one step and the
opening half kick of the next apply the same increments.  Both backends execute
the same function body, so they agree by construction; ``tests/test_kernels.py``
checks that bit for bit only when numba is installed.  numba takes the state
and the mode tables as arrays; the pure-Python fallback converts them, and the
scalars, to Python floats, ints and lists once per call, because the
interpreted loop runs several times faster on those than on numpy scalars.
Setting the environment variable ``NHIM_NUMBA=0`` before import selects the
pure-Python fallback.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional `fast` extra
    numba = None
    HAVE_NUMBA = False


def _env_wants_numba() -> bool:
    flag = os.environ.get("NHIM_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


USE_NUMBA = HAVE_NUMBA and _env_wants_numba()


def _advance_impl(state, h, n_steps, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs):
    p = state[0]
    q = state[1]
    act = state[2]
    th = state[3]
    jj = state[4]
    ph = state[5]
    half = 0.5 * h
    for step in range(n_steps + 1):
        # force at (q, theta, phi), shared by the half kicks on either side
        sq = math.sin(q)
        cq = math.cos(q)
        gv = 0.0
        gth = 0.0
        gph = 0.0
        for i in range(len(gk1)):
            arg = gk1[i] * th + gk2[i] * ph
            ca = math.cos(arg)
            sa = math.sin(arg)
            gv += gc[i] * ca + gs[i] * sa
            dmode = -gc[i] * sa + gs[i] * ca
            gth += gk1[i] * dmode
            gph += gk2[i] * dmode
        fth = 0.0
        fph = 0.0
        for i in range(len(fk1)):
            arg = fk1[i] * th + fk2[i] * ph
            ca = math.cos(arg)
            sa = math.sin(arg)
            dmode = -fc[i] * sa + fs[i] * ca
            fth += fk1[i] * dmode
            fph += fk2[i] * dmode
        sq_pow = sq ** (alpha - 1)
        kp = eps * sq - mu * alpha * sq_pow * cq * gv
        ka = -eps * fth - mu * sq_pow * sq * gth
        kj = -eps * fph - mu * sq_pow * sq * gph
        if step > 0:
            # closing half kick of the previous step
            p += half * kp
            act += half * ka
            jj += half * kj
        if step == n_steps:
            break
        # opening half kick, then drift
        p += half * kp
        act += half * ka
        jj += half * kj
        q += h * p
        th += h * act
        ph += h
    out = np.empty(6)
    out[0] = p
    out[1] = q
    out[2] = act
    out[3] = th
    out[4] = jj
    out[5] = ph
    return out


def advance_python(state, h, n_steps, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs):
    """The shared body on Python floats, ints and lists instead of numpy scalars.

    Interpreted arithmetic on Python scalars is several times cheaper, and
    each operation rounds the same, so the orbit is bit-identical.
    """
    return _advance_impl(
        [float(v) for v in state], float(h), int(n_steps), float(eps), float(mu), int(alpha),
        [int(k) for k in fk1], [int(k) for k in fk2], [float(c) for c in fc], [float(c) for c in fs],
        [int(k) for k in gk1], [int(k) for k in gk2], [float(c) for c in gc], [float(c) for c in gs],
    )


if HAVE_NUMBA:
    advance_numba = numba.njit(cache=True)(_advance_impl)

    @numba.njit(cache=True)
    def advance_sampled_numba(state, h, n_blocks, stride, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs):
        out = np.empty((n_blocks + 1, 6))
        cur = state.copy()
        out[0] = cur
        for b in range(n_blocks):
            cur = advance_numba(cur, h, stride, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs)
            out[b + 1] = cur
        return out

else:  # pragma: no cover - numba is the optional `fast` extra
    advance_numba = None
    advance_sampled_numba = None


def advance_sampled_python(state, h, n_blocks, stride, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs):
    out = np.empty((n_blocks + 1, 6))
    cur = state.copy()
    out[0] = cur
    for b in range(n_blocks):
        cur = advance_python(cur, h, stride, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs)
        out[b + 1] = cur
    return out


if USE_NUMBA:
    advance = advance_numba
    advance_sampled = advance_sampled_numba
else:
    advance = advance_python
    advance_sampled = advance_sampled_python


def backend_name() -> str:
    return "numba" if USE_NUMBA else "python"
