"""The Hamiltonian flow's force, written once per Fourier table and run as plain Python.

A key is (contact order, f table, g table), each table a tuple of
(k1, k2, cos_coeff, sin_coeff) rows of Python ints and floats.  At a key's
first call ``_source`` writes the force's lines once, one group per Fourier
mode with the mode numbers, the coefficients and the order as literals, and
emits three functions from them: the splitting's step loop, the energy and the
vector field.  They are compiled together and cached for the process; eps and
mu stay arguments, so specs that differ only in them share one body.  Nothing
is generated at import or when a ``HamiltonianSpec`` is built.

The step loop advances a 6-component state (p, q, I, theta, J, phi) through
kick(h/2) / drift(h) / kick(h/2) compositions.  The force is evaluated once
per step (n_steps + 1 times per call): a kick moves only (p, I, J) and the
force reads only (q, theta, phi), so the closing half kick of one step and the
opening half kick of the next apply the same increments.  ``advance`` converts
the state and the scalars to Python floats once per call, because the
interpreted loop runs several times faster on those than on numpy scalars,
and every operation rounds the same.
"""

from __future__ import annotations

import math

import numpy as np


def _modes(table, tag: str, value: bool, slopes: bool) -> list:
    """Lines summing a Fourier table mode by mode into ``<tag>v`` (with ``value``)
    and its theta and phi slopes ``<tag>th``, ``<tag>ph`` (with ``slopes``)."""
    lines = [f"{tag}{acc} = 0.0" for acc in ("v",) * value + ("th", "ph") * slopes]
    for k1, k2, c, s in table:
        k1, k2, c, s, neg_c = repr(int(k1)), repr(int(k2)), repr(float(c)), repr(float(s)), repr(-float(c))
        lines += [f"arg = ({k1}) * th + ({k2}) * ph", "ca = cos(arg)", "sa = sin(arg)"]
        if value:
            lines.append(f"{tag}v += ({c}) * ca + ({s}) * sa")
        if slopes:
            lines += [f"dmode = ({neg_c}) * sa + ({s}) * ca", f"{tag}th += ({k1}) * dmode", f"{tag}ph += ({k2}) * dmode"]
    return lines


def _source(order: int, f_table, g_table) -> str:
    """The step loop, the energy and the vector field of one key, as Python source."""
    force = [
        "sq = sin(q)",
        "cq = cos(q)",
        *_modes(g_table, "g", True, True),
        *_modes(f_table, "f", False, True),
        f"sq_pow = sq ** {order - 1}",
        "kp = eps * sq - mua * sq_pow * cq * gv",
        "ms = mu * sq_pow * sq",
        "ka = neps * fth - ms * gth",
        "kj = neps * fph - ms * gph",
    ]
    halves = ["hp = half * kp", "ha = half * ka", "hj = half * kj"]
    kick = ["p += hp", "act += ha", "jj += hj"]
    drift = ["q += h * p", "th += h * act", "ph += h"]
    names = ("p", "q", "act", "th", "jj", "ph")
    prelude = [f"mua = mu * {order}", "neps = -eps"]

    def block(lines, depth):
        return "".join(f"\n{'    ' * depth}{line}" for line in lines)

    return (
        "def step(state, h, n_steps, eps, mu):"
        + block([f"{x} = state[{i}]" for i, x in enumerate(names)] + ["half = 0.5 * h"] + prelude + force + halves, 1)
        + "\n    for _ in range(n_steps):"
        + block(kick + drift + force + halves + kick, 2)
        + block(["out = np.empty(6)"] + [f"out[{i}] = {x}" for i, x in enumerate(names)] + ["return out"], 1)
        + "\n\ndef energy(p, q, act, th, jj, ph, eps, mu):"
        + block(_modes(f_table, "f", True, False) + _modes(g_table, "g", True, False), 1)
        + "\n    return (0.5 * p * p + 0.5 * act * act + jj + eps * (cos(q) - 1.0) + eps * fv"
        + f" + mu * sin(q) ** {order} * gv)"
        + "\n\ndef field(p, q, act, th, jj, ph, eps, mu):"
        + block(prelude + force + ["return [kp, p, ka, act, kj, 1.0]"], 1)
        + "\n"
    )


_BODIES = {}


def _body(key) -> tuple:
    """(step, energy, field) of ``key``, generated at its first call."""
    body = _BODIES.get(key)
    if body is None:
        namespace = {"sin": math.sin, "cos": math.cos, "np": np}
        exec(compile(_source(*key), "<nhimlab flow body>", "exec"), namespace)
        body = (namespace["step"], namespace["energy"], namespace["field"])
        _BODIES[key] = body
    return body


def energy(point, eps, mu, key) -> float:
    """H at ``point`` = (p, q, I, theta, J, phi)."""
    return _body(key)[1](*point, eps, mu)


def field(point, eps, mu, key) -> list:
    """(dp, dq, dI, dtheta, dJ, dphi) at ``point``."""
    return _body(key)[2](*point, eps, mu)


def advance(state, h, n_steps, eps, mu, key):
    """``n_steps`` steps of ``key``'s step loop from ``state``, run on Python floats."""
    return _body(key)[0]([float(v) for v in state], float(h), int(n_steps), float(eps), float(mu))


def advance_sampled(state, h, n_blocks, stride, eps, mu, key):
    """The (n_blocks + 1, 6) record of ``advance`` every ``stride`` steps, initial row included.

    It runs ``key``'s step loop itself rather than through ``advance``, so a
    wrapper around ``advance`` never sees the sampled steps.
    """
    step = _body(key)[0]
    h, stride, eps, mu = float(h), int(stride), float(eps), float(mu)
    out = np.empty((n_blocks + 1, 6))
    out[0] = state
    for b in range(n_blocks):
        state = out[b + 1] = step([float(v) for v in state], h, stride, eps, mu)
    return out


def backend_name() -> str:
    return "python"
