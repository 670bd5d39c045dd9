"""The Hamiltonian flow's force, written once per Fourier table and run as plain Python.

A key is (contact order, f table, g table), each table a tuple of
(k1, k2, cos_coeff, sin_coeff) rows of Python ints and floats.  At a key's
first call ``_source`` writes the force from the tables, with the mode
numbers, the coefficients and the order as literals, and emits three
functions from it: the splitting's step loop, the energy and the vector
field.  They are compiled together and cached for the process; eps and mu
stay arguments, so specs that differ only in them share one body.  Nothing is
generated at import or when a ``HamiltonianSpec`` is built.

Only the live arithmetic is written.  Each function evaluates one ``cos`` and
one ``sin`` per distinct argument k1*theta + k2*phi that it reads, for both
tables; a factor +-1 becomes a sign, a product with a literal zero is dropped,
and a (0, 0) mode adds its cos coefficient to the value.  Each accumulator is
one left-to-right sum from 0.0, its terms grouped as ``acc += term`` grouped
them in the generic loop over the tables (``tests/_flow_oracles.py``), and it
rounds bit for bit the same for every finite state and table: a +-1 factor or
a moved sign is exact; a dropped zero factor changes a term at most by the
sign of a zero (an argument it changes is a zero, whose sin is a zero and cos
1.0 either way); and a sum from +0.0 is never -0.0, so adding a zero of
either sign to it, or none, changes nothing.

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
import re

import numpy as np


def _times(k, term):
    """``k * term`` for a literal ``k`` and a (negated, magnitude) source pair ``term``, as such a
    pair with a unit ``k`` folded into the sign; None when ``term`` is None or ``k`` is zero."""
    if term is None or k == 0:
        return None
    neg, mag = term
    if abs(k) != 1:
        mag = f"{abs(k)!r} * {mag if mag[0] == '(' or ' ' not in mag else f'({mag})'}"
    return neg != (k < 0), mag


def _chain(terms) -> str:
    """The pairs in ``terms`` that are not None (one at least), summed left to right, as source."""
    text = "".join(f" {'-' if neg else '+'} {mag}" for neg, mag in filter(None, terms))
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _sum(*terms):
    """The pairs in ``terms`` that are not None summed as one pair, parenthesized if there are two or more."""
    terms = [t for t in terms if t]
    if len(terms) > 1:
        return False, f"({_chain(terms)})"
    return terms[0] if terms else None


def _fourier(*sums) -> list:
    """Lines setting each (name, table, part) of ``sums`` to a table's value (part "v") or its
    theta or phi slope ("th", "ph"): one sum from 0.0 over the live mode terms, after one
    ``cos`` and one ``sin`` line per distinct argument that the sums read."""
    args, lines = {}, []
    for name, table, part in sums:
        terms = [(False, "0.0")]
        for k1, k2, c, s in table:
            if not (k1 or k2):  # cos(+-0) is 1.0 and sin(+-0) a zero: the mode adds c to the value
                terms.append((c < 0, repr(abs(c))) if c and part == "v" else None)
                continue
            i = args.setdefault((k1, k2), len(args))
            ca, sa = (False, f"c{i}"), (False, f"s{i}")
            if part == "v":
                terms.append(_sum(_times(c, ca), _times(s, sa)))
            else:
                terms.append(_times(k1 if part == "th" else k2, _sum(_times(-c, sa), _times(s, ca))))
        lines.append(f"{name} = {_chain(terms)}")
    live = set(re.findall(r"\w+", " ".join(lines)))
    trig = []
    for (k1, k2), i in args.items():
        arg = _chain([_times(k1, (False, "th")), _times(k2, (False, "ph"))])
        trig += [f"{x}{i} = {fn}({arg})" for x, fn in (("c", "cos"), ("s", "sin")) if f"{x}{i}" in live]
    return trig + lines


def _source(order: int, f_table, g_table) -> str:
    """The step loop, the energy and the vector field of one key, as Python source."""
    force = [
        "sq = sin(q)",
        "cq = cos(q)",
        *_fourier(("gv", g_table, "v"), ("gth", g_table, "th"), ("gph", g_table, "ph"),
                  ("fth", f_table, "th"), ("fph", f_table, "ph")),
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
        + block(_fourier(("fv", f_table, "v"), ("gv", g_table, "v")), 1)
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
