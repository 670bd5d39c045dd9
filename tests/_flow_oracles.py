"""The flow's force as generic loops over the mode tables, kept as oracles.

``advance_loop`` is the splitting kernel and ``fourier_loop`` the Fourier sum
that the energy and the vector field read, both as they were before the force
was generated per table.  The generated step loop, energy and field must equal
them bit for bit.
"""

import math

import numpy as np


def advance_loop(state, h, n_steps, eps, mu, alpha, fk1, fk2, fc, fs, gk1, gk2, gc, gs):
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


def table_arrays(coeffs):
    """(k1, k2, cos_coeff, sin_coeff) arrays of a Fourier table."""
    arr = np.asarray(coeffs, dtype=float).reshape(-1, 4)
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2].copy(), arr[:, 3].copy()


def loop_args(hs, lists=False):
    """``advance_loop``'s arguments after (state, h, n_steps) for spec ``hs``:
    the mode tables as numpy arrays, or as lists of Python ints and floats
    with ``lists``."""
    tables = table_arrays(hs.f_coeffs) + table_arrays(hs.g_coeffs)
    if lists:
        tables = tuple(t.tolist() for t in tables)
    return (hs.eps, hs.mu, hs.contact_order) + tables


def fourier_loop(tables, theta, phi):
    """(value, d/dtheta, d/dphi) of a Fourier sum, a plain-float loop over the modes."""
    val = d_theta = d_phi = 0.0
    for k1, k2, c, s in zip(*(t.tolist() for t in tables)):
        arg = k1 * theta + k2 * phi
        ca = math.cos(arg)
        sa = math.sin(arg)
        val += c * ca + s * sa
        dmode = -c * sa + s * ca
        d_theta += k1 * dmode
        d_phi += k2 * dmode
    return val, d_theta, d_phi


def fourier_numpy(tables, theta, phi):
    """``fourier_loop`` as numpy passes over the mode tables."""
    k1, k2, c, s = tables
    arg = k1 * theta + k2 * phi
    ca = np.cos(arg)
    sa = np.sin(arg)
    val = float(np.sum(c * ca + s * sa))
    dmode = -c * sa + s * ca
    return val, float(np.sum(k1 * dmode)), float(np.sum(k2 * dmode))


def energy(hs, st, fourier=fourier_loop):
    fval, _, _ = fourier(table_arrays(hs.f_coeffs), st.theta, st.phi)
    gval, _, _ = fourier(table_arrays(hs.g_coeffs), st.theta, st.phi)
    order = hs.contact_order
    return (
        0.5 * st.p * st.p
        + 0.5 * st.I * st.I
        + st.J
        + hs.eps * (math.cos(st.q) - 1.0)
        + hs.eps * fval
        + hs.mu * math.sin(st.q) ** order * gval
    )


def vector_field(hs, st, fourier=fourier_loop):
    order = hs.contact_order
    sq = math.sin(st.q)
    cq = math.cos(st.q)
    _, f_th, f_ph = fourier(table_arrays(hs.f_coeffs), st.theta, st.phi)
    g_val, g_th, g_ph = fourier(table_arrays(hs.g_coeffs), st.theta, st.phi)
    sq_pow = sq ** (order - 1)
    return np.array(
        [
            hs.eps * sq - hs.mu * order * sq_pow * cq * g_val,
            st.p,
            -hs.eps * f_th - hs.mu * sq_pow * sq * g_th,
            st.I,
            -hs.eps * f_ph - hs.mu * sq_pow * sq * g_ph,
            1.0,
        ]
    )
