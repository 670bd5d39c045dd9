"""Reference values computed apart from nhimlab, at 50 significant digits.

Nothing here imports nhimlab.  Each function restates a model from its
documented definition (the model docstrings in ``src/nhimlab``) and
evaluates it with mpmath, so a check that compares the program with these
values does not compare the program with itself.  No value is stored:
every reference is recomputed from the run's own inputs.
"""

import math

import mpmath as mp

mp.mp.dps = 50
TWO_PI = 2 * mp.pi


def _wrap(a):
    return mp.fmod(mp.fmod(a, TWO_PI) + TWO_PI, TWO_PI)


def circle_gap(a, b):
    """Distance between two angles on the circle, as a float."""
    d = float(_wrap(mp.mpf(a) - mp.mpf(b)))
    return min(d, 2 * math.pi - d)


def poly_mesh(c, lambda_s, lambda_u, rho, s0, tags, n_max):
    """Orbits, frames and the c0/c1 series of a constant-graph disk mesh
    under the bilinear map

        (s, u, x) -> (lambda_s s + c s u, lambda_u u + c s u, x + c s u).

    ``tags`` are the (u, x) seeds of the nodes; every node starts at s = s0
    with the frame {(0, 1, 0), (0, 0, 1)}, which spans the tangent space of
    a constant graph.  Each step pushes the frame by the Jacobian at the old
    point and rescales every vector to unit sup norm.  A node whose image
    leaves the open rho ball dies and keeps its last state.

    Returns (nodes, series): nodes[i] = (died_at, point, frame) with
    died_at = -1 for a survivor; series[n] = (c0, c1, alive count).
    """
    c, ls, lu, rho = mp.mpf(c), mp.mpf(lambda_s), mp.mpf(lambda_u), mp.mpf(rho)
    states = []
    for u0, x0 in tags:
        frame = [[mp.mpf(0), mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(0), mp.mpf(1)]]
        states.append([-1, [mp.mpf(s0), mp.mpf(u0), mp.mpf(x0)], frame])
    series = [_mesh_distance(states)]
    for n in range(1, n_max + 1):
        for st in states:
            if st[0] != -1:
                continue
            s, u, x = st[1]
            w = c * s * u
            img = [ls * s + w, lu * u + w, x + w]
            if max(abs(img[0]), abs(img[1])) >= rho:
                st[0] = n
                continue
            jac = ((ls + c * u, c * s, 0), (c * u, lu + c * s, 0), (c * u, c * s, 1))
            frame = []
            for v in st[2]:
                pushed = [sum(jac[i][j] * v[j] for j in range(3)) for i in range(3)]
                scale = max(abs(t) for t in pushed)
                frame.append([t / scale for t in pushed])
            st[1], st[2] = img, frame
        series.append(_mesh_distance(states))
    return states, series


def _mesh_distance(states):
    alive = [st for st in states if st[0] == -1]
    c0 = max(abs(st[1][0]) for st in alive)
    c1 = mp.mpf(0)
    for st in alive:
        for vs, vu, vx in st[2]:
            if vu != 0:
                gap = max(abs(vs), abs(vx)) / abs(vu)
            elif vx != 0:
                gap = abs(vs) / abs(vx)
            else:
                gap = mp.inf
            c1 = max(c1, gap)
    return c0, c1, len(alive)


def square_graph_inverse(qs, qu):
    """Fixed point of s = qs + u^2, u = qu + s^2 (the inverse of the
    straightening change of variables for the graphs G_s = s^2, G_u = u^2)."""
    qs, qu = mp.mpf(qs), mp.mpf(qu)
    s, u = qs, qu
    for _ in range(400):
        s, u = qs + u * u, qu + s * s
    return s, u


def contact_order(nu, sigma_param):
    """Even order 2 floor(ln(nu) / (4 sigma) + 1) of the cylinder coupling."""
    return 2 * int(mp.floor(mp.log(mp.mpf(nu)) / (4 * mp.mpf(sigma_param)) + 1))


def ham_energy(eps, mu, nu, sigma_param, p, q, act, theta, jj, phi):
    """H = p^2/2 + I^2/2 + J + eps (cos q - 1) + eps f + mu (sin q)^order g
    with the default rotor tables f = cos(theta) + cos(phi) and
    g = cos(theta) + cos(theta - phi)."""
    eps, mu = mp.mpf(eps), mp.mpf(mu)
    p, q, act, theta, jj, phi = (mp.mpf(v) for v in (p, q, act, theta, jj, phi))
    order = contact_order(nu, sigma_param)
    f = mp.cos(theta) + mp.cos(phi)
    g = mp.cos(theta) + mp.cos(theta - phi)
    return (
        p * p / 2
        + act * act / 2
        + jj
        + eps * (mp.cos(q) - 1)
        + eps * f
        + mu * mp.sin(q) ** order * g
    )


def rotor_return_angle(theta, act):
    """Angle after one 2*pi return of the free rotor: theta + 2*pi*I mod 2*pi."""
    return float(_wrap(mp.mpf(theta) + TWO_PI * mp.mpf(act)))


def sqrt(x):
    return float(mp.sqrt(mp.mpf(x)))
