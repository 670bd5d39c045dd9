"""Regenerate tests/_refvals.py: frozen expected values at extended precision.

Every closed-form number a test pins down is recomputed here with mpmath at
50 significant digits (well past 80-bit) from the same double-precision
inputs the library receives, then rounded once to the nearest double.  Run

    python3 tools/derive_reference_values.py > tests/_refvals.py

and diff before committing; the file should only change when a formula does.
"""

import mpmath as mp

mp.mp.dps = 50


def f(x):
    """Format an mpf as a repr-exact double."""
    return repr(float(x))


def mu_star(lam, k, C, rho, eps):
    gap = 1 / lam - k
    return 1 / (1 - ((2 * k + C * rho) / gap) * eps)


def slab_width(lam, k, C, C_tilde, rho, eps):
    gap = 1 / lam - k
    ms = mu_star(lam, k, C, rho, eps)
    branch_x = eps * (gap / ms) * (1 - k * ms / gap) / (C + 1 + eps * (C_tilde + C + 1))
    branch_s = eps * (1 - (lam + k) * ms / gap) / (C + 1 + (2 * C + 1) * eps)
    return branch_x, branch_s, min(branch_x, branch_s, mp.mpf(rho))


def poly_step(c, ls, lu, p):
    s, u, x = p
    w = c * s * u
    return (ls * s + w, lu * u + w, x + w)


def poly_jac(c, ls, lu, p):
    s, u, x = p
    return mp.matrix([[ls + c * u, c * s, 0], [c * u, lu + c * s, 0], [c * u, c * s, 1]])


def poly_jet(c, ls, lu, p0, v0, steps):
    p = tuple(mp.mpf(t) for t in p0)
    v = mp.matrix([mp.mpf(t) for t in v0])
    for _ in range(steps):
        v = poly_jac(c, ls, lu, p) * v
        p = poly_step(c, ls, lu, p)
    return p, v


def graph_square_inverse(qs, qu):
    # fixed point of s = qs + u^2, u = qu + s^2
    s, u = mp.mpf(qs), mp.mpf(qu)
    for _ in range(200):
        s, u = qs + u * u, qu + s * s
    return s, u


lines = [
    '"""Frozen expected values, derived at 50-digit precision.',
    "",
    "Regenerate with  python3 tools/derive_reference_values.py > tests/_refvals.py",
    '"""',
    "",
]


def emit(name, value, comment=""):
    suffix = f"  # {comment}" if comment else ""
    lines.append(f"{name} = {value}{suffix}")


# --- rates and budgets ------------------------------------------------------
lam09 = mp.mpf(0.9)
emit("LINEAR_LAM_09_11", f(max(lam09, 1 / mp.mpf(1.1))), "max(0.9, 1/1.1)")

ms_09 = mu_star(lam09, mp.mpf(0.05), mp.mpf(0), mp.mpf(0.5), mp.mpf(0.1))
emit("MU_STAR_09_005", f(ms_09), "lam=0.9 k=0.05 C=0 rho=0.5 eps=0.1")
gap_09 = 1 / lam09 - mp.mpf(0.05)
emit("CONTRACTION_09_005", f(1 - ((lam09 + mp.mpf(0.05)) / gap_09) * ms_09), "slab contraction slack")

lam, k, C = mp.mpf(0.5), mp.mpf(0.05), mp.mpf(0.05)
bx, bs, eps_s = slab_width(lam, k, C, mp.mpf(0), mp.mpf(0.5), mp.mpf(1e-2))
emit("POLY_MU_STAR", f(mu_star(lam, k, C, mp.mpf(0.5), mp.mpf(1e-2))), "poly budget, eps=1e-2")
emit("POLY_SLAB_BRANCH_X", f(bx))
emit("POLY_SLAB_BRANCH_S", f(bs))
emit("POLY_EPS_S", f(eps_s), "min of the two branches")

# --- closed-form decay bounds ----------------------------------------------
gap = 1 / lam - k
emit(
    "BOUND_X_N10",
    f((k / gap) ** 10 + C * mp.mpf(0.3) * 10 * (lam + k) ** 9),
    "I0_x=1 s0=0.3 n=10",
)
emit(
    "BOUND_S_N10",
    f(((lam + k) / gap) ** 10 + (lam + k) ** 8 * 10 * (C * mp.mpf(0.3) + 1)),
    "I0_s=I0_x=1 s0=0.3 n=10",
)
emit("SN_BOUND_N5", f(mp.mpf(0.3) * (lam + k) ** 5), "s0=0.3 n=5")
emit(
    "STRETCH_REFINED_01",
    f(1 / lam - k - k * mp.mpf(0.1) - (k + C * mp.mpf(0.5)) * mp.mpf(0.1)),
    "lam=0.5 k=C=0.05 rho=0.5 eps=0.1",
)

# --- poly map pointwise -----------------------------------------------------
c05 = mp.mpf(0.05)
img = poly_step(c05, mp.mpf(0.5), mp.mpf(2), (mp.mpf(0.2), mp.mpf(0.2), mp.mpf(0)))
emit("POLY_IMAGE_02_02", f"({f(img[0])}, {f(img[1])}, {f(img[2])})")
jac = poly_jac(c05, mp.mpf(0.5), mp.mpf(2), (mp.mpf(0.2), mp.mpf(0.2), mp.mpf(0)))
emit(
    "POLY_JAC_02_02",
    "(" + ", ".join("(" + ", ".join(f(jac[i, j]) for j in range(3)) + ")" for i in range(3)) + ")",
)

p3, v3 = poly_jet(c05, mp.mpf(0.5), mp.mpf(2), (0.2, 0.01, 0.0), (1, 1, 1), 3)
emit("POLY_JET3_I_X", f(abs(v3[2]) / abs(v3[1])), "p0=(0.2,0.01,0) v0=(1,1,1)")
emit("POLY_JET3_I_S", f(abs(v3[0]) / abs(v3[1])))
emit("POLY_JET3_POINT", f"({f(p3[0])}, {f(p3[1])}, {f(p3[2])})")

# --- straightening fixed point ----------------------------------------------
s_fp, u_fp = graph_square_inverse(mp.mpf(0.05), mp.mpf(0.15))
emit("SQUARE_GRAPH_INV_005_015", f"({f(s_fp)}, {f(u_fp)})", "s=0.05+u^2, u=0.15+s^2")

# --- rotor advance -----------------------------------------------------------
emit(
    "THETA_ADVANCE_017",
    f(mp.fmod(1 + 2 * mp.pi * mp.mpf(0.17), 2 * mp.pi)),
    "theta=1, I=0.17, one 2*pi return",
)

print("\n".join(lines))
