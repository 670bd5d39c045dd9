"""Built-in model zoo.

Three closed-form normal-form maps exercise the map-side experiments: a
linear reference, a bilinear coupling that switches on every remainder block
allowed by the structural conditions, and a perturbed twist on an annulus
whose boundary circles stay exactly invariant.  The flow side is a
three-degree-of-freedom Hamiltonian: a pendulum factor carrying the saddle,
two rotor angles, and a coupling that vanishes on the cylinder {p = q = 0} to
an even contact order, integrated by a fixed-step symmetric splitting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .exceptions import ContractError
from .geometry import TWO_PI, ChartTopology, Dimensions, _count
from .normalform import BoundSet, MapSpec, _Stacked, check_constants


def _check_rates(lambda_s: float, lambda_u: float) -> float:
    if not (0.0 < lambda_s < 1.0 < lambda_u):
        raise ContractError(
            f"need 0 < lambda_s < 1 < lambda_u, got lambda_s={lambda_s}, lambda_u={lambda_u}"
        )
    return max(lambda_s, 1.0 / lambda_u)


def _constant_blocks(lambda_s: float, lambda_u: float, m: int = 1) -> dict:
    """MapSpec fields for constant scalar normal blocks over an m-dim base:
    dims, A_s, A_u and their vanishing x-derivatives, plus d_g = I and
    d2_g = 0 (exact for a rigid base map; a factory with a curved g
    overrides both), each in its stacked form."""
    a_s = np.array([[lambda_s]])
    a_u = np.array([[lambda_u]])
    eye = np.eye(m)
    return dict(
        dims=Dimensions(1, 1, m),
        A_s=_Stacked(lambda X: a_s[None].repeat(len(X), 0)),
        A_u=_Stacked(lambda X: a_u[None].repeat(len(X), 0)),
        d_A_s=_Stacked(lambda X: np.zeros((len(X), 1, 1, m))),
        d_A_u=_Stacked(lambda X: np.zeros((len(X), 1, 1, m))),
        d_g=_Stacked(lambda X: eye[None].repeat(len(X), 0)),
        d2_g=_Stacked(lambda X: np.zeros((len(X), m, m, m))),
    )


def _zero_remainder(n_s: int, n_u: int, m: int) -> dict:
    """MapSpec fields r_map, d_r and d2_r of the zero remainder, in their stacked forms."""
    n = n_s + n_u + m
    return dict(
        r_map=_Stacked(lambda S, U, X: (np.zeros((len(S), n_s)), np.zeros((len(S), n_u)), np.zeros((len(S), m)))),
        d_r=_Stacked(lambda S, U, X: np.zeros((len(S), n, n))),
        d2_r=_Stacked(lambda S, U, X: np.zeros((len(S), n, n, n))),
    )


def make_linear(lambda_s: float = 0.5, lambda_u: float = 2.0, omega: float = 0.0, rho: float = 0.5) -> MapSpec:
    """Zero-remainder reference map: constant normal blocks, rigid rotation."""
    lam = _check_rates(lambda_s, lambda_u)
    return MapSpec(
        topo=ChartTopology.angles(1),
        rho=rho,
        lam=lam,
        g_map=_Stacked(lambda X: X + omega),
        name="linear",
        **_zero_remainder(1, 1, 1),
        **_constant_blocks(lambda_s, lambda_u),
    )


def make_poly(c: float, lambda_s: float = 0.5, lambda_u: float = 2.0, rho: float = 0.5) -> MapSpec:
    """Bilinear coupling r_s = r_u = r_x = c*s*u on scalar blocks.

    The product s*u vanishes on both slices, so every structural condition
    holds exactly; the analytic budget is k = 2*c*rho, C = c.  Construction
    is refused when that budget breaks any standing inequality.
    """
    if c < 0:
        raise ContractError(f"coupling c must be nonnegative, got {c}")
    lam = _check_rates(lambda_s, lambda_u)
    probe = BoundSet(lam=lam, k=2.0 * c * rho, C=c, C_tilde=0.0, D=0.0, rho=rho, target_eps=1e-2)
    broken = [chk.name for chk in check_constants(probe) if not chk.holds]
    if broken:
        raise ContractError(
            f"coupling c={c} with rho={rho} breaks {', '.join(broken)} "
            f"(k = 2*c*rho = {2.0 * c * rho:.6g})"
        )

    def r_rows(S, U, X):
        w = c * S[:, :1] * U[:, :1]
        return (w, w.copy(), w.copy())

    def d_r_rows(S, U, X):
        row = np.column_stack((c * U[:, 0], c * S[:, 0], np.zeros(len(S))))
        return row[:, None].repeat(3, 1)

    def d2_r_rows(S, U, X):
        t = np.zeros((len(S), 3, 3, 3))
        t[:, :, 0, 1] = c
        t[:, :, 1, 0] = c
        return t

    return MapSpec(
        topo=ChartTopology.angles(1),
        rho=rho,
        lam=lam,
        g_map=_Stacked(lambda X: np.array(X, dtype=float)),
        r_map=_Stacked(r_rows),
        d_r=_Stacked(d_r_rows),
        d2_r=_Stacked(d2_r_rows),
        name="poly",
        **_constant_blocks(lambda_s, lambda_u),
    )


def make_twist_annulus(
    eps_twist: float,
    y0: float,
    y1: float,
    lambda_s: float = 0.5,
    lambda_u: float = 2.0,
    rho: float = 0.5,
) -> MapSpec:
    """Twist map on the annulus T x [y0, y1] with exactly invariant edges.

    The base dynamics is (x, y) -> (x + omega(y), y) plus an eps_twist-sized
    perturbation proportional to (y - y0)(y1 - y), so both boundary circles
    are fixed setwise to the last bit.  Default omega(y) = 2*pi*y (the
    time-2*pi advance of a unit rotor).  Normal directions are constant and
    uncoupled, as in ``make_linear``.
    """
    if not y0 < y1:
        raise ContractError(f"need y0 < y1, got y0={y0}, y1={y1}")
    lam = _check_rates(lambda_s, lambda_u)

    def g_rows(X):
        ang, y = X[:, 0], X[:, 1]
        bump = (y - y0) * (y1 - y)
        return np.column_stack(
            (ang + TWO_PI * y + eps_twist * bump * np.cos(ang), y + eps_twist * bump * np.sin(ang))
        )

    def d_g_rows(X):
        ang, y = X[:, 0], X[:, 1]
        bump = (y - y0) * (y1 - y)
        dbump = y0 + y1 - 2.0 * y
        cos, sin = np.cos(ang), np.sin(ang)
        return np.stack(
            (
                np.column_stack((1.0 - eps_twist * bump * sin, TWO_PI + eps_twist * dbump * cos)),
                np.column_stack((eps_twist * bump * cos, 1.0 + eps_twist * dbump * sin)),
            ),
            axis=1,
        )

    def d2_g(x):
        ang, y = float(x[0]), float(x[1])
        bump = (y - y0) * (y1 - y)
        dbump = y0 + y1 - 2.0 * y
        t = np.empty((2, 2, 2))
        t[0, 0, 0] = -eps_twist * bump * math.cos(ang)
        t[0, 0, 1] = -eps_twist * dbump * math.sin(ang)
        t[0, 1, 0] = t[0, 0, 1]
        t[0, 1, 1] = -2.0 * eps_twist * math.cos(ang)
        t[1, 0, 0] = -eps_twist * bump * math.sin(ang)
        t[1, 0, 1] = eps_twist * dbump * math.cos(ang)
        t[1, 1, 0] = t[1, 0, 1]
        t[1, 1, 1] = -2.0 * eps_twist * math.sin(ang)
        return t

    blocks = _constant_blocks(lambda_s, lambda_u, m=2)
    blocks.update(d_g=_Stacked(d_g_rows), d2_g=d2_g)
    return MapSpec(
        topo=ChartTopology.of(("angle", "linear")),
        rho=rho,
        lam=lam,
        g_map=_Stacked(g_rows),
        x_box=((0.0, TWO_PI), (y0, y1)),
        name="twist_annulus",
        **_zero_remainder(1, 1, 2),
        **blocks,
    )


def make_defective(condition: str = "b", amp: float = 0.025, rho: float = 0.5) -> MapSpec:
    """Deliberately broken map for testing the validators and margin checks.

    condition "b": r_u = amp*s, so the stable slice {u = 0} is not invariant.
    condition "d": r_x = amp*s, so the base dynamics leaks off the slices and
    the manifold-inclination bound must eventually be violated.
    """
    if condition not in ("b", "d"):
        raise ContractError(f"condition must be 'b' or 'd', got {condition!r}")
    row = 1 if condition == "b" else 2

    def r_rows(S, U, X):
        out = [np.zeros((len(S), 1)), np.zeros((len(S), 1)), np.zeros((len(S), 1))]
        out[row] = amp * S[:, :1]
        return tuple(out)

    jac = np.zeros((3, 3))
    jac[row, 0] = amp

    return MapSpec(
        topo=ChartTopology.angles(1),
        rho=rho,
        lam=0.5,
        g_map=_Stacked(lambda X: np.array(X, dtype=float)),
        r_map=_Stacked(r_rows),
        d_r=_Stacked(lambda S, U, X: jac[None].repeat(len(S), 0)),
        d2_r=_Stacked(lambda S, U, X: np.zeros((len(S), 3, 3, 3))),
        name=f"defective_{condition}",
        **_constant_blocks(0.5, 2.0),
    )


# ---------------------------------------------------------------------------
# Hamiltonian side


def contact_order(nu: float, sigma_param: float, log_base: str = "natural") -> int:
    """Even order 2*floor(log(nu)/(4*sigma) + 1) of cylinder tangency.

    Natural log by default; the base-10 reading is exposed as an experimental
    switch.  Any nu >= 1 is accepted (the floor form already yields the
    minimal order 2 whenever log(nu) < 4*sigma).
    """
    if not (math.isfinite(nu) and nu >= 1):
        raise ContractError(f"nu must be finite and at least 1, got {nu}")
    if not (math.isfinite(sigma_param) and sigma_param > 0):
        raise ContractError(f"sigma_param must be finite and positive, got {sigma_param}")
    if log_base == "natural":
        lg = math.log(nu)
    elif log_base == "base10":
        lg = math.log10(nu)
    else:
        raise ContractError(f"log_base must be 'natural' or 'base10', got {log_base!r}")
    ratio = lg / (4.0 * sigma_param)
    if not math.isfinite(ratio):
        raise ContractError(f"contact order overflows at nu={nu}, sigma_param={sigma_param}")
    return 2 * int(math.floor(ratio + 1.0))


DEFAULT_F_COEFFS = ((1, 0, 1.0, 0.0), (0, 1, 1.0, 0.0))  # cos(theta) + cos(phi)
DEFAULT_G_COEFFS = ((1, 0, 1.0, 0.0), (1, -1, 1.0, 0.0))  # cos(theta) + cos(theta - phi)


def _coeff_table(coeffs) -> tuple:
    """A Fourier table as a tuple of (k1, k2, cos_coeff, sin_coeff) rows of Python ints and floats."""
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ContractError("Fourier table rows must be (k1, k2, cos_coeff, sin_coeff)")
    if not np.all(np.isfinite(arr)):
        raise ContractError("Fourier table entries must be finite")
    k1 = arr[:, 0].astype(np.int64)
    k2 = arr[:, 1].astype(np.int64)
    if not (np.all(k1 == arr[:, 0]) and np.all(k2 == arr[:, 1])):
        raise ContractError("Fourier mode numbers k1, k2 must be integers")
    return tuple(zip(k1.tolist(), k2.tolist(), arr[:, 2].tolist(), arr[:, 3].tolist()))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Pendulum-plus-rotors Hamiltonian with a cylinder-flat coupling.

        H = p^2/2 + I^2/2 + J + eps*(cos q - 1) + eps*f(theta, phi)
            + mu*(sin q)^order * g(theta, phi)

    f and g are finite Fourier tables in the two rotor angles; the coupling
    exponent (``contact_order``) is derived from (nu, sigma_param) and is
    always an even integer >= 2, which keeps {p = q = 0} exactly invariant.
    The tables are checked and built into tuples once, at construction.
    """

    eps: float
    mu: float
    nu: float = 55.0
    sigma_param: float = 1.0
    f_coeffs: tuple = DEFAULT_F_COEFFS
    g_coeffs: tuple = DEFAULT_G_COEFFS
    log_base: str = "natural"
    _kernel_args: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for label, value in (("eps", self.eps), ("mu", self.mu)):
            if not (math.isfinite(value) and value >= 0):
                raise ContractError(f"{label} must be finite and nonnegative, got {value}")
        if self.mu > self.eps:
            raise ContractError(f"mu must not exceed eps, got mu={self.mu} > eps={self.eps}")
        if self.eps > 0 and self.mu > self.eps / 10.0:
            warnings.warn(
                f"mu={self.mu} is not small against eps={self.eps}; the coupling "
                "is meant to be a higher-order perturbation",
                stacklevel=2,
            )
        key = (contact_order(self.nu, self.sigma_param, self.log_base),
               _coeff_table(self.f_coeffs), _coeff_table(self.g_coeffs))
        object.__setattr__(self, "_kernel_args", (self.eps, self.mu, key))

    @property
    def contact_order(self) -> int:
        return self._kernel_args[2][0]

    def kernel_args(self) -> tuple:
        """(eps, mu, key) for the kernels, where ``_kernels`` generates the
        step loop, the energy and the vector field of the key
        (contact_order, f table, g table) at the key's first call."""
        return self._kernel_args


def _canonical_angle(a: float) -> float:
    w = math.fmod(a, TWO_PI)
    if w < 0.0:
        w += TWO_PI
    if w >= TWO_PI:
        w = 0.0
    return w


@dataclass(frozen=True)
class FlowState:
    """Flow state (p, q, I, theta, J, phi); the three angles live in [0, 2*pi)."""

    p: float
    q: float
    I: float
    theta: float
    J: float
    phi: float

    def __post_init__(self):
        for label, value in (("p", self.p), ("I", self.I), ("J", self.J)):
            if not math.isfinite(value):
                raise ContractError(f"momentum {label} must be finite, got {value}")
        for label, value in (("q", self.q), ("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(value):
                raise ContractError(f"angle {label} must be finite, got {value}")
            object.__setattr__(self, label, _canonical_angle(value))

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.q, self.I, self.theta, self.J, self.phi])

    @classmethod
    def from_array(cls, arr) -> "FlowState":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (6,):
            raise ContractError(f"a flow state has 6 components (p, q, I, theta, J, phi), got shape {arr.shape}")
        p, q, act, th, jj, ph = (float(v) for v in arr)
        return cls(p=p, q=q, I=act, theta=th, J=jj, phi=ph)


def hamiltonian_energy(hs: HamiltonianSpec, st: FlowState) -> float:
    return _kernels.energy((st.p, st.q, st.I, st.theta, st.J, st.phi), *hs.kernel_args())


def ham_vector_field(hs: HamiltonianSpec, st: FlowState) -> np.ndarray:
    """Time derivative (dp, dq, dI, dtheta, dJ, dphi) of the canonical flow."""
    return np.array(_kernels.field((st.p, st.q, st.I, st.theta, st.J, st.phi), *hs.kernel_args()))


def _step_size(h, upper: float = math.inf) -> float:
    """``h`` as a float; a step that is not finite or not in (0, upper] is a
    ContractError, never a NaN orbit or a conversion error further down."""
    h = float(h)
    if not (math.isfinite(h) and 0.0 < h <= upper):
        raise ContractError(f"step size must be a finite number in (0, {upper}], got {h}")
    return h


def symplectic_step(hs: HamiltonianSpec, st: FlowState, h: float) -> FlowState:
    """One kick(h/2)-drift(h)-kick(h/2) step of the separable splitting."""
    out = _kernels.advance(st.as_array(), _step_size(h), 1, *hs.kernel_args())
    return FlowState.from_array(out)


def integrate(hs: HamiltonianSpec, st: FlowState, h: float, n_steps: int) -> FlowState:
    """n_steps splitting steps in one kernel call."""
    out = _kernels.advance(st.as_array(), _step_size(h), _count(n_steps, "n_steps"), *hs.kernel_args())
    return FlowState.from_array(out)


def integrate_series(hs: HamiltonianSpec, st: FlowState, h: float, n_blocks: int, stride: int) -> np.ndarray:
    """Raw (n_blocks+1, 6) state record every ``stride`` steps, initial row included.

    Rows are kernel output: angles accumulate without wrapping, which is what
    growth-rate fits and drift audits want.
    """
    h = _step_size(h)
    n_blocks, stride = _count(n_blocks, "n_blocks"), _count(stride, "stride", 1)
    return _kernels.advance_sampled(st.as_array(), h, n_blocks, stride, *hs.kernel_args())


def poincare_map(hs: HamiltonianSpec, st: FlowState, h: float = 1e-3) -> tuple:
    """First return to the section {phi = 0}.

    The last angle advances at unit rate, so the return time is exactly
    2*pi: we take floor(2*pi/h) full steps plus one remainder step, then pin
    phi back to 0.  Returns (state, energy_drift).
    """
    if abs(st.phi) > 1e-12 and abs(st.phi - TWO_PI) > 1e-12:
        raise ContractError(f"state must start on the section phi=0, got phi={st.phi}")
    h = _step_size(h, TWO_PI)
    e0 = hamiltonian_energy(hs, st)
    args = hs.kernel_args()
    n_full = int(math.floor(TWO_PI / h))
    rem = TWO_PI - n_full * h
    arr = _kernels.advance(st.as_array(), h, n_full, *args)
    if rem > 0.0:
        arr = _kernels.advance(arr, float(rem), 1, *args)
    ret = FlowState.from_array(arr)
    ret = FlowState(p=ret.p, q=ret.q, I=ret.I, theta=ret.theta, J=ret.J, phi=0.0)
    return ret, hamiltonian_energy(hs, ret) - e0


def pendulum_local_coords(hs: HamiltonianSpec, st: FlowState) -> tuple:
    """Saddle eigencoordinates s = (q - p/sqrt(eps))/2, u = (q + p/sqrt(eps))/2.

    q is read as its signed representative in (-pi, pi] so that the saddle at
    the origin looks linear; exponents of the linearized flow are -sqrt(eps)
    along s and +sqrt(eps) along u.
    """
    if hs.eps <= 0:
        raise ContractError("local hyperbolic coordinates need eps > 0")
    root = math.sqrt(hs.eps)
    q_signed = st.q if st.q <= math.pi else st.q - TWO_PI
    return ((q_signed - st.p / root) / 2.0, (q_signed + st.p / root) / 2.0)


def pendulum_local_inverse(hs: HamiltonianSpec, s: float, u: float) -> tuple:
    """(p, q) from the saddle eigencoordinates."""
    if hs.eps <= 0:
        raise ContractError("local hyperbolic coordinates need eps > 0")
    root = math.sqrt(hs.eps)
    return (root * (u - s), s + u)


def _exponent_fit(hs: HamiltonianSpec, h: float, unstable: bool) -> float:
    """Log-slope of the expanding (or contracting) saddle coordinate."""
    delta = 1e-8
    root = math.sqrt(hs.eps)
    p0 = root * delta if unstable else -root * delta
    st = FlowState(p=p0, q=delta, I=0.0, theta=0.0, J=0.0, phi=0.0)
    t_span = 3.0 / root
    stride = max(1, int(round(t_span / (40 * h))))
    series = integrate_series(hs, st, h, n_blocks=40, stride=stride)
    ts = np.arange(41) * (stride * h)
    coord = 1 if unstable else 0
    vals = [abs(pendulum_local_coords(hs, FlowState.from_array(row))[coord]) for row in series]
    return float(np.polyfit(ts, np.log(np.asarray(vals)), 1)[0])


def hamiltonian_audits(
    hs: HamiltonianSpec, start: FlowState, h: float, returns: int, cyl_returns: int, fit_exponents: bool = True
) -> tuple:
    """The four integrator audits; returns (results, orbit).

    1. energy drift of ``start`` over ``returns`` Poincare returns;
    2. the cylinder {p = q = 0} at action start.I stays exactly invariant
       over ``cyl_returns`` returns;
    3. a free rotor (eps = mu = 0) advances theta by exactly 2*pi*I;
    4. with ``fit_exponents``, the saddle exponents about (p, q) = (0, 0)
       are fitted against +-sqrt(eps).

    ``results`` holds the measured figures (``exponents`` only when fitted);
    ``orbit`` lists (n, state, energy, drift) for n = 0..returns.  Judging
    the figures against tolerances is left to the caller.  Both return counts
    must be at least 1: a drift or residual measured over no returns is 0.0
    and would pass any tolerance.  The fit needs eps > 0, where the saddle
    exists; it is refused at eps = 0 before any return runs.
    """
    if fit_exponents and hs.eps == 0.0:
        raise ContractError("fit_exponents needs eps > 0; pass fit_exponents=False for eps = 0")
    returns, cyl_returns = _count(returns, "returns", 1), _count(cyl_returns, "cyl_returns", 1)
    e0 = hamiltonian_energy(hs, start)
    orbit = [(0, start, e0, 0.0)]
    drift_max = 0.0
    cur = start
    for n in range(1, returns + 1):
        cur, _ = poincare_map(hs, cur, h=h)
        e_n = hamiltonian_energy(hs, cur)
        drift_max = max(drift_max, abs(e_n - e0))
        orbit.append((n, cur, e_n, e_n - e0))

    cyl = FlowState(p=0.0, q=0.0, I=start.I, theta=0.3, J=0.0, phi=0.0)
    cyl_residual = 0.0
    for _ in range(cyl_returns):
        cyl, _ = poincare_map(hs, cyl, h=h)
        cyl_residual = max(cyl_residual, abs(cyl.p), min(cyl.q, TWO_PI - cyl.q))

    free = replace(hs, eps=0.0, mu=0.0)
    iret, _ = poincare_map(free, FlowState(p=0.0, q=0.0, I=0.17, theta=1.0, J=0.2, phi=0.0), h=h)
    theta_err = abs(iret.theta - (1.0 + TWO_PI * 0.17) % TWO_PI)
    theta_err = min(theta_err, TWO_PI - theta_err)

    results = {
        "energy_drift_max": drift_max,
        "cylinder_residual": cyl_residual,
        "integrable_theta_error": theta_err,
    }
    if fit_exponents:
        root = math.sqrt(hs.eps)
        u_rate = _exponent_fit(hs, h, unstable=True)
        s_rate = _exponent_fit(hs, h, unstable=False)
        results["exponents"] = {
            "target": root,
            "unstable_rate": u_rate,
            "stable_rate": s_rate,
            "unstable_rel_err": abs(u_rate - root) / root,
            "stable_rel_err": abs(-s_rate - root) / root,
        }
    return results, orbit
