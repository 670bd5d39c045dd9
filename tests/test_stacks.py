"""The stacked Jacobian assembly, mesh step and bound grid against the per-row loops they replace.

Each oracle below is the per-row code as it ran before the stacks, kept here
so that every output can be compared bit for bit (``np.array_equal`` and
float ``repr``, never approx).  The stacked forms of the built-in maps are
compared with their one-point callables the same way.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest

import _fd_oracles
from nhimlab import (
    ChartTopology,
    ContractError,
    Dimensions,
    DiskSpec,
    GraphPair,
    MapSpec,
    conjugate_map,
    estimate_bounds,
    jacobian,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    seed_mesh,
    unstraighten_map,
    validate_conditions,
)
from nhimlab import _fd, normalform
from nhimlab.geometry import _max_keep_nan, _wrap_angles, mat_row_sup_norm, tensor_row_sup_norm
from nhimlab.normalform import (
    FD_STEP_FIRST,
    FD_STEP_SECOND,
    BoundSet,
    _bound_grid,
    _image,
    _jacobians,
    _Stacked,
)
from nhimlab.tangentflow import _step

RHO = 0.4


def spec_222():
    """n_s = n_u = m = 2 on T x R: x-dependent non-normal A_s with analytic d_A_s, x-dependent
    A_u and g differenced, and a remainder with no derivatives at all."""

    def A_s(x):
        return np.array([[0.3 + 0.1 * np.sin(x[0]), 0.2 * np.cos(x[0]) * x[1]], [0.05 * x[1], 0.25]])

    def d_A_s(x):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.1 * np.cos(x[0])
        t[0, 1, 0] = -0.2 * np.sin(x[0]) * x[1]
        t[0, 1, 1] = 0.2 * np.cos(x[0])
        t[1, 0, 1] = 0.05
        return t

    def A_u(x):
        return np.array([[2.5 + 0.2 * np.cos(x[0]), 0.3 * x[1]], [0.1 * np.sin(x[0]), 3.0]])

    def g_map(x):
        return np.array([x[0] + 0.3 + 0.1 * np.sin(x[1]), 0.5 * x[1] + 0.05 * np.cos(x[0])])

    def r_map(s, u, x):
        return (
            np.array([0.1 * s[0] * u[1] + 0.05 * s[1] ** 2 * np.sin(x[0]), 0.07 * s[0] * s[1] * u[0]]),
            np.array([0.08 * u[0] * s[1] * np.cos(x[0]), 0.06 * u[1] ** 2 * s[0] + 0.03 * u[0] * x[1] * s[1]]),
            np.array([0.04 * s[0] * u[1] * np.cos(x[1]), 0.05 * s[1] * u[0]]),
        )

    return MapSpec(
        dims=Dimensions(2, 2, 2),
        topo=ChartTopology.of(("angle", "linear")),
        rho=RHO,
        lam=0.7,
        A_s=A_s,
        A_u=A_u,
        g_map=g_map,
        r_map=r_map,
        d_A_s=d_A_s,
        x_box=((0.0, 2.0 * np.pi), (-0.5, 0.5)),
        name="spec_222",
    )


def _r_jacobian(f, s, u, x, h):
    """The one-point Jacobian of r as it ran per row: d_r, else differences of r_map."""
    if f.d_r is not None:
        return np.asarray(f.d_r(s, u, x), dtype=float)
    return _fd_oracles._r_jacobian(f, s, u, x, h)


def _g_jacobian(f, x, h):
    if f.d_g is not None:
        return np.asarray(f.d_g(x), dtype=float)
    return _fd_oracles._fd_first(lambda z: np.asarray(f.g_map(z), dtype=float).reshape(-1), x, h)


def _a_tensor(f, which, x, h):
    """d A / d x as an (n, n, m) tensor, analytic when available."""
    fun = f.A_s if which == "s" else f.A_u
    der = f.d_A_s if which == "s" else f.d_A_u
    if der is not None:
        return np.asarray(der(x), dtype=float)
    size = f.dims.n_s if which == "s" else f.dims.n_u
    cols = _fd_oracles._fd_first(lambda z: np.asarray(fun(z), dtype=float).reshape(-1), x, h)
    return cols.reshape(size, size, -1)


def _second_tensor(f, s, u, x):
    if f.d2_r is not None:
        return np.asarray(f.d2_r(s, u, x), dtype=float)
    return _fd_oracles._fd_second(_fd_oracles._r_flat(f), f.dims.join(s, u, x), FD_STEP_SECOND)


def _g_second_tensor(f, x):
    if f.d2_g is not None:
        return np.asarray(f.d2_g(x), dtype=float)
    return _fd_oracles._fd_second(lambda z: np.asarray(f.g_map(z), dtype=float).reshape(-1), x, FD_STEP_SECOND)


def jacobian_by_rows(f, z, h):
    """The one-point block assembly as it ran per row."""
    s, u, x = f.dims.split(z)
    a, b = f.dims.n_s, f.dims.n_s + f.dims.n_u
    jac = np.array(_r_jacobian(f, s, u, x, h), dtype=float)
    jac[:a, :a] += f.A_s(x)
    jac[a:b, a:b] += f.A_u(x)
    jac[b:, b:] += _g_jacobian(f, x, h)
    jac[:a, b:] += np.einsum("ijk,j->ik", _a_tensor(f, "s", x, h), s)
    jac[a:b, b:] += np.einsum("ijk,j->ik", _a_tensor(f, "u", x, h), u)
    return jac


def bounds_by_rows(f, grid_density=7, target_eps=1e-2):
    """``estimate_bounds`` as one pass of per-row norms over the grid."""
    dims = f.dims
    sl_s = slice(0, dims.n_s)
    sl_u = slice(dims.n_s, dims.n_s + dims.n_u)
    sl_x = slice(dims.n_s + dims.n_u, dims.n)
    margin = 0.0 if (f.d_r is not None and f.d2_r is not None) else 2.5 * FD_STEP_SECOND
    k = c_listed = c_excluded = c_tilde = d_bound = 0.0
    col_blocks = {"s": sl_s, "u": sl_u, "x": sl_x}
    seen_x = set()
    for row in _bound_grid(f, grid_density, margin):
        s_i, u_i, x_i = dims.split(row)
        k = _max_keep_nan(k, mat_row_sup_norm(_r_jacobian(f, s_i, u_i, x_i, FD_STEP_FIRST)))
        t2 = _second_tensor(f, s_i, u_i, x_i)
        for rows in (sl_s, sl_x):
            for sig in ("s", "u", "x"):
                for sig2 in ("u", "x"):
                    c_listed = _max_keep_nan(
                        c_listed, tensor_row_sup_norm(t2[rows, col_blocks[sig], col_blocks[sig2]])
                    )
                c_excluded = _max_keep_nan(c_excluded, tensor_row_sup_norm(t2[rows, col_blocks[sig], sl_s]))
        x_key = x_i.tobytes()
        if x_key not in seen_x:
            seen_x.add(x_key)
            c_tilde = _max_keep_nan(c_tilde, tensor_row_sup_norm(_g_second_tensor(f, x_i)))
            d_bound = _max_keep_nan(d_bound, tensor_row_sup_norm(_a_tensor(f, "s", x_i, FD_STEP_FIRST)))
    return BoundSet(
        lam=f.lam, k=k, C=c_listed, C_tilde=c_tilde, D=d_bound, rho=f.rho, target_eps=target_eps,
        c_excluded=c_excluded,
    )


def spec_222_rows():
    """Rows of spec_222 inside the ball, some within one step of its edge in s or u, both signs."""
    rng = np.random.default_rng(15)
    Z = np.column_stack([
        rng.uniform(-0.9 * RHO, 0.9 * RHO, (40, 4)),
        rng.uniform(0.0, 2.0 * np.pi, 40),
        rng.uniform(-0.5, 0.5, 40),
    ])
    edge = RHO - 0.3 * FD_STEP_FIRST
    Z[0, 0] = edge
    Z[1, 1] = -edge
    Z[2, 2] = edge
    Z[3, [0, 3]] = (-edge, edge)
    Z[4, :4] = 0.0
    return Z


def test_jacobians_match_the_per_row_assembly():
    f = spec_222()
    Z = spec_222_rows()
    at_edge = []  # the one-sided fallback evaluates r at the row itself
    counted = dataclasses.replace(
        f, r_map=lambda s, u, x: at_edge.append(np.concatenate((s, u, x))) or f.r_map(s, u, x))
    J = _jacobians(counted, Z, FD_STEP_FIRST)
    assert J.shape == (len(Z), 6, 6)
    assert any(np.array_equal(z, Z[0]) for z in at_edge) and any(np.array_equal(z, Z[3]) for z in at_edge)
    for z, jac in zip(Z, J):
        assert np.array_equal(jac, jacobian_by_rows(f, z, FD_STEP_FIRST))
        assert np.array_equal(jacobian(f, f.point(*f.dims.split(z))), jac)
    # a row's Jacobian does not depend on the rows stacked with it
    assert np.array_equal(_jacobians(f, Z[::-3], FD_STEP_FIRST), J[::-3])


def test_jacobians_of_no_rows():
    f = spec_222()
    assert _jacobians(f, np.empty((0, 6)), FD_STEP_FIRST).shape == (0, 6, 6)
    assert _jacobians(make_poly(0.05), np.empty((0, 3)), FD_STEP_FIRST).shape == (0, 3, 3)


@pytest.mark.parametrize("rows_held", [None, 7])
@pytest.mark.parametrize(
    "make, density",
    [(lambda: make_poly(0.05), 7), (lambda: make_twist_annulus(0.05, 0.0, 1.0), 5), (spec_222, 2)],
)
def test_estimate_bounds_match_the_per_row_pass(monkeypatch, make, density, rows_held):
    f = make()
    if rows_held is not None:  # several stacks and a short last one
        monkeypatch.setattr(normalform, "BOUND_ROWS", rows_held)
    assert repr(estimate_bounds(f, grid_density=density).to_dict()) == repr(bounds_by_rows(f, density).to_dict())


def poisoned(f, which, at_row, value):
    """f whose analytic ``which`` (d_r or d2_r) gives ``value`` (NaN or an exception) at one grid row."""
    target = _bound_grid(f, 3, 0.0)[at_row]
    original = getattr(f, which)

    def derivative(s, u, x):
        out = np.array(original(s, u, x), dtype=float)
        if np.array_equal(f.dims.join(s, u, x), target):
            if isinstance(value, Exception):
                raise value
            out.flat[1] = value
        return out

    return dataclasses.replace(f, **{which: derivative})


@pytest.mark.parametrize("rows_held", [None, 5])
@pytest.mark.parametrize("at_row", [0, 29, 47])
def test_one_nan_grid_row_is_kept(monkeypatch, rows_held, at_row):
    if rows_held is not None:
        monkeypatch.setattr(normalform, "BOUND_ROWS", rows_held)
    f = make_poly(0.05)
    assert len(_bound_grid(f, 3, 0.0)) == 48
    clean = estimate_bounds(f, grid_density=3)
    b = estimate_bounds(poisoned(f, "d_r", at_row, math.nan), grid_density=3)
    assert math.isnan(b.k) and b.C == clean.C
    b = estimate_bounds(poisoned(f, "d2_r", at_row, math.nan), grid_density=3)
    assert math.isnan(b.C) and b.k == clean.k
    for which in ("d_r", "d2_r"):
        g = poisoned(f, which, at_row, math.nan)
        assert repr(estimate_bounds(g, grid_density=3).to_dict()) == repr(bounds_by_rows(g, 3).to_dict())


class RowError(Exception):
    pass


@pytest.mark.parametrize("rows_held", [None, 5])
def test_a_raising_grid_row_raises_as_before(monkeypatch, rows_held):
    if rows_held is not None:
        monkeypatch.setattr(normalform, "BOUND_ROWS", rows_held)
    f = make_poly(0.05)
    for first, second in (("d_r", "d2_r"), ("d2_r", "d_r")):
        for early, late in ((12, 40), (40, 12), (12, 12)):
            g = poisoned(poisoned(f, first, early, RowError(first)), second, late, RowError(second))
            with pytest.raises(RowError) as new:
                estimate_bounds(g, grid_density=3)
            with pytest.raises(RowError) as old:
                bounds_by_rows(g, 3)
            assert str(new.value) == str(old.value)
            assert str(new.value) == ("d_r" if early == late else (first if early < late else second))


def test_nan_radius_is_refused_at_construction():
    f = make_linear(0.5, 2.0, rho=0.3)
    with pytest.raises(ContractError, match="rho must be positive"):
        conjugate_map(f, GraphPair.zero(1, 1), radius=float("nan"))
    for bad in (math.nan, 0.0, -0.0, -1.0, -math.inf, math.inf):
        with pytest.raises(ContractError):
            dataclasses.replace(f, rho=bad)
    for good in (5e-324, 1e-300, 0.3, 1e300):
        assert dataclasses.replace(f, rho=good).rho == good
    assert conjugate_map(f, GraphPair.zero(1, 1), radius=0.25).rho == 0.25


CALLABLES = ("A_s", "A_u", "g_map", "r_map", "d_r", "d2_r", "d_A_s", "d_A_u", "d_g", "d2_g")


def as_plain(f):
    """f with every callable behind a plain function, so that each runs once per row."""
    return dataclasses.replace(
        f, **{name: (lambda *args, fn=fn: fn(*args)) for name in CALLABLES if (fn := getattr(f, name)) is not None}
    )


def spec_222_stacked():
    """spec_222 with stacked forms of A_s, A_u, g_map, r_map and d_A_s; its d_A_u, d_g and d_r
    stay differences row by row."""
    f = spec_222()

    def A_s(X):
        out = np.empty((len(X), 2, 2))
        out[:, 0, 0] = 0.3 + 0.1 * np.sin(X[:, 0])
        out[:, 0, 1] = 0.2 * np.cos(X[:, 0]) * X[:, 1]
        out[:, 1, 0] = 0.05 * X[:, 1]
        out[:, 1, 1] = 0.25
        return out

    def d_A_s(X):
        t = np.zeros((len(X), 2, 2, 2))
        t[:, 0, 0, 0] = 0.1 * np.cos(X[:, 0])
        t[:, 0, 1, 0] = -0.2 * np.sin(X[:, 0]) * X[:, 1]
        t[:, 0, 1, 1] = 0.2 * np.cos(X[:, 0])
        t[:, 1, 0, 1] = 0.05
        return t

    def A_u(X):
        out = np.empty((len(X), 2, 2))
        out[:, 0, 0] = 2.5 + 0.2 * np.cos(X[:, 0])
        out[:, 0, 1] = 0.3 * X[:, 1]
        out[:, 1, 0] = 0.1 * np.sin(X[:, 0])
        out[:, 1, 1] = 3.0
        return out

    def g_map(X):
        return np.column_stack((X[:, 0] + 0.3 + 0.1 * np.sin(X[:, 1]), 0.5 * X[:, 1] + 0.05 * np.cos(X[:, 0])))

    def r_map(S, U, X):
        (s0, s1), (u0, u1), (x0, x1) = S.T, U.T, X.T
        return (
            np.column_stack((0.1 * s0 * u1 + 0.05 * s1**2 * np.sin(x0), 0.07 * s0 * s1 * u0)),
            np.column_stack((0.08 * u0 * s1 * np.cos(x0), 0.06 * u1**2 * s0 + 0.03 * u0 * x1 * s1)),
            np.column_stack((0.04 * s0 * u1 * np.cos(x1), 0.05 * s1 * u0)),
        )

    stacked = dict(A_s=A_s, d_A_s=d_A_s, A_u=A_u, g_map=g_map, r_map=r_map)
    return dataclasses.replace(f, **{name: _Stacked(rows) for name, rows in stacked.items()})


def r_map_replaced(make):
    """The map of ``make`` with only r_map behind a plain function, as a counting wrapper leaves it."""
    f = make()
    return dataclasses.replace(f, r_map=lambda s, u, x: f.r_map(s, u, x))


STEP_MAPS = {
    "linear": lambda: make_linear(0.5, 2.0, omega=0.3),
    "poly": lambda: make_poly(0.05),
    "twist": lambda: make_twist_annulus(0.05, 0.0, 1.0),
    "defective_d": lambda: make_defective("d"),
    "spec_222": spec_222_stacked,
    "poly_r_map_replaced": lambda: r_map_replaced(lambda: make_poly(0.05)),
    "spec_222_r_map_replaced": lambda: r_map_replaced(spec_222_stacked),
}


def step_rows(f, restricted, count=60):
    """Rows inside f's ball, the images of some leaving it unless ``restricted`` puts them on
    u = 0, with two-vector frames whose unstable parts are nonzero."""
    dims = f.dims
    a, b = dims.n_s, dims.n_s + dims.n_u
    rng = np.random.default_rng(19)
    Z = np.column_stack(
        [rng.uniform(-0.95 * f.rho, 0.95 * f.rho, (count, b))] + [rng.uniform(lo, hi, count) for lo, hi in f.x_ranges()]
    )
    if restricted:
        Z[:, a:b] = 0.0
    F = rng.uniform(-1.0, 1.0, (count, 2, dims.n))
    F[:, :, a] = 1.0
    return Z, F


BUILT_IN = ("linear", "poly", "twist", "defective_d")


def constant_blocks_by_point(lambda_s, lambda_u, m):
    """The one-point forms of ``models._constant_blocks``, as they were written before the stacks."""
    return dict(
        A_s=lambda x: np.array([[lambda_s]]),
        A_u=lambda x: np.array([[lambda_u]]),
        d_A_s=lambda x: np.zeros((1, 1, m)),
        d_A_u=lambda x: np.zeros((1, 1, m)),
        d_g=lambda x: np.eye(m),
        d2_g=lambda x: np.zeros((m, m, m)),
    )


def zero_remainder_by_point(n_s, n_u, m):
    """The one-point forms of ``models._zero_remainder``."""
    n = n_s + n_u + m
    return dict(
        r_map=lambda s, u, x: (np.zeros(n_s), np.zeros(n_u), np.zeros(m)),
        d_r=lambda s, u, x: np.zeros((n, n)),
        d2_r=lambda s, u, x: np.zeros((n, n, n)),
    )


def poly_by_point(c):
    """The one-point closed forms of ``make_poly(c)``."""

    def r_map(s, u, x):
        w = c * s[0] * u[0]
        return (np.array([w]), np.array([w]), np.array([w]))

    def d_r(s, u, x):
        return np.tile(np.array([c * u[0], c * s[0], 0.0]), (3, 1))

    def d2_r(s, u, x):
        t = np.zeros((3, 3, 3))
        t[:, 0, 1] = c
        t[:, 1, 0] = c
        return t

    return dict(constant_blocks_by_point(0.5, 2.0, 1), g_map=lambda x: np.asarray(x, dtype=float),
                r_map=r_map, d_r=d_r, d2_r=d2_r)


def twist_by_point(eps_twist, y0, y1):
    """The one-point closed forms of ``make_twist_annulus(eps_twist, y0, y1)``, on Python floats."""

    def g_map(x):
        ang, y = float(x[0]), float(x[1])
        bump = (y - y0) * (y1 - y)
        return np.array(
            [ang + 2.0 * math.pi * y + eps_twist * bump * math.cos(ang), y + eps_twist * bump * math.sin(ang)]
        )

    def d_g(x):
        ang, y = float(x[0]), float(x[1])
        bump = (y - y0) * (y1 - y)
        dbump = y0 + y1 - 2.0 * y
        return np.array(
            [
                [1.0 - eps_twist * bump * math.sin(ang), 2.0 * math.pi + eps_twist * dbump * math.cos(ang)],
                [eps_twist * bump * math.cos(ang), 1.0 + eps_twist * dbump * math.sin(ang)],
            ]
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

    return dict(constant_blocks_by_point(0.5, 2.0, 2), **zero_remainder_by_point(1, 1, 2),
                g_map=g_map, d_g=d_g, d2_g=d2_g)


def defective_by_point(condition, amp=0.025):
    """The one-point closed forms of ``make_defective(condition, amp)``."""
    row = 1 if condition == "b" else 2
    jac = np.zeros((3, 3))
    jac[row, 0] = amp

    def r_map(s, u, x):
        out = [np.zeros(1), np.zeros(1), np.zeros(1)]
        out[row] = np.array([amp * s[0]])
        return tuple(out)

    return dict(constant_blocks_by_point(0.5, 2.0, 1), g_map=lambda x: np.asarray(x, dtype=float), r_map=r_map,
                d_r=lambda s, u, x: jac.copy(), d2_r=lambda s, u, x: np.zeros((3, 3, 3)))


# the closed forms at one point of the built-in maps of STEP_MAPS, the oracles of their stacked forms
BY_POINT = {
    "linear": lambda: dict(constant_blocks_by_point(0.5, 2.0, 1), **zero_remainder_by_point(1, 1, 1),
                           g_map=lambda x: x + 0.3),
    "poly": lambda: poly_by_point(0.05),
    "twist": lambda: twist_by_point(0.05, 0.0, 1.0),
    "defective_d": lambda: defective_by_point("d"),
    "spec_222": lambda: {name: getattr(spec_222(), name) for name in CALLABLES},
}


@pytest.mark.parametrize("name", BUILT_IN + ("spec_222",))
def test_each_stacked_form_is_its_one_point_callable_row_by_row(name):
    # every callable is stacked once a map is built; each stack is compared with its one-row reads and
    # with the map's closed forms at one point (spec_222's plain callables)
    f = STEP_MAPS[name]()
    S, U, X = np.split(step_rows(f, restricted=False)[0], [f.dims.n_s, f.dims.n_s + f.dims.n_u], axis=1)
    stacked = [attr for attr in CALLABLES if getattr(f, attr) is not None]
    assert all(isinstance(getattr(f, attr), _Stacked) for attr in stacked)
    if name in BUILT_IN:
        assert stacked == list(CALLABLES)
    by_point = BY_POINT[name]()
    for attr in stacked:
        fn = getattr(f, attr)
        args = (S, U, X) if attr in ("r_map", "d_r", "d2_r") else (X,)
        rows = fn.rows(*args)
        for i, row in enumerate(zip(*args)):
            for one in (fn, by_point[attr]):
                if attr == "r_map":
                    for block, part in zip(rows, one(*row)):
                        assert np.array_equal(block[i], np.reshape(part, -1))
                else:
                    assert np.array_equal(rows[i], one(*row))


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("make", STEP_MAPS.values(), ids=STEP_MAPS.keys())
def test_stacked_step_is_the_per_row_step_bit_for_bit(make, restricted):
    f = make()
    Z, F = step_rows(f, restricted)
    got = _step(f, Z, F, require_unstable=True, restricted=restricted)
    plain = _step(as_plain(f), Z, F, require_unstable=True, restricted=restricted)
    for stacked, by_rows in zip(got, plain):  # images, frames, pushes of the live rows, escapes, image norms
        assert np.array_equal(stacked, by_rows, equal_nan=True)
    Q, _, _, escaped, _ = got
    assert escaped.any() != restricted  # rows that escape and rows that stay are both compared
    # every live image is the one-point image of its row: A @ s per row against the stacked matmul
    a, b = f.dims.n_s, f.dims.n_s + f.dims.n_u
    for z, q in zip(Z[~escaped], Q[~escaped]):
        image = np.concatenate(_image(f, *f.dims.split(z)))
        if restricted:
            image[a:b] = 0.0
        assert np.array_equal(q, _wrap_angles(image, np.r_[np.zeros(b, bool), f.topo.is_angle]))


@pytest.mark.parametrize("make", STEP_MAPS.values(), ids=STEP_MAPS.keys())
def test_stacked_jacobians_match_the_per_row_assembly(make):
    f = make()
    Z, _ = step_rows(f, restricted=False)
    J = _jacobians(f, Z, FD_STEP_FIRST)
    for z, jac in zip(Z, J):
        assert np.array_equal(jac, jacobian_by_rows(f, z, FD_STEP_FIRST))


def counted(f, calls):
    """f with each callable counting its stacked reads under ``name.rows`` in ``calls``; a one-point
    read is a one-row stacked read."""

    def wrap(name, fn):
        def rows(*args):
            calls[name + ".rows"] += 1
            return fn.rows(*args)

        return _Stacked(rows)

    return dataclasses.replace(f, **{name: wrap(name, fn) for name in CALLABLES if (fn := getattr(f, name)) is not None})


@pytest.mark.parametrize("rows", [1, 7, 60])
def test_a_poly_mesh_step_calls_each_stacked_form_once_whatever_its_rows(rows):
    calls = collections.Counter()
    f = counted(make_poly(0.05), calls)
    Z, F = step_rows(f, restricted=False)
    _step(f, Z[:rows], F[:rows], require_unstable=True, restricted=False)
    # A_s and A_u once for the images and once for the Jacobians of the rows still in the ball;
    # d2_r and d2_g are not read by a step
    assert calls == {
        "r_map.rows": 1, "g_map.rows": 1, "A_s.rows": 2, "A_u.rows": 2,
        "d_r.rows": 1, "d_A_s.rows": 1, "d_A_u.rows": 1, "d_g.rows": 1,
    }


@pytest.mark.parametrize("rows_held, stacks", [(None, 1), (5, 10)])
def test_a_poly_bound_grid_calls_each_derivative_once_per_stack(monkeypatch, rows_held, stacks):
    if rows_held is not None:
        monkeypatch.setattr(normalform, "BOUND_ROWS", rows_held)
    calls = collections.Counter()
    f = counted(make_poly(0.05), calls)
    assert repr(estimate_bounds(f, grid_density=3).to_dict()) == repr(bounds_by_rows(make_poly(0.05), 3).to_dict())
    # the 48 grid rows: d_r and d2_r once per stack; d2_g and d_A_s once, on the stack of the 3 values
    # of x, which the first stack holds
    assert calls == {"d_r.rows": stacks, "d2_r.rows": stacks, "d2_g.rows": 1, "d_A_s.rows": 1}


def test_poly_validation_reads_one_stack_of_samples():
    calls = collections.Counter()
    f = counted(make_poly(0.05), calls)
    report = validate_conditions(f, sample_count=40).to_dict()
    assert report == validate_conditions(as_plain(make_poly(0.05)), sample_count=40).to_dict()
    # the zero section and both slices of all 40 samples in one stack; the slice rows of its first 32
    # samples give the derivative checks; condition e) reads one stack of all 40 samples
    assert calls == {"r_map.rows": 1, "d_r.rows": 1, "A_s.rows": 1, "A_u.rows": 1}


def fd_second_by_point(func, z, h):
    """The one-point second differences as they ran before the stacks."""
    z = np.asarray(z, dtype=float)
    f0 = func(z)
    out = np.empty((f0.size, z.size, z.size))
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        out[:, j, j] = (func(zp) - 2.0 * f0 + func(zm)) / (h * h)
        for k in range(j + 1, z.size):
            zpp, zpm, zmp, zmm = z.copy(), z.copy(), z.copy(), z.copy()
            zpp[[j, k]] += h
            zmm[[j, k]] -= h
            zpm[j] += h
            zpm[k] -= h
            zmp[j] -= h
            zmp[k] += h
            out[:, j, k] = out[:, k, j] = (func(zpp) - func(zpm) - func(zmp) + func(zmm)) / (4.0 * h * h)
    return out


def test_stacked_differences_are_the_one_point_ones_row_by_row():
    rng = np.random.default_rng(43)
    for k in (1, 2, 3, 5):
        A, B = rng.standard_normal((4, k)), rng.standard_normal((4, k, k))

        def func(z):
            # the last term tells -0.0 from 0.0: a probe leaves the coordinates it does not move as they are
            smooth = np.sin(A @ z) + np.einsum("ijk,j,k->i", B, z, z) + np.exp(z[0]) * z[-1]
            return smooth + np.copysign(1e-3, z[0])

        Z = rng.uniform(-1.0, 1.0, (6, k)) * rng.choice([1e-3, 1.0, 10.0], (6, 1))
        Z[0, 0] = -0.0
        for h in (FD_STEP_FIRST, FD_STEP_SECOND):
            first = _fd._fd_first_rows(lambda V: np.array([func(v) for v in V]), Z, h)
            second = _fd._fd_second_rows(lambda V: np.array([func(v) for v in V]), Z, h)
            for z, d1, d2 in zip(Z, first, second):
                assert np.array_equal(d1, _fd_oracles._fd_first(func, z, h))
                assert np.array_equal(d2, fd_second_by_point(func, z, h))
                assert np.array_equal(d2, _fd_oracles._fd_second(func, z, h))


FALLBACK_MAPS = {"poly": lambda: make_poly(0.05), "twist": lambda: make_twist_annulus(0.05, 0.0, 1.0)}


def edge_rows(f, h=FD_STEP_FIRST):
    """Six rows of f's ball within h of its edge, s = +-(rho - 0.4 h), u = +-(rho - 0.3 h) and two
    corners, where a probe leaves the ball; then one row well inside it."""
    e_s, e_u = f.rho - 0.4 * h, f.rho - 0.3 * h
    su = [(e_s, 0.01), (-e_s, -0.02), (0.03, e_u), (0.01, -e_u), (e_s, e_u), (-e_s, -e_u), (0.1, -0.2)]
    x = np.linspace(0.2, 0.8, f.dims.m)
    return np.array([[s, u, *x] for s, u in su])


@pytest.mark.parametrize("make", FALLBACK_MAPS.values(), ids=FALLBACK_MAPS.keys())
def test_a_remainder_without_d_r_is_differenced_on_one_stack_one_sided_at_the_edge(make):
    f, seen = make(), []
    f = dataclasses.replace(f, d_r=None, r_map=counting_rows(f.r_map, seen))
    Z = edge_rows(f)
    J = _jacobians(f, Z, FD_STEP_FIRST)
    # one read of r_map: every probe but the eight outside the ball (one per edge row, two per
    # corner), and the six edge rows themselves
    assert seen == [2 * f.dims.n * len(Z) - 8 + 6]
    for z, jac in zip(Z, J):
        assert np.array_equal(jac, jacobian_by_rows(f, z, FD_STEP_FIRST))


@pytest.mark.parametrize("make", FALLBACK_MAPS.values(), ids=FALLBACK_MAPS.keys())
def test_a_step_that_does_not_fit_the_ball_is_refused_on_a_stack_as_at_one_point(make):
    f = dataclasses.replace(make(), d_r=None, rho=1e-6)
    Z = np.tile(np.r_[0.0, 0.0, np.linspace(0.2, 0.8, f.dims.m)], (3, 1))
    with pytest.raises(ContractError, match="does not fit inside the neighborhood"):
        _fd_oracles._r_jacobian(f, *f.dims.split(Z[0]), FD_STEP_FIRST)
    with pytest.raises(ContractError, match="does not fit inside the neighborhood"):
        _jacobians(f, Z, FD_STEP_FIRST)


def test_a_jacobian_without_d_r_reads_a_stacked_r_map_once_and_a_plain_one_per_probe_in_row_order():
    f, h = dataclasses.replace(make_poly(0.05), d_r=None), FD_STEP_FIRST
    edge = np.linspace(-(f.rho - 0.4 * h), f.rho - 0.4 * h, 11)
    Z = np.array([[s, u, 0.3] for s in edge for u in edge])
    calls = collections.Counter()
    J = _jacobians(counted(f, calls), Z, h)
    assert calls["r_map.rows"] == 1
    # a plain r_map runs once per probe row: each row's plus probes, its minus probes, then the row
    # itself when one of its probes leaves the ball
    read = []
    plain = dataclasses.replace(f, r_map=lambda s, u, x: read.append(np.r_[s, u, x]) or f.r_map(s, u, x))
    assert np.array_equal(_jacobians(plain, Z, h), J)
    want = []
    for z in Z:
        probes = [z.copy() for _ in range(6)]
        for j in range(3):
            probes[j][j] += h
            probes[3 + j][j] -= h
        kept = [p for p in probes if np.abs(p[:2]).max() < f.rho]
        want += kept + ([z] if len(kept) < 6 else [])
    assert np.array_equal(read, want)


def test_errors_across_the_rows_of_a_differenced_jacobian_are_the_first_rows():
    # the stack refuses a row whose step does not fit before reading anything, and a loop over the
    # rows then raises the first row's error, as the one-point differences did
    f = make_poly(0.05)

    def r_map(s, u, x):
        if x[0] > 1.0:
            raise ValueError("r_map refuses x > 1")
        return f.r_map(s, u, x)

    g = dataclasses.replace(f, r_map=r_map, d_r=None)
    raising, unfit = [0.1, 0.1, 2.0], [math.nan, 0.1, 0.3]

    def read(Z):
        return normalform._in_row_order(lambda rows: _jacobians(g, Z[rows], FD_STEP_FIRST), len(Z))

    with pytest.raises(ValueError, match="refuses"):
        read(np.array([raising, unfit]))
    with pytest.raises(ContractError, match="does not fit"):
        read(np.array([unfit, raising]))


def condition_e_by_samples(f, sample_count):
    """Condition e) as it ran one sample at a time: a singular A_u(x) set the violation to inf."""
    dims = f.dims
    t = normalform._unit_samples(dims.n, sample_count, 0)
    viol_e = 0.0
    for x_i in normalform._scale_manifold(t[:, dims.n_s + dims.n_u :], f.x_ranges()):
        viol_e = _max_keep_nan(viol_e, mat_row_sup_norm(f.A_s(x_i)) - f.lam)
        a_u = np.asarray(f.A_u(x_i), dtype=float)
        try:
            inv = np.linalg.inv(a_u)
        except np.linalg.LinAlgError:
            viol_e = math.inf
            continue
        viol_e = _max_keep_nan(viol_e, mat_row_sup_norm(inv) - f.lam)
    return _max_keep_nan(viol_e, 0.0)


def singular_where(f, x_lo):
    """f whose A_u(x) loses its second row at the samples with x[1] > x_lo."""
    return dataclasses.replace(f, A_u=lambda x: f.A_u(x) * np.array([[1.0], [0.0 if x[1] > x_lo else 1.0]]))


def nan_where(f, name, x_lo):
    """f whose A_s or A_u has a NaN entry at the samples with x[1] > x_lo."""
    fn = getattr(f, name)
    return dataclasses.replace(f, **{name: lambda x: fn(x) + np.array([[0.0, math.nan if x[1] > x_lo else 0.0], [0.0, 0.0]])})


@pytest.mark.parametrize("make", [
    spec_222,
    lambda: dataclasses.replace(spec_222(), lam=0.3),  # ||A_s|| above lambda
    lambda: singular_where(spec_222(), 0.3),
    lambda: singular_where(spec_222(), -0.6),  # at every sample
    lambda: nan_where(spec_222(), "A_s", 0.3),
    lambda: nan_where(spec_222(), "A_u", 0.3),
])
def test_condition_e_on_one_stack_reads_as_the_per_sample_loop(make):
    f = make()
    for count in (1, 40, 300):
        got = validate_conditions(f, sample_count=count).check("e").max_violation
        assert repr(got) == repr(condition_e_by_samples(f, count))


def test_condition_e_keeps_a_nan_next_to_a_singular_sample():
    # the per-sample loop let a singular sample overwrite a NaN read before it; a NaN anywhere is kept
    f = nan_where(singular_where(spec_222(), 0.3), "A_s", 0.3)
    assert condition_e_by_samples(f, 40) == math.inf
    assert math.isnan(validate_conditions(f, sample_count=40).check("e").max_violation)
    assert validate_conditions(singular_where(spec_222(), 0.3), sample_count=40).check("e").max_violation == math.inf


def counting_rows(fn, seen):
    """A stacked callable that reads ``fn``'s stacked form and adds the rows of each read to ``seen``."""
    return _Stacked(lambda *args: seen.append(len(args[0])) or fn.rows(*args))


def counting_calls(fn, calls):
    """A plain function that counts its calls in ``calls`` and calls ``fn``, as a tracer's counter does."""
    return lambda *args: calls.append(1) or fn(*args)


def row_by_row(graph):
    """A stacked form of the plain graph ``graph`` that calls it once per row."""
    return _Stacked(lambda Z, X: np.array([graph(z, x) for z, x in zip(Z, X)]))


def square_pair():
    return GraphPair(G_s=lambda s, x: np.atleast_1d(s[0] ** 2), G_u=lambda u, x: np.atleast_1d(u[0] ** 2))


def ac8(gp):
    return conjugate_map(unstraighten_map(make_linear(0.5, 2.0, rho=0.3), gp), gp, radius=0.15)


def solve(f, Z, F):
    """What a counting wrapper must leave as it is: a step, validation and the bound grid."""
    return (*_step(f, Z, F, True, False), validate_conditions(f, 40, tol=1e-8).to_dict(),
            repr(estimate_bounds(f, grid_density=2).to_dict()))


def same(a, b):
    return all(np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


def test_plain_counting_callables_are_read_once_per_row_with_the_same_bits():
    rng = np.random.default_rng(47)
    Z = np.column_stack([rng.uniform(-0.12, 0.12, (20, 2)), rng.uniform(0.0, 2.0 * np.pi, 20)])
    F = np.tile([[0.1, 1.0, 0.0], [0.0, 1.0, 0.2]], (len(Z), 1, 1))
    # a built-in's remainder behind a plain counter, as a tracer counts it, against its stacked form
    # counting the rows it reads: one call per row of every read
    f, calls, seen = make_poly(0.05, rho=0.3), [], []
    got = solve(dataclasses.replace(f, r_map=counting_calls(f.r_map, calls)), Z, F)
    assert same(got, solve(dataclasses.replace(f, r_map=counting_rows(f.r_map, seen)), Z, F)) and same(got, solve(f, Z, F))
    assert len(calls) == sum(seen) == len(Z) + 3 * 40  # the step's images and validation's three rows per sample
    # the graphs of the AC8 round trip behind plain counters
    gp, calls, seen = square_pair(), [], []
    plain = ac8(dataclasses.replace(gp, G_s=counting_calls(gp.G_s, calls), G_u=counting_calls(gp.G_u, calls)))
    stacked = ac8(GraphPair(G_s=counting_rows(row_by_row(gp.G_s), seen), G_u=counting_rows(row_by_row(gp.G_u), seen)))
    assert len(calls) == sum(seen) > 0  # the radius bisection of the inner map
    calls.clear()
    seen.clear()
    got = solve(plain, Z, F)
    assert same(got, solve(stacked, Z, F)) and same(got, solve(ac8(gp), Z, F))
    assert len(calls) == sum(seen) > 0


def test_wrapping_is_idempotent():
    f, calls = make_poly(0.05), []
    counted_f = dataclasses.replace(f, r_map=counting_calls(f.r_map, calls))
    again = dataclasses.replace(counted_f)
    assert all(getattr(again, name) is getattr(counted_f, name) for name in CALLABLES)
    assert dataclasses.replace(f, A_s=f.A_s).A_s is f.A_s  # a stacked form is taken as it is
    Z, F = step_rows(f, restricted=False)
    _step(counted_f, Z, F, True, False)
    once = len(calls)
    _step(again, Z, F, True, False)
    assert once == len(Z) and len(calls) == 2 * once
    gp = square_pair()
    assert dataclasses.replace(gp).G_s is gp.G_s and GraphPair(gp.G_s, gp.G_u).G_u is gp.G_u
    disk = DiskSpec(sigma=lambda u, x: np.atleast_1d(0.1), u_box=((-0.01, 0.01),), x_box=((0.0, 1.0),),
                    mesh_per_axis=3)
    assert dataclasses.replace(disk, mesh_per_axis=4).sigma is disk.sigma and disk.dsigma is None


def counting_disk(u_half, mesh, seen, sigma, dsigma):
    def record(fn, name):
        def call(u, x):
            seen.append((name, tuple(u), tuple(x)))
            return fn(u, x)
        return call

    return DiskSpec(sigma=record(sigma, "sigma"), u_box=((-u_half, u_half),), x_box=((0.0, 2.0 * np.pi),),
                    mesh_per_axis=mesh, dsigma=dsigma and record(dsigma, "dsigma"))


def test_seed_mesh_reads_sigma_once_per_node_in_row_order():
    f, seen = make_poly(0.05), []
    disk = counting_disk(2e-3, 4, seen, lambda u, x: np.atleast_1d(0.2 + u[0]),
                         lambda u, x: (np.ones((1, 1)), np.zeros((1, 1))))
    mesh = seed_mesh(disk, f)
    assert seen == [("sigma", *tag) for tag in mesh.tags] + [("dsigma", *tag) for tag in mesh.tags]
    # without dsigma the partials are central differences in (u, x): each node's value, then its probes
    seen.clear()
    mesh_fd = seed_mesh(counting_disk(2e-3, 4, seen, lambda u, x: np.atleast_1d(0.2 + u[0]), None), f)
    assert [call[1:] for call in seen[: len(mesh_fd.tags)]] == list(mesh_fd.tags)
    assert len(seen) == 5 * len(mesh_fd.tags)
    assert np.array_equal(mesh_fd.points, mesh.points)


def test_seed_mesh_raises_what_the_first_failing_node_raises():
    # node 0 (u at its lower end, x = 0) has non-finite partials; the nodes at x > 3 leave the ball,
    # which a stack of all nodes finds first, but a loop over the nodes meets node 0 first
    f = make_poly(0.05)
    disk = DiskSpec(sigma=lambda u, x: np.atleast_1d(0.9 if x[0] > 3.0 else 0.2), u_box=((-2e-3, 2e-3),),
                    x_box=((0.0, 2.0 * np.pi),), mesh_per_axis=4,
                    dsigma=lambda u, x: (np.full((1, 1), math.nan if x[0] == 0.0 else 0.0), np.zeros((1, 1))))
    with pytest.raises(ContractError) as info:
        seed_mesh(disk, f)
    assert not isinstance(info.value, normalform.OutOfNeighborhoodError)
    assert str(info.value) == f"sigma partials are not finite at u={np.array([-2e-3])}, x={np.array([0.0])}"
    with pytest.raises(normalform.OutOfNeighborhoodError):
        seed_mesh(dataclasses.replace(disk, dsigma=lambda u, x: (np.zeros((1, 1)), np.zeros((1, 1)))), f)


def test_a_dsigma_that_returns_a_list_is_read_as_its_pair():
    # the pair may be any two items, as unpacking it took them; the widths differ on the annulus
    f = make_twist_annulus(0.05, 0.0, 1.0)

    def dsigma(u, x):
        return (np.full((1, 1), 0.5), np.array([[0.25 * np.cos(x[0]), 0.1]]))

    disk = DiskSpec(sigma=lambda u, x: np.atleast_1d(0.1 + 0.5 * u[0]), u_box=((-2e-3, 2e-3),),
                    x_box=((0.0, 2.0 * np.pi), (0.2, 0.8)), mesh_per_axis=3, dsigma=dsigma)
    mesh = seed_mesh(disk, f)
    listed = seed_mesh(dataclasses.replace(disk, dsigma=lambda u, x: list(dsigma(u, x))), f)
    assert np.array_equal(listed.points, mesh.points) and np.array_equal(listed.frames, mesh.frames)
    assert np.array_equal(mesh.frames[:, 0], np.tile([0.5, 1.0, 0.0, 0.0], (len(mesh.tags), 1)))  # d sigma/d u read


def test_a_fresh_straightened_map_reads_no_rows_at_their_widths():
    # with the radius given, no graph has been read before these stacks of no rows
    for conjugated in (False, True):
        gp = square_pair()
        f = unstraighten_map(make_linear(0.5, 2.0, rho=0.3), gp, radius=0.15)
        f = conjugate_map(f, gp, radius=0.15) if conjugated else f
        assert _jacobians(f, np.empty((0, 3)), FD_STEP_FIRST).shape == (0, 3, 3)
        images, _ = normalform._images(f, np.empty((0, 3)))
        assert images.shape == (0, 3)
