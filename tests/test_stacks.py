"""The stacked Jacobian assembly and bound grid against the per-row loops they replace.

Each oracle below is the per-row code as it ran before the stacks, kept here
so that every output can be compared bit for bit (``np.array_equal`` and
float ``repr``, never approx).
"""

import dataclasses
import math

import numpy as np
import pytest

from nhimlab import (
    ChartTopology,
    ContractError,
    Dimensions,
    GraphPair,
    MapSpec,
    conjugate_map,
    estimate_bounds,
    jacobian,
    make_linear,
    make_poly,
    make_twist_annulus,
)
from nhimlab import normalform
from nhimlab.geometry import _max_keep_nan, mat_row_sup_norm, tensor_row_sup_norm
from nhimlab.normalform import (
    FD_STEP_FIRST,
    FD_STEP_SECOND,
    BoundSet,
    _a_tensor,
    _bound_grid,
    _g_jacobian,
    _g_second_tensor,
    _jacobians,
    _r_jacobian,
    _second_tensor,
)

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
    for bad in (math.nan, 0.0, -0.0, -1.0, -math.inf):
        with pytest.raises(ContractError):
            dataclasses.replace(f, rho=bad)
    for good in (5e-324, 1e-300, 0.3, 1e300, math.inf):
        assert dataclasses.replace(f, rho=good).rho == good
    assert conjugate_map(f, GraphPair.zero(1, 1), radius=0.25).rho == 0.25
