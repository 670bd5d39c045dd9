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

from nhimlab import (
    ChartTopology,
    ContractError,
    Dimensions,
    GraphPair,
    MapSpec,
    conjugate_map,
    estimate_bounds,
    jacobian,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    validate_conditions,
)
from nhimlab import _fd, normalform
from nhimlab.geometry import _max_keep_nan, _wrap_angles, mat_row_sup_norm, tensor_row_sup_norm
from nhimlab.normalform import (
    FD_STEP_FIRST,
    FD_STEP_SECOND,
    BoundSet,
    _a_tensor,
    _bound_grid,
    _g_jacobian,
    _g_second_tensor,
    _image,
    _jacobians,
    _r_jacobian,
    _second_tensor,
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
    return dataclasses.replace(f, **{name: _Stacked(getattr(f, name), rows) for name, rows in stacked.items()})


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


@pytest.mark.parametrize("name", BUILT_IN + ("spec_222",))
def test_each_stacked_form_is_its_one_point_callable_row_by_row(name):
    f = STEP_MAPS[name]()
    S, U, X = np.split(step_rows(f, restricted=False)[0], [f.dims.n_s, f.dims.n_s + f.dims.n_u], axis=1)
    stacked = [attr for attr in CALLABLES if isinstance(getattr(f, attr), _Stacked)]
    if name in BUILT_IN:  # every callable a mesh step reads, and d2_r for the bound grid; not d2_g
        assert stacked == ["A_s", "A_u", "g_map", "r_map", "d_r", "d2_r", "d_A_s", "d_A_u", "d_g"]
    for attr in stacked:
        fn = getattr(f, attr)
        args = (S, U, X) if attr in ("r_map", "d_r", "d2_r") else (X,)
        rows = fn.rows(*args)
        for i, row in enumerate(zip(*args)):
            if attr == "r_map":
                for block, part in zip(rows, fn(*row)):
                    assert np.array_equal(block[i], np.reshape(part, -1))
            else:
                assert np.array_equal(rows[i], fn(*row))


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("make", STEP_MAPS.values(), ids=STEP_MAPS.keys())
def test_stacked_step_is_the_per_row_step_bit_for_bit(make, restricted):
    f = make()
    Z, F = step_rows(f, restricted)
    got = _step(f, Z, F, require_unstable=True, restricted=restricted)
    plain = _step(as_plain(f), Z, F, require_unstable=True, restricted=restricted)
    for stacked, by_rows in zip(got, plain):  # images, frames, stretches, escapes, image norms
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
    """f with each stacked callable counting its one-point calls under its name and its stacked
    calls under ``name.rows`` in ``calls``."""

    def wrap(name, fn):
        def one(*args):
            calls[name] += 1
            return fn.one(*args)

        def rows(*args):
            calls[name + ".rows"] += 1
            return fn.rows(*args)

        return _Stacked(one, rows)

    return dataclasses.replace(
        f, **{name: wrap(name, fn) for name in CALLABLES if isinstance(fn := getattr(f, name), _Stacked)}
    )


@pytest.mark.parametrize("rows", [1, 7, 60])
def test_a_poly_mesh_step_calls_each_stacked_form_once_whatever_its_rows(rows):
    calls = collections.Counter()
    f = counted(make_poly(0.05), calls)
    Z, F = step_rows(f, restricted=False)
    _step(f, Z[:rows], F[:rows], require_unstable=True, restricted=False)
    # A_s and A_u once for the images and once for the Jacobians of the rows still in the ball;
    # d2_r and d2_g are not read by a step and have no stacked form
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
    # the 48 grid rows: d_r and d2_r once per stack, d_A_s once at each of the 3 values of x
    assert calls == {"d_r.rows": stacks, "d2_r.rows": stacks, "d_A_s": 3}


def test_poly_validation_reads_two_stacks_of_samples():
    calls = collections.Counter()
    f = counted(make_poly(0.05), calls)
    report = validate_conditions(f, sample_count=40).to_dict()
    assert report == validate_conditions(as_plain(make_poly(0.05)), sample_count=40).to_dict()
    # the zero section and both slices of the first 32 samples, then of the other 8; the slice rows of
    # the first stack give the derivative checks; condition e) stays per sample
    assert calls == {"r_map.rows": 2, "d_r.rows": 1, "A_s": 40, "A_u": 40}


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
                assert np.array_equal(d1, _fd._fd_first(func, z, h))
                assert np.array_equal(d2, fd_second_by_point(func, z, h))
                assert np.array_equal(d2, _fd._fd_second(func, z, h))
