import dataclasses
import math

import numpy as np
import pytest

import _refvals as rv
from _fd_oracles import _fd_first, _fd_second, _in_ball, _r_flat, _r_jacobian
from nhimlab import (
    ChartPoint,
    ChartTopology,
    ContractError,
    Dimensions,
    DivergenceError,
    estimate_bounds,
    find_K,
    GraphPair,
    MapSpec,
    OutOfNeighborhoodError,
    apply_map,
    conjugate_map,
    conjugated_radius,
    make_default_disk,
    make_linear,
    make_poly,
    straighten_inverse,
    straighten_point,
    tangency_violation,
    unstraighten_map,
    validate_conditions,
    verify_bound_domination,
)
from nhimlab import straighten
from nhimlab.geometry import tensor_row_sup_norm
from nhimlab.normalform import FD_STEP_FIRST, FD_STEP_SECOND, _bound_grid
from nhimlab.straighten import _signed_x_diff
from nhimlab.tangentflow import _step

TWO_PI = 2.0 * np.pi


def square_pair():
    return GraphPair(
        G_s=lambda s, x: np.atleast_1d(s[0] ** 2),
        G_u=lambda u, x: np.atleast_1d(u[0] ** 2),
    )


def test_straighten_point_square_graphs():
    f = make_linear(0.5, 2.0)
    q = straighten_point(square_pair(), f.point([0.1], [0.2], [0.7]))
    assert np.isclose(q.s[0], 0.06, atol=1e-15)
    assert np.isclose(q.u[0], 0.19, atol=1e-15)
    assert q.x[0] == 0.7


def test_straighten_zero_graphs_is_identity():
    f = make_linear(0.5, 2.0)
    gp = GraphPair.zero(1, 1)
    p = f.point([0.13], [-0.21], [2.2])
    q = straighten_point(gp, p)
    assert q.s[0] == p.s[0] and q.u[0] == p.u[0] and q.x[0] == p.x[0]
    r = straighten_inverse(gp, p)
    assert r.s[0] == p.s[0] and r.u[0] == p.u[0]


def test_straighten_fixes_origin():
    f = make_linear(0.5, 2.0)
    p = f.point([0.0], [0.0], [1.0])
    q = straighten_point(square_pair(), p)
    assert q.s[0] == 0.0 and q.u[0] == 0.0


def test_straighten_inverse_round_trip():
    f = make_linear(0.5, 2.0)
    gp = square_pair()
    p = f.point([0.1], [0.2], [0.7])
    q = straighten_point(gp, p)
    back = straighten_inverse(gp, q, tol=1e-12)
    assert abs(back.s[0] - 0.1) <= 1e-10
    assert abs(back.u[0] - 0.2) <= 1e-10


def test_straighten_inverse_oracle_fixed_point():
    f = make_linear(0.5, 2.0)
    q = f.point([0.05], [0.15], [0.0])
    p = straighten_inverse(square_pair(), q, tol=1e-13)
    assert abs(p.s[0] - rv.SQUARE_GRAPH_INV_005_015[0]) <= 1e-11
    assert abs(p.u[0] - rv.SQUARE_GRAPH_INV_005_015[1]) <= 1e-11


def test_straighten_inverse_reuses_graph_values():
    # each sweep evaluates each graph once: 2 initial calls + 2 per sweep, 17 sweeps
    calls = []

    def square(v, x):
        calls.append(1)
        return np.atleast_1d(v[0] ** 2)

    f = make_linear(0.5, 2.0)
    p = straighten_inverse(GraphPair(G_s=square, G_u=square), f.point([0.05], [0.15], [0.0]), tol=1e-13)
    assert abs(p.s[0] - rv.SQUARE_GRAPH_INV_005_015[0]) <= 1e-11
    assert abs(p.u[0] - rv.SQUARE_GRAPH_INV_005_015[1]) <= 1e-11
    assert len(calls) == 36


def test_straighten_inverse_rejects_nonpositive_tol():
    f = make_linear(0.5, 2.0)
    for tol in (0.0, -1e-12):
        with pytest.raises(ContractError):
            straighten_inverse(square_pair(), f.point([0.05], [0.15], [0.0]), tol=tol)


def test_straighten_inverse_rejects_a_tol_that_is_not_finite():
    # an infinite tol passed as positive and returned an unsolved point after one sweep
    f = make_linear(0.5, 2.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ContractError, match="tol"):
            straighten_inverse(square_pair(), f.point([0.05], [0.15], [0.0]), tol=tol)


def test_straighten_round_trip_sampled():
    f = make_linear(0.5, 2.0)
    gp = square_pair()
    rng = np.random.default_rng(5)
    for _ in range(40):
        s, u = rng.uniform(-0.3, 0.3, size=2)
        p = f.point([s], [u], [rng.uniform(0, 2 * np.pi)])
        q = straighten_point(gp, p)
        back = straighten_inverse(gp, q)
        assert abs(back.s[0] - p.s[0]) <= 1e-10
        assert abs(back.u[0] - p.u[0]) <= 1e-10


def test_straighten_derivative_is_identity_on_manifold():
    # central differences of the coordinate change at s = u = 0
    gp = square_pair()
    f = make_linear(0.5, 2.0)
    h = 1e-6
    jac = np.zeros((2, 2))
    for j, (ds, du) in enumerate(((h, 0.0), (0.0, h))):
        qp = straighten_point(gp, f.point([ds], [du], [1.0]))
        qm = straighten_point(gp, f.point([-ds], [-du], [1.0]))
        jac[0, j] = (qp.s[0] - qm.s[0]) / (2 * h)
        jac[1, j] = (qp.u[0] - qm.u[0]) / (2 * h)
    assert np.allclose(jac, np.eye(2), atol=1e-9)


def test_straighten_inverse_divergence():
    # slope 3 graphs make the fixed-point iteration expand instead of contract
    gp = GraphPair(
        G_s=lambda s, x: np.atleast_1d(3.0 * s[0]),
        G_u=lambda u, x: np.atleast_1d(3.0 * u[0]),
    )
    f = make_linear(0.5, 2.0)
    with pytest.raises(DivergenceError):
        straighten_inverse(gp, f.point([0.3], [0.3], [0.0]), max_iter=50)


def test_tangency_violation_zero_for_flat_tangent_graphs():
    f = make_linear(0.5, 2.0)
    assert tangency_violation(square_pair(), f) <= 1e-9
    bad = GraphPair(
        G_s=lambda s, x: np.atleast_1d(0.1 + s[0] ** 2),
        G_u=lambda u, x: np.atleast_1d(u[0] ** 2),
    )
    assert tangency_violation(bad, f) >= 0.1


def test_conjugate_with_zero_graphs_is_pointwise_identity():
    f = make_linear(0.5, 2.0, omega=0.3)
    g = conjugate_map(f, GraphPair.zero(1, 1))
    rng = np.random.default_rng(2)
    for _ in range(25):
        s, u = rng.uniform(-0.2, 0.2, size=2)
        p = f.point([s], [u], [rng.uniform(0, 2 * np.pi)])
        a = apply_map(f, p)
        b = apply_map(g, p)
        assert abs(a.s[0] - b.s[0]) <= 1e-14
        assert abs(a.u[0] - b.u[0]) <= 1e-14
        assert abs(a.x[0] - b.x[0]) <= 1e-14


def test_unstraighten_bends_stable_set_onto_graph():
    f = make_linear(0.5, 2.0, rho=0.3)
    gp = square_pair()
    g = unstraighten_map(f, gp)
    # points on {u = G_s(s)} stay on it under the bent map
    for s in (0.05, -0.1, 0.15):
        p = g.point([s], [s ** 2], [1.0])
        w = apply_map(g, p)
        assert abs(w.u[0] - w.s[0] ** 2) <= 1e-11


def test_round_trip_conjugation_restores_invariance():
    f = make_linear(0.5, 2.0, rho=0.3)
    gp = square_pair()
    bent = unstraighten_map(f, gp)
    straight = conjugate_map(bent, gp)
    report = validate_conditions(straight, sample_count=256, tol=1e-8)
    assert report.check("b").max_violation <= 1e-8
    assert report.check("c").max_violation <= 1e-8
    # manifold invariance survives the round trip
    w = apply_map(straight, straight.point([0.0], [0.0], [1.2]))
    assert abs(w.s[0]) <= 1e-12 and abs(w.u[0]) <= 1e-12


def test_conjugated_radius_shrinks_but_stays_positive():
    f = make_linear(0.5, 2.0, rho=0.3)
    gp = square_pair()
    r = conjugated_radius(f, gp)
    assert 0.0 < r <= f.rho
    bent = unstraighten_map(f, gp)
    assert 0.0 < bent.rho <= f.rho


def test_conjugated_remainder_respects_angle_seam():
    f = make_linear(0.5, 2.0, omega=0.3, rho=0.3)
    gp = square_pair()
    straight = conjugate_map(unstraighten_map(f, gp), gp)
    p = straight.point([0.02], [0.01], [2 * np.pi - 1e-3])
    w = apply_map(straight, p)
    # base advance stays the rigid rotation: no spurious full-period jump
    diff = (w.x[0] - (p.x[0] + 0.3)) % (2 * np.pi)
    assert min(diff, 2 * np.pi - diff) <= 1e-9


@pytest.mark.parametrize("nan_graph", ["G_s", "G_u"])
def test_straighten_inverse_nan_in_either_block_never_converges(nan_graph):
    # with G_s NaN and G_u zero the s residual is exactly 0 and the u residual NaN
    nan = lambda v, x: np.array([np.nan])
    zero = lambda v, x: np.zeros(1)
    gp = GraphPair(G_s=nan, G_u=zero) if nan_graph == "G_s" else GraphPair(G_s=zero, G_u=nan)
    f = make_linear(0.5, 2.0)
    with pytest.raises(DivergenceError):
        straighten_inverse(gp, f.point([0.05], [0.15], [0.0]), max_iter=20)


def loop_signed_x_diff(topo, a, b):
    # the per-coordinate wrap the vectorised one must reproduce bit for bit
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for i in range(d.shape[0]):
        if topo.is_angle[i]:
            d[i] = -((-d[i] + np.pi) % TWO_PI - np.pi)
    return d


def test_signed_x_diff_matches_per_coordinate_wrap():
    topo = ChartTopology.of(("angle", "linear"))
    near_pi = [np.nextafter(v, t) for v in (np.pi, -np.pi) for t in (-np.inf, np.inf)] + [np.pi, -np.pi]
    diffs = near_pi + [v + e for v in (np.pi, -np.pi, 3 * np.pi) for e in (-1e-9, 1e-9)] + [0.0, -0.0, 7.5]
    rng = np.random.default_rng(11)
    diffs += list(rng.uniform(-20.0, 20.0, size=200))
    for b in ([1.3, -0.4], [TWO_PI - 1e-12, 5.0]):
        for d in diffs:
            a = np.array(b) + d
            got = _signed_x_diff(topo, a, b)
            want = loop_signed_x_diff(topo, a, b)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            assert -np.pi < got[0] <= np.pi
            assert got[1] == a[1] - b[1]


def public_remainder(f, gp, forward):
    """The conjugated remainder composed from the public wrappers."""

    def r_map(s, u, x):
        z = ChartPoint(s=np.atleast_1d(s), u=np.atleast_1d(u), x=np.atleast_1d(x), topology=f.topo)
        if forward:
            w = straighten_point(gp, apply_map(f, straighten_inverse(gp, z, tol=1e-13, max_iter=200)))
        else:
            w = straighten_inverse(gp, apply_map(f, straighten_point(gp, z)), tol=1e-13, max_iter=200)
        return (w.s - f.A_s(z.x) @ z.s, w.u - f.A_u(z.x) @ z.u, loop_signed_x_diff(f.topo, w.x, f.g_map(z.x)))

    return r_map


def two_one_map():
    # n_s = 2, n_u = 1, an x-dependent stable block and a remainder in every block
    return MapSpec(
        dims=Dimensions(2, 1, 1),
        topo=ChartTopology.angles(1),
        rho=0.2,
        lam=0.5,
        A_s=lambda x: np.array([[0.4, 0.05 * np.cos(x[0])], [0.0, 0.45]]),
        A_u=lambda x: np.array([[2.5]]),
        g_map=lambda x: x + 0.7,
        r_map=lambda s, u, x: (0.05 * s * u[0], np.array([0.05 * s[0] * u[0]]), np.array([0.02 * s[1] * u[0]])),
    )


def two_one_pair():
    return GraphPair(
        G_s=lambda s, x: np.array([s[0] * s[1] + s[1] ** 2 * np.sin(x[0])]),
        G_u=lambda u, x: np.array([u[0] ** 2, 0.5 * u[0] ** 2 * np.cos(x[0])]),
    )


def conjugated_cases():
    sq = square_pair()
    poly = make_poly(0.05, rho=0.3)
    base = make_linear(0.5, 2.0, omega=0.3, rho=0.3)
    bent = unstraighten_map(base, sq)
    ref_bent = dataclasses.replace(bent, r_map=public_remainder(base, sq, forward=False))
    yield "poly forward", conjugate_map(poly, sq, radius=0.2), public_remainder(poly, sq, True)
    yield "poly backward", unstraighten_map(poly, sq, radius=0.2), public_remainder(poly, sq, False)
    yield "AC8 round trip", conjugate_map(bent, sq), public_remainder(ref_bent, sq, True)
    two_one, pair = two_one_map(), two_one_pair()
    yield "n_s=2 forward", conjugate_map(two_one, pair, radius=0.1), public_remainder(two_one, pair, True)
    yield "n_s=2 backward", unstraighten_map(two_one, pair, radius=0.1), public_remainder(two_one, pair, False)


def test_conjugated_remainder_is_the_public_composition_bit_for_bit():
    rng = np.random.default_rng(7)
    for label, g, reference in conjugated_cases():
        n_s, n_u = g.dims.n_s, g.dims.n_u
        r = 0.5 * g.rho
        xs = [-1e-7, TWO_PI - 1e-12, 0.0, 7.0] + list(rng.uniform(0.0, TWO_PI, size=12))
        for x in xs:
            s, u = rng.uniform(-r, r, size=n_s), rng.uniform(-r, r, size=n_u)
            got = g.r_map(s, u, np.array([x]))
            want = reference(s, u, np.array([x]))
            for block_got, block_want in zip(got, want):
                assert np.array_equal(block_got, block_want), (label, s, u, x)


def test_conjugated_remainder_keeps_its_errors():
    f = make_linear(0.5, 2.0, rho=0.3)
    sq = square_pair()
    # the inverse image of (0.24, 0.24) is about (0.4, 0.4), outside B_0.3
    g = conjugate_map(f, sq, radius=0.3)
    with pytest.raises(OutOfNeighborhoodError) as got:
        g.r_map(np.array([0.24]), np.array([0.24]), np.array([1.0]))
    with pytest.raises(OutOfNeighborhoodError) as want:
        public_remainder(f, sq, True)(np.array([0.24]), np.array([0.24]), np.array([1.0]))
    assert (got.value.norm, got.value.rho) == (want.value.norm, want.value.rho)
    with pytest.raises(OutOfNeighborhoodError):
        apply_map(g, g.point([0.24], [0.24], [1.0]))
    slope3 = GraphPair(
        G_s=lambda s, x: np.atleast_1d(3.0 * s[0]),
        G_u=lambda u, x: np.atleast_1d(3.0 * u[0]),
    )
    for g in (conjugate_map(f, slope3, radius=0.3), unstraighten_map(f, slope3, radius=0.3)):
        with pytest.raises(DivergenceError):
            g.r_map(np.array([0.01]), np.array([0.01]), np.array([1.0]))


def test_conjugated_radius_is_pinned():
    # float.hex values of the radii found by the bisection on ChartPoint corners
    f = make_linear(0.5, 2.0, rho=0.3)
    sq = square_pair()
    assert conjugated_radius(f, sq) == float.fromhex("0x1.ae147ad99999ep-3")
    assert conjugated_radius(unstraighten_map(f, sq), sq) == float.fromhex("0x1.53c3610d73eadp-3")
    double = GraphPair(
        G_s=lambda s, x: np.atleast_1d(2.0 * s[0] ** 2),
        G_u=lambda u, x: np.atleast_1d(2.0 * u[0] ** 2),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # corners beyond the radius diverge to inf
        r = conjugated_radius(make_linear(0.5, 2.0, rho=0.5), double)
    assert r == float.fromhex("0x1.fa839aa000000p-4")


@pytest.mark.parametrize("which", ["G_s", "G_u"])
def test_tangency_violation_keeps_nan(which):
    graphs = {"G_s": lambda s, x: np.atleast_1d(s[0] ** 2), "G_u": lambda u, x: np.atleast_1d(u[0] ** 2)}
    graphs[which] = lambda v, x: np.array([np.nan])
    assert np.isnan(tangency_violation(GraphPair(**graphs), make_linear(0.5, 2.0)))


def wavy_pair():
    # a stable graph that moves with the base point
    return GraphPair(
        G_s=lambda s, x: np.atleast_1d(s[0] ** 2 * (1.0 + 0.1 * np.cos(x[0]))),
        G_u=lambda u, x: np.atleast_1d(u[0] ** 2),
    )


def differentiated_cases():
    for name, base in (("poly", make_poly(0.05, rho=0.3)), ("linear", make_linear(0.5, 2.0, rho=0.3))):
        for pair_name, pair in (("square", square_pair()), ("wavy", wavy_pair())):
            yield f"{name} {pair_name} forward", conjugate_map(base, pair, radius=0.15)
            yield f"{name} {pair_name} backward", unstraighten_map(base, pair, radius=0.15)
            yield f"{name} {pair_name} round trip", conjugate_map(unstraighten_map(base, pair), pair)
    yield "n_s=2 forward", conjugate_map(two_one_map(), two_one_pair(), radius=0.1)
    yield "n_s=2 backward", unstraighten_map(two_one_map(), two_one_pair(), radius=0.1)


def sample_points(g, rng, count):
    r = 0.8 * g.rho
    for _ in range(count):
        yield rng.uniform(-r, r, size=g.dims.n_s), rng.uniform(-r, r, size=g.dims.n_u), rng.uniform(0.0, TWO_PI, size=1)


def test_conjugated_d_r_is_the_derivative_of_r_map():
    rng = np.random.default_rng(13)
    for label, g in differentiated_cases():
        for s, u, x in sample_points(g, rng, 8):
            got = g.d_r(s, u, x)
            want = _fd_first(_r_flat(g), g.dims.join(s, u, x), FD_STEP_FIRST)
            assert got.shape == (g.dims.n, g.dims.n)
            assert np.abs(got - want).max() <= 1e-8, (label, s, u, x)


def test_conjugated_d2_r_is_symmetric_and_the_second_derivative_of_r_map():
    rng = np.random.default_rng(17)
    for label, g in differentiated_cases():
        for s, u, x in sample_points(g, rng, 2):
            got = g.d2_r(s, u, x)
            assert np.array_equal(got, got.transpose(0, 2, 1)), label
            # central second differences across the 1e-13 inverse carry ~1e-5 of noise
            want = _fd_second(_r_flat(g), g.dims.join(s, u, x), FD_STEP_SECOND)
            assert np.abs(got - want).max() <= 1e-4, (label, s, u, x)


def test_conjugated_d2_r_reaches_the_edge_of_the_ball():
    # the bound grid runs to the edge once both derivatives exist: one-sided there.  With zero
    # graphs and the base's radius, a probe past the edge would leave the base's ball and raise.
    poly = make_poly(0.05, rho=0.3)
    g = unstraighten_map(poly, GraphPair.zero(1, 1), radius=poly.rho)
    edge = g.rho * (1.0 - 1e-9)
    for s, u in ((edge, edge), (-edge, 0.0), (0.0, -edge)):
        z = (np.array([s]), np.array([u]), np.array([1.0]))
        assert np.abs(g.d2_r(*z) - poly.d2_r(*z)).max() <= 1e-8
    assert estimate_bounds(g, grid_density=2).C == pytest.approx(poly.d2_r(*z).max(), rel=1e-8)
    g = conjugate_map(poly, square_pair(), radius=0.15)
    edge = g.rho * (1.0 - 1e-9)
    inner = g.rho * (1.0 - 1e-4)  # far enough inside for central differences
    for s, u in ((1, 1), (-1, 0), (0, 1)):
        got = g.d2_r(np.array([s * edge]), np.array([u * edge]), np.array([1.0]))
        want = g.d2_r(np.array([s * inner]), np.array([u * inner]), np.array([1.0]))
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-3 * np.abs(want).max()
    b = estimate_bounds(g, grid_density=2)
    assert np.isfinite(b.k) and np.isfinite(b.C)


def test_conjugating_by_zero_graphs_keeps_the_base_derivatives():
    rng = np.random.default_rng(19)
    poly = make_poly(0.05, rho=0.3)
    for wrap in (conjugate_map, unstraighten_map):
        g = wrap(poly, GraphPair.zero(1, 1), radius=0.3)
        for s, u, x in sample_points(g, rng, 8):
            assert np.abs(g.d_r(s, u, x) - poly.d_r(s, u, x)).max() <= 1e-15
            assert np.abs(g.d2_r(s, u, x) - poly.d2_r(s, u, x)).max() <= 1e-8
        two_one = two_one_map()  # no analytic d_r: the base Jacobian is its own finite difference
        g = wrap(two_one, GraphPair.zero(2, 1), radius=0.1)
        for s, u, x in sample_points(g, rng, 8):
            assert np.abs(g.d_r(s, u, x) - _r_jacobian(two_one, s, u, x, FD_STEP_FIRST)).max() <= 1e-15


def test_ac8_straightened_map_meets_its_exact_budget():
    # the round trip of a linear map has remainder zero, and its derivatives now read zero too
    gp = square_pair()
    f = conjugate_map(unstraighten_map(make_linear(0.5, 2.0, rho=0.3), gp), gp)
    report = validate_conditions(f, sample_count=128, tol=1e-8)
    assert report.check("derivatives_bc").max_violation <= 1e-12
    bounds = estimate_bounds(f, grid_density=2)
    assert bounds.k <= 1e-12
    disk = make_default_disk(f, bounds, n_target=6, mesh_per_axis=3)
    assert find_K(disk, f, eps=1e-2, n_max=12).found
    domination = verify_bound_domination(disk, f, bounds, n_max=12)
    assert domination.slice_rows and domination.persistence_rows
    assert domination.ok()


def d2_r_by_differences(g, s, u, x):
    """The conjugated d2_r as it was taken before the chain rule: central differences of d_r,
    one-sided at the ball's edge, symmetrized."""
    n = g.dims.n
    t = _fd_first(lambda z: g.d_r(*g.dims.split(z)).reshape(-1), g.dims.join(s, u, x), FD_STEP_FIRST,
                  inside=_in_ball(g)).reshape(n, n, n)
    return 0.5 * (t + t.transpose(0, 2, 1))


def test_conjugated_d2_r_matches_the_central_difference_of_d_r():
    # the differences carry up to ~4e-6 of noise on entries of size ~10, hence the relative 1e-6
    rng = np.random.default_rng(23)
    for label, g in differentiated_cases():
        for s, u, x in sample_points(g, rng, 3):
            got = g.d2_r(s, u, x)
            want = d2_r_by_differences(g, s, u, x)
            assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max()), (label, s, u, x)


def ac8_map():
    gp = square_pair()
    return conjugate_map(unstraighten_map(make_linear(0.5, 2.0, rho=0.3), gp), gp)


def test_ac8_d2_r_reads_no_larger_than_the_difference_of_d_r():
    # the round trip's remainder is zero, so every entry of either tensor is error
    g = ac8_map()
    for row in _bound_grid(g, 2, 0.0):  # the grid estimate_bounds samples once both derivatives exist
        s, u, x = g.dims.split(row)
        got, old = g.d2_r(s, u, x), d2_r_by_differences(g, s, u, x)
        assert np.abs(got).max() <= np.abs(old).max(), row
        assert tensor_row_sup_norm(got) <= tensor_row_sup_norm(old), row
    assert estimate_bounds(g, grid_density=2).C <= 1e-13


def counted_inverse(monkeypatch):
    """A list that gains, per call of straighten._inverse, the number of rows the call solves: its
    sum counts rows solved, its length calls.  Maps built after this count."""
    calls = []
    inverse = straighten._inverse

    def counted(gp, q_s, *args, **kwargs):
        calls.append(len(q_s))
        return inverse(gp, q_s, *args, **kwargs)

    monkeypatch.setattr(straighten, "_inverse", counted)
    return calls


def test_one_point_of_the_ac8_map_solves_each_inverse_once(monkeypatch):
    # the outer Phi^-1 and the inner map's Phi^-1 of its image: one call each, whichever
    # derivative is asked for, and the inner Jacobian reuses the inner inverse
    calls = counted_inverse(monkeypatch)
    g = ac8_map()
    z = (np.array([0.05]), np.array([-0.03]), np.array([1.0]))
    for read in (g.r_map, g.d_r, g.d2_r):
        calls.clear()
        read(*z)
        assert sum(calls) == 2, read
    Z = np.array([[0.05, -0.03, 1.0], [0.0, 0.08, 6.0], [-0.1, 0.0, 3.0], [0.02, 0.02, 0.5]])
    F = np.tile([[0.1, 1.0, 0.0], [0.0, 1.0, 0.2]], (len(Z), 1, 1))
    calls.clear()
    _, _, _, escaped, _ = _step(g, Z, F, require_unstable=True, restricted=False)
    assert not escaped.any()
    assert sum(calls) == 2 * len(Z)  # the images; the Jacobians of the live rows reuse them


def test_the_ac8_solve_sequence_stays_within_its_inverse_count(monkeypatch):
    # the sequence of test_ac8_straightened_map_meets_its_exact_budget, in rows solved: 768 validation
    # (3 evaluations per sample, the derivative samples reusing two), 36 bound grid rows, 156 each for
    # find_K and the domination check; 2058 before one evaluation per point and the chain-rule d2_r.
    # In calls, 2 per stack: validation 4 (two stacks), the grid 2, find_K 24 and the domination check
    # 38 (one stack per mesh step); 1116 when each point was solved on its own
    calls = counted_inverse(monkeypatch)
    f = ac8_map()
    calls.clear()  # the radius bisection is set-up
    validate_conditions(f, sample_count=128, tol=1e-8)
    bounds = estimate_bounds(f, grid_density=2)
    disk = make_default_disk(f, bounds, n_target=6, mesh_per_axis=3)
    find_K(disk, f, eps=1e-2, n_max=12)
    verify_bound_domination(disk, f, bounds, n_max=12)
    assert sum(calls) <= 1116
    assert len(calls) == 68


def offset_remainder(g):
    """g's remainder with 1e-3 added to r_s: nonzero on the unstable slice."""
    return lambda s, u, x: tuple(b + d for b, d in zip(g.r_map(s, u, x), (1e-3, 0.0, 0.0)))


def offset_jacobian(g):
    """g's remainder Jacobian with 1e-2 added to d_u r_s: nonzero on the unstable slice."""
    bump = np.zeros((g.dims.n, g.dims.n))
    bump[0, 1] = 1e-2
    return lambda s, u, x: g.d_r(s, u, x) + bump


def as_given(h):
    """h with each remainder callable behind a plain function, so nothing can share an evaluation."""
    return dataclasses.replace(
        h,
        r_map=lambda s, u, x: h.r_map(s, u, x),
        d_r=lambda s, u, x: h.d_r(s, u, x),
        d2_r=lambda s, u, x: h.d2_r(s, u, x),
    )


@pytest.mark.parametrize("replaced", ["r_map", "d_r"])
def test_a_replaced_callable_of_a_conjugated_map_is_read_as_given(replaced):
    # a radius inside the bisected one, whatever the base points the bisection probes
    g = conjugate_map(unstraighten_map(make_linear(0.5, 2.0, omega=0.3, rho=0.3), wavy_pair()), wavy_pair(), 0.12)
    other = offset_remainder(g) if replaced == "r_map" else offset_jacobian(g)
    h = dataclasses.replace(g, **{replaced: other})
    plain = as_given(h)
    rng = np.random.default_rng(29)
    Z = np.column_stack([rng.uniform(-0.05, 0.05, (6, 2)), rng.uniform(0.0, TWO_PI, 6)])
    F = np.tile([[0.1, 1.0, 0.0], [0.0, 1.0, 0.2]], (len(Z), 1, 1))
    got = _step(h, Z, F, require_unstable=True, restricted=False)
    for a, b in zip(got, _step(plain, Z, F, require_unstable=True, restricted=False)):
        assert np.array_equal(a, b, equal_nan=True)
    # the replacement is what moved: the images with r_map, the pushed frames with d_r
    unchanged = 1 if replaced == "r_map" else 0
    assert np.array_equal(got[unchanged], _step(g, Z, F, True, False)[unchanged])
    assert not np.array_equal(got[1 - unchanged], _step(g, Z, F, True, False)[1 - unchanged])

    report = validate_conditions(h, sample_count=40, tol=1e-8)
    assert report.to_dict() == validate_conditions(plain, sample_count=40, tol=1e-8).to_dict()
    moved, kept = ("c", "derivatives_bc") if replaced == "r_map" else ("derivatives_bc", "c")
    assert report.check(moved).max_violation >= (1e-3 if replaced == "r_map" else 1e-2)
    assert report.check(kept).max_violation <= 1e-8

    bounds = estimate_bounds(h, grid_density=2)
    assert repr(bounds.to_dict()) == repr(estimate_bounds(plain, grid_density=2).to_dict())
    clean = estimate_bounds(g, grid_density=2)
    assert bounds.C == clean.C
    assert (bounds.k == clean.k) if replaced == "r_map" else (bounds.k >= 1e-2)


def stacked_rows(g, rng, count):
    """``count`` sample rows of g as stacks (S, U, X); the first two sit at x = 0 and just below 2 pi."""
    S, U, X = (np.array(block) for block in zip(*sample_points(g, rng, count)))
    X[:2, 0] = (0.0, TWO_PI - 1e-12)
    return S, U, X


def test_a_stacked_evaluation_is_its_one_row_evaluations_bit_for_bit():
    rng = np.random.default_rng(31)
    for label, g in [*differentiated_cases(), ("AC8", ac8_map())]:
        S, U, X = stacked_rows(g, rng, 5)
        stack = g.r_map.evaluate(S, U, X)
        rows = [g.r_map.evaluate(S[i : i + 1], U[i : i + 1], X[i : i + 1]) for i in range(len(S))]
        for got, *want in zip(stack.r, *(row.r for row in rows)):
            assert np.array_equal(got, np.concatenate(want)), label
        for read in ("jacobian", "second"):
            want = np.concatenate([getattr(row, read)() for row in rows])
            assert np.array_equal(getattr(stack, read)(), want), label
        # the one-point views are one-row evaluations, and a subset taken from a stack reads as its rows do
        assert np.array_equal(g.d_r(S[2], U[2], X[2]), rows[2].jacobian()[0]), label
        want = np.concatenate([rows[3].jacobian(), rows[1].jacobian()])
        assert np.array_equal(stack.take([3, 1]).jacobian(), want), label


def counting(gp, calls):
    """gp whose graphs count their calls in the list ``calls``."""
    def count(graph):
        return lambda v, x: calls.append(1) or graph(v, x)

    return GraphPair(G_s=count(gp.G_s), G_u=count(gp.G_u))


@pytest.mark.parametrize("pair, dims", [(square_pair, (1, 1)), (wavy_pair, (1, 1)), (two_one_pair, (2, 1))])
def test_the_stacked_inverse_is_the_per_point_inverse(pair, dims):
    # every row leaves the stack at its own convergence test: its bits and its graph calls are its own
    rng = np.random.default_rng(37)
    n_s, n_u = dims
    Q_s, Q_u = rng.uniform(-0.15, 0.15, (40, n_s)), rng.uniform(-0.15, 0.15, (40, n_u))
    Q_s[0], Q_u[0] = 0.0, 0.0  # one sweep
    X = rng.uniform(0.0, TWO_PI, (40, 1))
    stacked, by_points = [], []
    S, U = straighten._inverse(counting(pair(), stacked), Q_s, Q_u, X, 1e-13, 200)
    topo = ChartTopology.angles(1)
    for i in range(len(X)):
        p = straighten_inverse(counting(pair(), by_points), ChartPoint(Q_s[i], Q_u[i], X[i], topo), 1e-13, 200)
        assert np.array_equal(S[i], p.s) and np.array_equal(U[i], p.u), i
    assert len(stacked) == len(by_points)


def test_a_diverging_row_of_a_stack_raises_as_its_point_does():
    slope3 = GraphPair(G_s=lambda s, x: np.atleast_1d(3.0 * s[0]), G_u=lambda u, x: np.atleast_1d(3.0 * u[0]))
    Q = np.array([[0.0], [0.02], [0.3]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as stacked:
        straighten._inverse(slope3, Q, Q, np.zeros((3, 1)), 1e-13, 50)
    point = make_linear(0.5, 2.0).point([0.02], [0.02], [0.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as alone:
        straighten_inverse(slope3, point, tol=1e-13, max_iter=50)
    assert str(stacked.value) == str(alone.value)  # the first row that does not converge, not the last


def test_validation_and_bounds_on_stacks_read_as_the_per_row_path():
    # as_given reads each callable once per row, each a one-row evaluation
    for label, g in [*differentiated_cases(), ("AC8", ac8_map())]:
        report = validate_conditions(g, sample_count=40, tol=1e-8)  # one stack of 32 samples, one of 8
        assert report.to_dict() == validate_conditions(as_given(g), sample_count=40, tol=1e-8).to_dict(), label
        bounds = estimate_bounds(g, grid_density=2)
        assert repr(bounds.to_dict()) == repr(estimate_bounds(as_given(g), grid_density=2).to_dict()), label


def raised(run):
    """The type and message of the exception ``run()`` raises."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


def test_a_failing_stack_raises_what_its_rows_raise_first():
    # the wavy round trip at a radius too wide for it: at x = 0 the corner (+, +) diverges in the outer
    # inverse, while (+, -) lands outside the inner ball; a stack reads its rows stage by stage, and must
    # raise the error of the first row that fails, whatever the stage
    wavy = wavy_pair()
    g = conjugate_map(unstraighten_map(make_linear(0.5, 2.0, omega=0.3, rho=0.3), wavy), wavy, radius=0.25)
    plain = as_given(g)
    r = 0.999 * g.rho
    Z = np.array([[0.1, 0.1, 1.0], [0.5 * r, -r, 0.0], [r, r, 0.0], [-r, r, 0.0]])
    F = np.tile([[0.1, 1.0, 0.0], [0.0, 1.0, 0.2]], (len(Z), 1, 1))
    for rows in (Z, Z[[0, 2, 1]], Z[[2, 0]]):
        want = raised(lambda: _step(plain, rows, F[: len(rows)], True, False))
        assert raised(lambda: _step(g, rows, F[: len(rows)], True, False)) == want
    assert raised(lambda: _step(g, Z[[2, 1]], F[:2], True, False))[0] is DivergenceError
    assert raised(lambda: _step(g, Z[[1, 2]], F[:2], True, False))[0] is OutOfNeighborhoodError
    assert raised(lambda: validate_conditions(g, 40)) == raised(lambda: validate_conditions(plain, 40))
    assert raised(lambda: estimate_bounds(g, 2)) == raised(lambda: estimate_bounds(plain, 2))


def test_the_radius_probes_the_lower_end_of_the_x_range():
    # x = 0 is where the bound grid and the seeded meshes start; it was between the probes before
    wavy = wavy_pair()
    g = conjugate_map(unstraighten_map(make_linear(0.5, 2.0, omega=0.3, rho=0.3), wavy), wavy)
    assert round(g.rho, 5) == 0.15982
    corner = g.rho * (1.0 - 1e-9)
    for x in (0.0, TWO_PI - 1e-12):
        for s, u in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert np.isfinite(g.r_map(np.array([s * corner]), np.array([u * corner]), np.array([x]))[0]).all()
    bounds = estimate_bounds(g, grid_density=2)
    assert bounds.k <= 1e-12 and bounds.C <= 1e-10


def test_the_stacked_contractions_of_d2_r_round_as_one_point_einsums():
    # second() and _linear_second contract whole stacks; each row keeps the bits of the one-point einsum
    rng = np.random.default_rng(41)
    for n in (3, 4, 6):
        for count in (1, 5, 64):
            t, m = rng.standard_normal((count, n, n, n)), rng.standard_normal((count, n, n))
            pulled, applied = straighten._pull(t, m), straighten._apply(m, t)
            dd_a, v = rng.standard_normal((count, 2, 2, n, n)), rng.standard_normal((count, 2))
            contracted = np.einsum("nijkl,nj->nikl", dd_a, v)
            for i in range(count):
                assert np.array_equal(pulled[i], np.einsum("iab,aj,bk->ijk", t[i], m[i], m[i]))
                assert np.array_equal(applied[i], np.einsum("ia,ajk->ijk", m[i], t[i]))
                assert np.array_equal(contracted[i], np.einsum("ijkl,j->ikl", dd_a[i], v[i]))
