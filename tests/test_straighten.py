import numpy as np
import pytest

import _refvals as rv
from nhimlab import (
    ContractError,
    DivergenceError,
    GraphPair,
    apply_map,
    conjugate_map,
    conjugated_radius,
    make_linear,
    straighten_inverse,
    straighten_point,
    tangency_violation,
    unstraighten_map,
    validate_conditions,
)


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
