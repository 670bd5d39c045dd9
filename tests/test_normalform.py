import dataclasses
import json
import math

import numpy as np
import pytest

import _refvals as rv
from _fd_oracles import _r_jacobian
from nhimlab import (
    BoundSet,
    ContractError,
    OutOfNeighborhoodError,
    apply_map,
    check_constants,
    estimate_bounds,
    jacobian,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    validate_conditions,
)
from nhimlab.normalform import _unit_samples


def strip_analytic(f):
    return dataclasses.replace(
        f, d_r=None, d2_r=None, d_A_s=None, d_A_u=None, d_g=None, d2_g=None)


def test_linear_apply_and_jacobian():
    f = make_linear(0.5, 2.0)
    p = f.point([0.4], [0.1], [0.0])
    w = apply_map(f, p)
    assert w.s[0] == 0.2 and w.u[0] == 0.2 and w.x[0] == 0.0
    jac = jacobian(f, p)
    assert np.array_equal(jac, np.diag([0.5, 2.0, 1.0]))


def test_poly_image_matches_oracle():
    f = make_poly(0.05)
    w = apply_map(f, f.point([0.2], [0.2], [0.0]))
    got = (w.s[0], w.u[0], w.x[0])
    assert np.allclose(got, rv.POLY_IMAGE_02_02, rtol=0, atol=1e-16)


def test_poly_jacobian_matches_oracle_and_fd():
    f = make_poly(0.05)
    p = f.point([0.2], [0.2], [0.0])
    jac = jacobian(f, p)
    assert np.allclose(jac, rv.POLY_JAC_02_02, rtol=0, atol=1e-15)
    fd = jacobian(strip_analytic(f), p)
    assert np.max(np.abs(fd - jac)) <= 1e-8


def test_remainder_vanishes_on_manifold():
    for f in (make_poly(0.05), make_linear(0.5, 2.0, omega=0.3)):
        p = f.point([0.0], [0.0], [1.2])
        w = apply_map(f, p)
        assert w.s[0] == 0.0 and w.u[0] == 0.0
        jac = jacobian(f, p)
        # Dr = 0 on the manifold: the block jacobian is exactly block diagonal
        assert jac[0, 1] == 0.0 and jac[0, 2] == 0.0
        assert jac[1, 0] == 0.0 and jac[1, 2] == 0.0
        assert jac[2, 0] == 0.0 and jac[2, 1] == 0.0


def test_fd_jacobian_second_order_convergence():
    f = make_twist_annulus(0.05, 0.0, 1.0)
    g = strip_analytic(f)
    p = f.point([0.2], [0.1], [1.3, 0.4])
    exact = jacobian(f, p)
    e1 = np.max(np.abs(jacobian(g, p, h=1e-3) - exact))
    e2 = np.max(np.abs(jacobian(g, p, h=5e-4) - exact))
    assert 3.0 <= e1 / e2 <= 5.0


def test_apply_map_rejects_points_outside_ball():
    f = make_linear(0.5, 2.0, rho=0.5)
    with pytest.raises(OutOfNeighborhoodError):
        apply_map(f, f.point([0.5], [0.0], [0.0]))


@pytest.mark.parametrize("block", ["s", "u"])
def test_nan_in_either_block_is_outside_the_ball(block):
    f = make_linear(0.5, 2.0, rho=0.5)
    s, u = ([math.nan], [0.1]) if block == "s" else ([0.1], [math.nan])
    p = f.point(s, u, [0.3])
    assert not p.in_ball(0.5)
    with pytest.raises(OutOfNeighborhoodError):
        apply_map(f, p)
    # the finite-difference probe refuses it too instead of differencing NaNs
    with pytest.raises(ContractError):
        _r_jacobian(strip_analytic(f), np.array(s), np.array(u), np.array([0.3]), 1e-6)


def test_validate_conditions_linear_exact():
    report = validate_conditions(make_linear(0.5, 2.0, omega=0.3), sample_count=64)
    assert report.passed
    for name in ("a", "b", "c", "d"):
        assert report.check(name).max_violation == 0.0


def test_validate_conditions_poly_passes():
    report = validate_conditions(make_poly(0.05), sample_count=128)
    assert report.passed
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"a", "b", "c", "d", "e"} <= names


def test_validate_conditions_flags_broken_b():
    f = make_defective("b", amp=0.025)
    report = validate_conditions(f, sample_count=128)
    assert not report.passed
    viol = report.check("b").max_violation
    assert 0.8 * 0.025 * f.rho <= viol <= 0.025 * f.rho
    # analytic derivative check sees the off-block slope exactly
    assert np.isclose(report.check("derivatives_bc").max_violation, 0.025, rtol=1e-12)
    # violation is linear in the defect amplitude on the same sample set
    viol2 = validate_conditions(make_defective("b", amp=0.05), sample_count=128).check("b").max_violation
    assert np.isclose(viol2, 2.0 * viol, rtol=1e-12)


def test_validate_conditions_flags_broken_d():
    report = validate_conditions(make_defective("d", amp=0.025), sample_count=128)
    assert not report.passed
    assert report.check("d").max_violation > 0.0


def test_validate_conditions_deterministic():
    f = make_poly(0.1)
    r1 = validate_conditions(f, sample_count=64)
    r2 = validate_conditions(f, sample_count=64)
    assert r1.to_dict() == r2.to_dict()


def test_estimate_bounds_poly():
    f = make_poly(0.05)
    b = estimate_bounds(f, grid_density=7, target_eps=1e-2)
    # k = sup ||Dr|| = 2*c*rho, sampled on a grid inset by a relative 1e-9
    assert np.isclose(b.k, 2 * 0.05 * f.rho, rtol=1e-8)
    assert np.isclose(b.C, 0.05, rtol=1e-12)
    assert np.isclose(b.c_excluded, 0.05, rtol=1e-12)
    assert b.C_tilde == 0.0 and b.D == 0.0
    assert b.lk1_ok and b.lk2_ok
    assert np.isclose(b.eps_s, rv.POLY_EPS_S, rtol=1e-6)


def test_estimate_bounds_linear_all_zero():
    b = estimate_bounds(make_linear(0.5, 2.0, omega=0.3), grid_density=5)
    assert b.k == 0.0 and b.C == 0.0 and b.C_tilde == 0.0 and b.D == 0.0


def test_estimate_bounds_monotone_under_refinement():
    f = make_twist_annulus(0.05, 0.0, 1.0)
    coarse = estimate_bounds(f, grid_density=4)
    fine = estimate_bounds(f, grid_density=8)
    assert fine.k >= coarse.k
    assert fine.C >= coarse.C
    assert fine.C_tilde >= coarse.C_tilde
    assert fine.D >= coarse.D


def test_check_constants_slacks():
    b = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    checks = {c.name: c for c in check_constants(b)}
    assert all(c.holds for c in checks.values())
    assert np.isclose(checks["lambda_plus_k_below_one"].slack, 0.45, atol=1e-12)


def test_check_constants_detects_rate_violation():
    b = BoundSet(0.5, 0.6, 0.0, 0.0, 0.0, 0.5, 1e-2)
    checks = {c.name: c for c in check_constants(b)}
    assert not checks["lambda_plus_k_below_one"].holds
    assert checks["lambda_plus_k_below_one"].slack < 0.0


def test_budget_oracle_values():
    b = BoundSet(0.9, 0.05, 0.0, 0.0, 0.0, 0.5, 0.1)
    assert np.isclose(b.mu_star, rv.MU_STAR_09_005, rtol=1e-13)
    checks = {c.name: c for c in check_constants(b)}
    assert np.isclose(checks["slab_contraction"].slack, rv.CONTRACTION_09_005, rtol=1e-12)

    poly = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    assert np.isclose(poly.mu_star, rv.POLY_MU_STAR, rtol=1e-13)
    assert np.isclose(poly.eps_s, rv.POLY_EPS_S, rtol=1e-13)
    # the stable branch is the binding one for this budget
    assert rv.POLY_EPS_S == rv.POLY_SLAB_BRANCH_S
    assert rv.POLY_SLAB_BRANCH_S < rv.POLY_SLAB_BRANCH_X
    assert np.isclose(poly.delta, (poly.C + 1.0) * poly.eps_s, rtol=1e-15)


def test_budget_degenerate_denominator():
    b = BoundSet(0.9, 0.05, 0.0, 0.0, 0.0, 0.5, 12.0)
    assert math.isinf(b.mu_star)
    assert b.eps_s == 0.0
    assert not b.slab_ok


def test_slab_width_capped_by_rho():
    b = BoundSet(0.5, 1e-6, 0.0, 0.0, 0.0, 1e-4, 0.9)
    assert b.eps_s <= b.rho


def test_boundset_serialization():
    b = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    d = b.to_dict()
    assert d["lambda"] == 0.5 and d["k"] == 0.05
    assert d["lk1_ok"] is True and d["lk2_ok"] is True
    json.dumps(d)


def test_x_ranges():
    f = make_linear(0.5, 2.0)
    assert list(f.x_ranges()) == [(0.0, 2 * np.pi)]
    tw = make_twist_annulus(0.05, 0.25, 1.75)
    assert list(tw.x_ranges()) == [(0.0, 2 * np.pi), (0.25, 1.75)]


def test_unit_samples_match_scipy_halton():
    qmc = pytest.importorskip("scipy.stats").qmc
    for dim in range(1, 9):
        for seed in (0, 3, 11, 2**32 - 1):
            for count in (1, 32, 256, 1000):
                ref = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
                assert np.array_equal(_unit_samples(dim, count, seed), ref), (dim, seed, count)


def nan_remainder():
    nan = np.full(1, np.nan)
    return dataclasses.replace(make_linear(), r_map=lambda s, u, x: (nan, nan, nan), d_r=None, d2_r=None)


def test_validate_conditions_fails_on_nan_remainder():
    rep = validate_conditions(nan_remainder(), sample_count=16)
    assert not rep.passed
    for name in ("a", "b", "c", "d", "derivatives_bc", "derivatives_d"):
        assert math.isnan(rep.check(name).max_violation) and not rep.check(name).passed
    assert rep.check("e").passed  # the normal blocks are finite


def test_estimate_bounds_keeps_nan_remainder():
    b = estimate_bounds(nan_remainder(), grid_density=2)
    assert math.isnan(b.k) and math.isnan(b.C)
    assert not (b.lk1_ok or b.lk2_ok or b.slab_ok)
    assert not any(c.holds for c in check_constants(b))


def reference_slab(lam, k, C, C_tilde, rho, eps):
    """(mu_star, eps_s) by the slab formula as it reads for finite constants."""
    gap = 1.0 / lam - k
    denom = 1.0 - ((2.0 * k + C * rho) / gap) * eps
    if denom <= 0.0:
        return math.inf, 0.0
    mu_star = 1.0 / denom
    branch_x = eps * (gap / mu_star) * (1.0 - k * mu_star / gap) / (C + 1.0 + eps * (C_tilde + C + 1.0))
    branch_s = eps * (1.0 - (lam + k) * mu_star / gap) / (C + 1.0 + (2.0 * C + 1.0) * eps)
    return mu_star, max(0.0, min(branch_x, branch_s, rho))


def test_nan_budget_reads_an_unknown_slab():
    for k, C in ((math.nan, math.nan), (0.05, math.nan), (math.nan, 0.05)):
        b = BoundSet(lam=0.5, k=k, C=C, C_tilde=0.0, D=0.0, rho=0.3, target_eps=1e-2)
        assert math.isnan(b.eps_s) and math.isnan(b.delta) and math.isnan(b.mu_star), (k, C)
        assert not b.slab_ok
    # finite constants keep their bits, clamped and capped branches included
    rng = np.random.default_rng(3)
    cases = [(0.9, 0.05, 0.0, 0.0, 0.5, 12.0), (0.5, 1e-6, 0.0, 0.0, 1e-4, 0.9), (0.5, 0.05, 0.05, 0.0, 0.5, 1e-2)]
    cases += [(0.5, 1.5, 0.1, 0.0, 0.3, 0.5), (0.9, 0.2, 0.0, 0.0, 0.5, 0.5)]
    for _ in range(200):
        lam, k, C, C_tilde, rho = rng.uniform(0.05, 0.95), rng.uniform(0.0, 1.0), *rng.uniform(0.0, 2.0, size=3)
        cases.append((lam, k, C, C_tilde, rho, 10.0 ** rng.uniform(-4.0, 0.0)))
    for lam, k, C, C_tilde, rho, eps in cases:
        b = BoundSet(lam=lam, k=k, C=C, C_tilde=C_tilde, D=0.0, rho=rho, target_eps=eps)
        mu_star, eps_s = reference_slab(lam, k, C, C_tilde, rho, eps)
        assert (b.mu_star, b.eps_s, b.delta) == (mu_star, eps_s, (C + 1.0) * eps_s)
        assert not math.isnan(b.eps_s)


def test_replace_rederives_the_slab():
    b = BoundSet(lam=0.5, k=0.05, C=0.05, C_tilde=0.0, D=0.0, rho=0.5, target_eps=1e-2)
    for k in (0.0, 0.2, 1.5):
        new = dataclasses.replace(b, k=k)
        mu_star, eps_s = reference_slab(0.5, k, 0.05, 0.0, 0.5, 1e-2)
        assert (new.mu_star, new.eps_s, new.delta) == (mu_star, eps_s, (0.05 + 1.0) * eps_s), k
    assert dataclasses.replace(b, k=0.2).eps_s != b.eps_s
    # the slab is not an argument, so it cannot disagree with the constants
    with pytest.raises(TypeError):
        BoundSet(lam=0.5, k=0.05, C=0.05, C_tilde=0.0, D=0.0, rho=0.5, target_eps=1e-2, eps_s=0.1)
