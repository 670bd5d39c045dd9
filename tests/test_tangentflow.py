import math

import numpy as np
import pytest

import _refvals as rv
from nhimlab import (
    BoundSet,
    ContractError,
    DegenerateVectorError,
    EscapeError,
    JetState,
    ModelInconsistencyError,
    TangentVector,
    make_defective,
    make_linear,
    make_poly,
    sn_contraction_bound,
    stable_restricted_step,
    step_jet,
    stretch_lower_bound,
    theoretical_inclination_bounds,
    unit_frame,
)
from nhimlab.tangentflow import _frame_inclinations

LINEAR = make_linear(0.5, 2.0)
POLY = make_poly(0.05)


def jet(f, s, u, x, vectors):
    frame = unit_frame([TangentVector(*v) for v in vectors])
    return JetState(p=f.point(s, u, x), frame=frame, n=0)


def test_single_step_linear():
    j = jet(LINEAR, [0.0], [0.1], [0.0], [([1.0], [1.0], [1.0])])
    j1, rec = step_jet(LINEAR, j)
    assert rec.n == 1
    assert rec.stretch == 2.0
    assert rec.I_s == 0.25 and rec.I_x == 0.5
    v = j1.frame[0]
    assert v.v_u[0] == 1.0  # unit sup norm, unstable part dominates
    assert v.v_s[0] == 0.25 and v.v_x[0] == 0.5


def test_linear_decay_is_exact():
    j = jet(LINEAR, [0.3], [0.0], [0.7], [([1.0], [1.0], [1.0])])
    for n in range(1, 41):
        j, rec = step_jet(LINEAR, j)
        assert rec.I_x == 0.5 ** n
        assert rec.I_s == 0.25 ** n


def test_poly_jet_oracle():
    j = jet(POLY, [0.2], [0.01], [0.0], [([1.0], [1.0], [1.0])])
    for _ in range(3):
        j, rec = step_jet(POLY, j)
    assert np.isclose(rec.I_x, rv.POLY_JET3_I_X, rtol=1e-12)
    assert np.isclose(rec.I_s, rv.POLY_JET3_I_S, rtol=1e-12)
    got = (j.p.s[0], j.p.u[0], j.p.x[0])
    assert np.allclose(got, rv.POLY_JET3_POINT, rtol=0, atol=1e-16)


def test_escape_reports_survivor():
    j = jet(LINEAR, [0.0], [0.1], [0.0], [([0.0], [1.0], [0.0])])
    with pytest.raises(EscapeError) as exc:
        for _ in range(10):
            j, _ = step_jet(LINEAR, j)
    # u doubles: 0.2, 0.4 stay inside rho = 0.5, the third step leaves
    assert exc.value.survivor.n == 2
    assert exc.value.survivor.p.u[0] == 0.4


def test_degenerate_unstable_component():
    j = jet(LINEAR, [0.0], [0.1], [0.0], [([1.0], [0.0], [1.0])])
    with pytest.raises(DegenerateVectorError):
        step_jet(LINEAR, j)
    j2, rec = step_jet(LINEAR, j, require_unstable=False)
    # nothing in the frame carries unstable mass, so the gap quantities pin at inf
    assert rec.stretch == np.inf and rec.I_s == np.inf


def test_unit_frame_rejects_zero_vector():
    with pytest.raises(DegenerateVectorError):
        unit_frame([TangentVector([0.0], [0.0], [0.0])])


def test_stable_restricted_linear_decay():
    j = jet(LINEAR, [0.3], [0.0], [0.0], [([0.0], [1.0], [0.0])])
    for n in range(1, 11):
        j, rec = step_jet(LINEAR, j)  # plain step keeps u = 0 here
    assert j.p.s[0] == 0.3 * 0.5 ** 10
    j = jet(LINEAR, [0.3], [0.0], [0.0], [([0.0], [1.0], [0.0])])
    for n in range(1, 11):
        j, rec = stable_restricted_step(LINEAR, j)
        assert j.p.u[0] == 0.0
    assert j.p.s[0] == 0.3 * 0.5 ** 10


def test_stable_restricted_requires_zero_u():
    j = jet(LINEAR, [0.1], [0.01], [0.0], [([0.0], [1.0], [0.0])])
    with pytest.raises(ContractError):
        stable_restricted_step(LINEAR, j)


def test_stable_restricted_detects_slice_leak():
    f = make_defective("b", amp=0.025)
    j = jet(f, [0.3], [0.0], [0.0], [([0.0], [1.0], [0.0])])
    with pytest.raises(ModelInconsistencyError):
        stable_restricted_step(f, j)


def test_two_jacobian_routes_agree_on_slice():
    # the exact-map route and the slice-restricted route must give the same
    # inclinations for orbits that start on {u = 0}
    seeds = [([1.0], [1.0], [1.0]), ([0.3], [1.0], [-0.2])]
    j_a = jet(POLY, [0.3], [0.0], [0.0], [seeds[0]])
    j_b = jet(POLY, [0.3], [0.0], [0.0], [seeds[0]])
    for _ in range(5):
        j_a, rec_a = step_jet(POLY, j_a)
        j_b, rec_b = stable_restricted_step(POLY, j_b)
    assert np.isclose(rec_a.I_x, rec_b.I_x, rtol=0, atol=1e-13)
    assert np.isclose(rec_a.I_s, rec_b.I_s, rtol=0, atol=1e-13)


def test_inclination_bounds_oracle():
    b = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    got = theoretical_inclination_bounds(b, 10, I0_x=1.0, I0_s=1.0, s0=0.3)
    assert not got.pre_asymptotic
    assert np.isclose(got.bound_x, rv.BOUND_X_N10, rtol=1e-13)
    assert np.isclose(got.bound_s, rv.BOUND_S_N10, rtol=1e-13)


def test_inclination_bounds_pre_asymptotic():
    b = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    for n in (0, 1):
        got = theoretical_inclination_bounds(b, n, I0_x=0.2, I0_s=0.7, s0=0.3)
        assert got.pre_asymptotic
        assert got.bound_s == 0.7
    with pytest.raises(ContractError):
        theoretical_inclination_bounds(b, -1, 0.0, 0.0, 0.0)


def test_inclination_bounds_linear_model_collapse():
    # k = C = 0: the x-inclination bound vanishes identically for n >= 2
    b = BoundSet(0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 1e-2)
    got = theoretical_inclination_bounds(b, 5, I0_x=1.0, I0_s=1.0, s0=0.3)
    assert got.bound_x == 0.0
    # with no x-inclination to shed, the s bound is the pure geometric ratio
    got0 = theoretical_inclination_bounds(b, 5, I0_x=0.0, I0_s=1.0, s0=0.3)
    assert got0.bound_s == (0.5 / 2.0) ** 5


def test_inclination_bounds_reject_bad_budget():
    b = BoundSet(0.5, 0.6, 0.0, 0.0, 0.0, 0.5, 1e-2)
    with pytest.raises(ContractError):
        theoretical_inclination_bounds(b, 5, 1.0, 1.0, 0.3)


def test_sn_contraction_bound():
    b = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    assert sn_contraction_bound(b, 0, 0.3) == 0.3
    assert np.isclose(sn_contraction_bound(b, 5, 0.3), rv.SN_BOUND_N5, rtol=1e-13)
    # the linear model attains the bound exactly (k = 0)
    b0 = BoundSet(0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 1e-2)
    assert sn_contraction_bound(b0, 10, 0.3) == 0.3 * 0.5 ** 10


def test_stretch_lower_bound():
    b = BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2)
    got = stretch_lower_bound(b, 0.1)
    assert np.isclose(got.refined, rv.STRETCH_REFINED_01, atol=1e-12)
    assert np.isclose(got.floor, 1.9, atol=1e-12)
    b0 = BoundSet(0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 1e-2)
    assert stretch_lower_bound(b0, 0.1).refined == 2.0


def test_stacked_frame_inclinations_are_the_one_frame_rule_frame_by_frame():
    # one frame's rule: sups over its rows with v_u != 0, (inf, inf) when it has none
    def one_frame(frame):
        counted = [(np.abs(v[:1]).max(), np.abs(v[1:2]).max(), np.abs(v[2:]).max()) for v in frame]
        counted = [(ns, nu, nx) for ns, nu, nx in counted if nu > 0.0]
        if not counted:
            return math.inf, math.inf
        return np.max([ns / nu for ns, nu, _ in counted]), np.max([nx / nu for _, nu, nx in counted])

    nan = math.nan
    F = np.array([
        [[0.1, 1.0, 0.2], [0.3, -0.5, 0.0]],  # both rows counted
        [[0.4, 0.0, 1.0], [0.1, 0.5, -0.2]],  # the first row has no unstable part
        [[1.0, 0.0, 0.2], [0.0, 0.0, 1.0]],  # no unstable row
        [[0.1, 0.5, 0.0], [nan, 1.0, 0.2]],  # a NaN in a counted row, not the first
        [[0.1, nan, 0.2], [0.2, 0.5, 0.1]],  # a NaN v_u does not count its row
    ])
    inc_s, inc_x = _frame_inclinations(LINEAR.dims, F)
    for i, frame in enumerate(F):
        np.testing.assert_array_equal((inc_s[i], inc_x[i]), one_frame(frame))
    assert (inc_s[2], inc_x[2]) == (math.inf, math.inf)
    assert np.isnan(inc_s[3]) and inc_x[3] == 0.2


def _wide_entries(rng, shape):
    """Signed magnitudes log-uniform over 1e-300..1e300, with signed zeros mixed in."""
    out = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    zeros = rng.random(shape)
    out[zeros < 0.1] = 0.0
    out[zeros > 0.9] = -0.0
    return out


@pytest.mark.parametrize("N", [1, 7, 130])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4])
def test_stacked_frame_push_is_the_per_row_product_bit_for_bit(N, k, n):
    # the mesh step pushes every frame row of every node in one stacked matmul;
    # it must round exactly as one jac @ v per row
    rng = np.random.default_rng([N, k, n])
    for _ in range(100):
        J, F = _wide_entries(rng, (N, n, n)), _wide_entries(rng, (N, k, n))
        with np.errstate(all="ignore"):  # products overflow to inf and inf - inf is NaN, by design
            stacked = np.matmul(J[:, None], F[..., None])[..., 0]
            looped = np.empty_like(stacked)
            for i in range(N):
                for r in range(k):
                    looped[i, r] = J[i] @ F[i, r]
        assert np.array_equal(stacked.view(np.int64), looped.view(np.int64))
