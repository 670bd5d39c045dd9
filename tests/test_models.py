import json
import math

import mpmath as mp
import numpy as np
import pytest

import _refvals as rv
from nhimlab import (
    ContractError,
    FlowState,
    HamiltonianSpec,
    apply_map,
    cli,
    contact_order,
    ham_vector_field,
    hamiltonian_audits,
    hamiltonian_energy,
    integrate,
    integrate_series,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    pendulum_local_coords,
    pendulum_local_inverse,
    poincare_map,
    symplectic_step,
    validate_conditions,
)
from nhimlab import _kernels

import _flow_oracles as oracles

TWO_PI = 2.0 * np.pi


def test_rate_validation():
    with pytest.raises(ContractError):
        make_linear(1.0, 2.0)
    with pytest.raises(ContractError):
        make_linear(0.5, 0.9)
    with pytest.raises(ContractError):
        make_linear(-0.1, 2.0)


def test_linear_lambda_value():
    assert make_linear(0.5, 2.0).lam == 0.5
    f = make_linear(0.9, 1.1, omega=0.3)
    assert np.isclose(f.lam, rv.LINEAR_LAM_09_11, rtol=1e-15)


def test_poly_reduces_to_linear_at_zero_coupling():
    f0 = make_poly(0.0)
    lin = make_linear(0.5, 2.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s, u = rng.uniform(-0.3, 0.3, size=2)
        p = f0.point([s], [u], [rng.uniform(0, TWO_PI)])
        a, b = apply_map(f0, p), apply_map(lin, p)
        assert a.s[0] == b.s[0] and a.u[0] == b.u[0] and a.x[0] == b.x[0]


def test_poly_refuses_budget_breaking_coupling():
    with pytest.raises(ContractError):
        make_poly(10.0)
    with pytest.raises(ContractError):
        make_poly(-0.05)


def test_twist_constructor_validation():
    with pytest.raises(ContractError):
        make_twist_annulus(0.05, 1.0, 1.0)


def test_twist_edges_exactly_invariant():
    f = make_twist_annulus(0.37, 0.25, 1.5)
    for y_edge in (0.25, 1.5):
        for theta in (0.0, 1.1, 3.9, 6.2):
            p = f.point([0.0], [0.0], [theta, y_edge])
            w = apply_map(f, p)
            assert w.x[1] == y_edge


def test_twist_integrable_keeps_every_circle():
    f = make_twist_annulus(0.0, 0.0, 1.0)
    for y in (0.1, 0.43, 0.99):
        w = apply_map(f, f.point([0.0], [0.0], [2.0, y]))
        assert w.x[1] == y


def test_twist_passes_structural_conditions():
    report = validate_conditions(make_twist_annulus(0.05, 0.0, 1.0), sample_count=64)
    assert report.passed


def test_twist_orbit_matches_extended_precision_replay():
    f = make_twist_annulus(0.05, 0.0, 1.0)
    p = f.point([0.0], [0.0], [1.0, 0.5])

    mp.mp.dps = 40
    eps = mp.mpf("0.05")
    th, y = mp.mpf(1), mp.mpf("0.5")
    for n in range(100):
        w = apply_map(f, p)
        bump = (y - 0) * (1 - y)
        th, y = th + 2 * mp.pi * y + eps * bump * mp.cos(th), y + eps * bump * mp.sin(th)
        th = th % (2 * mp.pi)
        d_th = abs(w.x[0] - float(th)) % (2 * math.pi)
        assert max(min(d_th, 2 * math.pi - d_th), abs(w.x[1] - float(y))) <= 1e-10
        p = w


def test_contact_order_table():
    assert contact_order(3.0, 1.0) == 2
    assert contact_order(math.exp(8.0), 1.0) == 6
    assert contact_order(55.0, 1.0) == 4
    assert contact_order(3.0, 100.0) == 2
    assert contact_order(1.0, 1.0) == 2


def test_contact_order_validation():
    with pytest.raises(ContractError):
        contact_order(0.5, 1.0)
    with pytest.raises(ContractError):
        contact_order(3.0, 0.0)


def test_hamiltonian_spec_validation():
    with pytest.raises(ContractError):
        HamiltonianSpec(eps=0.01, mu=0.02)
    with pytest.raises(ContractError):
        HamiltonianSpec(eps=-0.01, mu=0.0)
    with pytest.warns(UserWarning):
        HamiltonianSpec(eps=0.01, mu=0.005)
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    assert hs.contact_order == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_hamiltonian_parameters_are_contract_errors(bad):
    # NaN and inf used to escape as ValueError/OverflowError from the order's
    # floor, or, for eps = NaN, to pass until a momentum came out non-finite
    with pytest.raises(ContractError, match="nu must be finite"):
        contact_order(bad, 1.0)
    with pytest.raises(ContractError, match="sigma_param must be finite"):
        contact_order(3.0, bad)
    with pytest.raises(ContractError, match="eps must be finite"):
        HamiltonianSpec(eps=bad, mu=0.0)
    with pytest.raises(ContractError, match="mu must be finite"):
        HamiltonianSpec(eps=0.01, mu=bad)
    with pytest.raises(ContractError, match="nu must be finite"):
        HamiltonianSpec(eps=0.01, mu=0.0, nu=bad)
    for row in ((1, 0, bad, 0.0), (1, 0, 1.0, bad), (bad, 0, 1.0, 0.0), (1, bad, 1.0, 0.0)):
        with pytest.raises(ContractError, match="finite"):
            HamiltonianSpec(eps=0.01, mu=0.0, f_coeffs=(row,))
        with pytest.raises(ContractError, match="finite"):
            HamiltonianSpec(eps=0.01, mu=0.0, g_coeffs=(row,))


@pytest.mark.parametrize("kind, params", [
    ("linear", {"omega": math.inf}),
    ("linear", {"omega": math.nan}),
    ("twist", {"eps_twist": math.nan, "y0": 0.2, "y1": 0.8}),
    ("twist", {"eps_twist": math.inf, "y0": 0.2, "y1": 0.8}),
    ("twist", {"eps_twist": 0.05, "y0": -math.inf, "y1": 0.8}),
    ("defective", {"amp": math.inf}),
])
def test_a_model_factory_refuses_a_non_finite_parameter(kind, params, tmp_path, capsys):
    # each map was built, and validate_conditions passed all but the defective one:
    # conditions a)-e) never read g_map, and a NaN sampling box reads no violation
    name = next(key for key, value in params.items() if not math.isfinite(value))
    factory = {"linear": make_linear, "twist": make_twist_annulus, "defective": make_defective}[kind]
    with pytest.raises(ContractError, match=f"^{name} must be finite, got {params[name]}$"):
        factory(**params)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": kind, **params}}))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert f"{name} must be finite" in capsys.readouterr().err


def test_contact_order_that_overflows_is_contract_error():
    with pytest.raises(ContractError, match="overflows"):
        contact_order(3.0, 1e-310)


def test_flow_state_canonicalization():
    st = FlowState(p=0.0, q=-0.1, I=0.0, theta=TWO_PI, J=0.0, phi=1.0)
    assert np.isclose(st.q, TWO_PI - 0.1)
    assert st.theta == 0.0
    arr = st.as_array()
    assert np.array_equal(FlowState.from_array(arr).as_array(), arr)
    with pytest.raises(ContractError):
        FlowState(p=np.nan, q=0.0, I=0.0, theta=0.0, J=0.0, phi=0.0)


@pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), (6, 1), ()])
def test_from_array_of_anything_but_six_values_is_contract_error(shape):
    # (5,) used to raise a bare ValueError from unpacking, (1, 6) a TypeError
    with pytest.raises(ContractError, match="6 components"):
        FlowState.from_array(np.full(shape, 0.1))


def test_energy_at_cylinder_origin():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.0, q=0.0, I=0.0, theta=0.0, J=0.0, phi=0.0)
    # pendulum part vanishes, coupling f contributes cos(0) + cos(0)
    assert np.isclose(hamiltonian_energy(hs, st), 2 * hs.eps, rtol=1e-15)


def test_vector_field_on_cylinder():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.0, q=0.0, I=0.3, theta=1.0, J=0.1, phi=2.0)
    dz = ham_vector_field(hs, st)
    assert dz[0] == 0.0 and dz[1] == 0.0  # the cylinder p = q = 0 is invariant
    assert dz[5] == 1.0
    hs0 = HamiltonianSpec(eps=0.0, mu=0.0)
    dz0 = ham_vector_field(hs0, st)
    assert dz0[2] == 0.0 and dz0[4] == 0.0
    assert dz0[3] == st.I


@pytest.mark.parametrize(
    "tables",
    [{}, {"f_coeffs": ((1, 0, 0.7, -0.2), (2, -1, -0.3, 0.5), (0, 3, 0.11, 0.0)),
          "g_coeffs": ((1, 1, 0.4, 0.9), (-2, 0, 1.3, -0.6), (3, 2, -0.05, 0.25))},
     {"f_coeffs": ((0, 0, 0.5, 0.0),), "g_coeffs": ((2, -1, 0.5, -0.3),)},
     {"nu": 1e4}, {"eps": 0.0, "mu": 0.0}],
    ids=["default", "three-mode", "one-mode", "order-6", "free"],
)
def test_energy_and_vector_field_match_the_numpy_fourier_sums(tables):
    # the generated energy and field against the mode loop they replaced and
    # against numpy passes over the mode tables, bit for bit
    hs = HamiltonianSpec(**{"eps": 0.05, "mu": 0.004, **tables})
    rng = np.random.default_rng(8)
    states = [FlowState(*row) for row in rng.uniform(-4.0, 4.0, (200, 6))]
    states.append(FlowState(p=0.0, q=0.0, I=0.0, theta=0.0, J=0.0, phi=0.0))
    for st in states:
        energy, field = hamiltonian_energy(hs, st), ham_vector_field(hs, st)
        for fourier in (oracles.fourier_loop, oracles.fourier_numpy):
            assert energy == oracles.energy(hs, st, fourier)
            assert field.tobytes() == oracles.vector_field(hs, st, fourier).tobytes()


def test_step_validation_and_integrable_exactness():
    hs = HamiltonianSpec(eps=0.0, mu=0.0)
    st = FlowState(p=0.0, q=0.0, I=0.17, theta=1.0, J=0.05, phi=0.0)
    with pytest.raises(ContractError):
        symplectic_step(hs, st, 0.0)
    out = symplectic_step(hs, st, 1e-3)
    assert out.I == st.I and out.J == st.J and out.p == 0.0 and out.q == 0.0
    assert out.theta == st.theta + 1e-3 * st.I  # single exact drift
    assert out.phi == 1e-3


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_non_finite_step_is_contract_error(h):
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    with pytest.raises(ContractError):
        symplectic_step(hs, st, h)
    with pytest.raises(ContractError):
        integrate(hs, st, h, 3)
    with pytest.raises(ContractError):
        integrate_series(hs, st, h, n_blocks=2, stride=3)
    with pytest.raises(ContractError):
        poincare_map(hs, st, h=h)


@pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf, 2.5, -1, "3", None])
def test_bad_count_is_contract_error(count):
    # NaN and inf used to raise ValueError/OverflowError from int(), 2.5 or a
    # stride of 1.5 ran silently truncated, and a fractional audit count
    # raised TypeError from range()
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    with pytest.raises(ContractError, match="n_steps"):
        integrate(hs, st, 1e-3, count)
    with pytest.raises(ContractError, match="n_blocks"):
        integrate_series(hs, st, 1e-3, n_blocks=count, stride=1)
    with pytest.raises(ContractError, match="stride"):
        integrate_series(hs, st, 1e-3, n_blocks=2, stride=count)
    with pytest.raises(ContractError, match="returns"):
        hamiltonian_audits(hs, st, 4e-3, count, 3, fit_exponents=False)


def test_stride_below_one_and_integral_float_counts():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    with pytest.raises(ContractError, match="stride"):
        integrate_series(hs, st, 1e-3, n_blocks=2, stride=0)
    assert integrate(hs, st, 1e-3, 4.0) == integrate(hs, st, 1e-3, 4)
    assert np.array_equal(integrate_series(hs, st, 1e-3, 2.0, 3.0), integrate_series(hs, st, 1e-3, 2, 3))


def test_exponent_fit_at_eps_zero_is_refused_before_any_return(monkeypatch):
    # the fit divides by sqrt(eps); it used to raise a bare ZeroDivisionError
    # after every return had run
    monkeypatch.setattr(_kernels, "advance", lambda *a: pytest.fail("a return ran"))
    hs = HamiltonianSpec(eps=0.0, mu=0.0)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.0, J=0.0, phi=0.0)
    with pytest.raises(ContractError, match="fit_exponents"):
        hamiltonian_audits(hs, st, 4e-3, 1, 1)


def test_integrate_series_never_calls_advance(monkeypatch):
    # a tracer that wraps both kernel entry points would count every sampled
    # step twice if the sampled driver went through _kernels.advance
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    monkeypatch.setattr(_kernels, "advance", lambda *a: pytest.fail("integrate_series called advance"))
    rows = integrate_series(hs, st, 1e-3, n_blocks=5, stride=30)
    for i, row in enumerate(rows):
        assert row.tobytes() == oracles.advance_loop(st.as_array(), 1e-3, 30 * i, *oracles.loop_args(hs)).tobytes()


@pytest.mark.parametrize("returns, cyl_returns", [(0, 5), (3, 0), (-1, 5), (3, -2)])
def test_empty_audit_is_contract_error(returns, cyl_returns):
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    with pytest.raises(ContractError):
        hamiltonian_audits(hs, st, 4e-3, returns, cyl_returns, fit_exponents=False)


def test_cylinder_invariant_under_steps():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.0, q=0.0, I=0.3, theta=1.0, J=0.0, phi=0.0)
    arr = integrate(hs, st, 1e-3, 100).as_array()
    assert arr[0] == 0.0 and arr[1] == 0.0


def test_step_reversibility():
    # clock-decoupled coupling tables make the momentum flip an exact involution
    tables = ((1, 0, 1.0, 0.0),)
    hs = HamiltonianSpec(eps=0.01, mu=0.001, f_coeffs=tables, g_coeffs=tables)
    z0 = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    z1 = symplectic_step(hs, z0, 1e-3)
    flip = FlowState(p=-z1.p, q=z1.q, I=-z1.I, theta=z1.theta, J=-z1.J, phi=z1.phi)
    z2 = symplectic_step(hs, flip, 1e-3)
    back = np.array([-z2.p, z2.q, -z2.I, z2.theta, -z2.J])
    orig = np.array([z0.p, z0.q, z0.I, z0.theta, z0.J])
    assert np.max(np.abs(back - orig)) <= 1e-12


def test_negative_step_kernel_inverts_exactly():
    # the kick and drift pieces are each invertible; the kernel accepts a
    # negative h even though the public step guards it, giving the exact inverse
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    z0 = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0).as_array()
    fwd = _kernels.advance(z0, 1e-3, 1, *hs.kernel_args())
    rev = _kernels.advance(fwd, -1e-3, 1, *hs.kernel_args())
    assert np.max(np.abs(rev - z0)) <= 1e-13


def test_energy_drift_second_order():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    z0 = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    e0 = hamiltonian_energy(hs, z0)

    def drift(h):
        n = int(round(10 * TWO_PI / h))
        rows = integrate_series(hs, z0, h, n_blocks=100, stride=max(1, n // 100))
        return max(abs(hamiltonian_energy(hs, FlowState.from_array(r)) - e0)
                   for r in rows)

    assert 3.5 <= drift(1e-3) / drift(5e-4) <= 4.5


def test_integrate_series_consistent_with_integrate():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    rows = integrate_series(hs, st, 1e-3, n_blocks=4, stride=25)
    assert rows.shape == (5, 6)
    assert np.array_equal(rows[0], st.as_array())
    direct = _kernels.advance(st.as_array(), 1e-3, 100, *hs.kernel_args())
    assert np.array_equal(rows[-1], direct)


def test_poincare_section_contract():
    hs = HamiltonianSpec(eps=0.0, mu=0.0)
    off = FlowState(p=0.0, q=0.0, I=0.17, theta=1.0, J=0.0, phi=0.3)
    with pytest.raises(ContractError):
        poincare_map(hs, off)


def test_poincare_integrable_rotor():
    hs = HamiltonianSpec(eps=0.0, mu=0.0)
    st = FlowState(p=0.0, q=0.0, I=0.17, theta=1.0, J=0.0, phi=0.0)
    ret, drift = poincare_map(hs, st, h=1e-3)
    assert drift == 0.0
    assert ret.phi == 0.0
    assert ret.I == st.I
    # theta advances by exactly 2*pi*I over one return
    assert abs(ret.theta - rv.THETA_ADVANCE_017) <= 1e-11


def test_pendulum_local_coords():
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.1, q=0.0, I=0.0, theta=0.0, J=0.0, phi=0.0)
    s, u = pendulum_local_coords(hs, st)
    assert s == -0.5 and u == 0.5
    p, q = pendulum_local_inverse(hs, s, u)
    assert abs(p - 0.1) <= 1e-15 and abs(q) <= 1e-15
    # q is read as its signed representative
    st2 = FlowState(p=0.0, q=TWO_PI - 0.2, I=0.0, theta=0.0, J=0.0, phi=0.0)
    s2, u2 = pendulum_local_coords(hs, st2)
    assert np.isclose(s2 + u2, -0.2, atol=1e-15)
    with pytest.raises(ContractError):
        pendulum_local_coords(HamiltonianSpec(eps=0.0, mu=0.0), st)
