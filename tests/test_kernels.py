import dataclasses
import json
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from nhimlab import HamiltonianSpec, FlowState, ham_vector_field, hamiltonian_audits, hamiltonian_energy
from nhimlab import _kernels

import _flow_oracles as oracles


HS = HamiltonianSpec(eps=0.01, mu=0.001)
# sine terms and k2 != 0 in both tables, so every Fourier path is exercised
HS_SINE = HamiltonianSpec(
    eps=0.01,
    mu=0.001,
    f_coeffs=((1, 0, 1.0, 0.3), (1, 1, 0.2, -0.4), (0, 2, 0.1, 0.25)),
    g_coeffs=((0, 0, 1.0, 0.0), (1, -1, 0.3, 0.2), (2, 1, -0.1, 0.05)),
)
Z0 = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0).as_array()


def test_sampled_rows_match_repeated_advance():
    # integrate_series relies on this contract
    args = HS.kernel_args()
    rows = _kernels.advance_sampled(Z0, 1e-3, 6, 40, *args)
    state = Z0.copy()
    assert np.array_equal(rows[0], state)
    for i in range(1, 7):
        state = _kernels.advance(state, 1e-3, 40, *args)
        assert np.array_equal(rows[i], state)
    # stride 1: each row is a one-step call, yet row i must equal a single
    # i-step call (i = 0 included), so the half kicks between steps stay half
    ones = _kernels.advance_sampled(Z0, 1e-3, 40, 1, *args)
    for i in range(41):
        assert np.array_equal(ones[i], _kernels.advance(Z0, 1e-3, i, *args))


def test_python_scalars_match_array_scalars():
    # advance converts its arguments to Python scalars; the oracle
    # loop called directly on the numpy state and mode-table arrays is the
    # array path, and every operation must round the same on both
    for hs in (HS, HS_SINE):
        args = hs.kernel_args()
        for h in (1e-3, 2.5e-4, 0.3):
            for n in (0, 1, 137, 1000):
                z = Z0.copy()
                out = _kernels.advance(z, h, n, *args)
                assert isinstance(out, np.ndarray)
                assert out.dtype == np.float64 and out.shape == (6,)
                assert out.tobytes() == oracles.advance_loop(Z0, h, n, *oracles.loop_args(hs)).tobytes()
                assert z.tobytes() == Z0.tobytes()


SPECS = {
    "default": HS,
    "sine": HS_SINE,  # sine terms, negative modes and a (0, 0) mode
    "free": HamiltonianSpec(eps=0.0, mu=0.0),
    "one-mode": HamiltonianSpec(eps=0.02, mu=0.001, f_coeffs=((1, 0, 1.0, 0.0),), g_coeffs=((2, -1, 0.5, -0.3),)),
    "order-6": HamiltonianSpec(eps=0.01, mu=0.001, nu=1e4, g_coeffs=HS_SINE.g_coeffs),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generated_step_loop_matches_the_oracle_loop(name):
    hs = SPECS[name]
    assert name != "order-6" or hs.contact_order == 6
    rng = np.random.default_rng(29)
    for z in [Z0] + list(rng.uniform(-3.0, 3.0, (6, 6))):
        for h in (1e-3, -1e-3, 0.3):
            for n in (0, 1, 2, 1000):
                out = _kernels.advance(z, h, n, *hs.kernel_args())
                want = oracles.advance_loop([float(v) for v in z], h, n, *oracles.loop_args(hs, lists=True))
                assert out.tobytes() == want.tobytes()


# zero, signed-zero and unit coefficients, which the generated force drops or folds
FUZZ_COEFFS = (0.0, -0.0, 1.0, -1.0, 0.3, -0.7, 2.5)
FUZZ_TABLES = [
    ((0, 0, 0.3, -0.7), (1, 0, -0.0, 1.0)),  # a (0, 0) mode and a zero cos coefficient
    ((1, 0, 0.0, 0.0), (0, -1, -1.0, 2.5), (0, 0, 0.0, 1.0)),  # dead modes
    ((1, 0, 1.0, 0.0), (0, 1, 1.0, 0.0), (1, 0, -0.7, 0.3)),  # an argument twice in a table
]
# signed zeros: theta = -0.0 with q = 0 and I = 0 (as in the exponent fits), all +0.0, all -0.0
FUZZ_STATES = [(0.02, 0.0, 0.0, -0.0, 0.1, 0.0), (0.0,) * 6, (-0.0,) * 6, (0.0, -0.0, -0.0, 0.0, 0.0, -0.0)]
# a literal 0 or +-1 factor of a product, which the emitter must never write
DEAD_PRODUCT = re.compile(r"(?<![\w.])\(?-?[01](\.0)?\)? \*(?!\*)|(?<!\*)\* \(?-?[01](\.0)?\)?(?![\w.])")


def _fuzz_cases():
    rng = np.random.default_rng(3201)
    for i in range(300):
        tables = [
            tuple((int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), *map(float, rng.choice(FUZZ_COEFFS, 2)))
                  for _ in range(rng.integers(0, 5)))
            for _ in range(2)
        ]
        if i < 2 * len(FUZZ_TABLES):
            tables[i % 2] = FUZZ_TABLES[i // 2]
        # f and g share an argument in every case
        tables[0] += ((int(rng.integers(-3, 4)), 1, float(rng.choice(FUZZ_COEFFS)), 0.3),)
        tables[1] += (tables[0][-1][:2] + (2.5, -0.0),)
        order = int(rng.choice([2, 4, 6]))
        eps, mu = rng.uniform(0.0, 0.05, 2)
        states = [rng.uniform(-3.0, 3.0, 6).tolist(), FUZZ_STATES[i % len(FUZZ_STATES)]]
        yield (order, *tables), float(eps), float(mu), states


def test_generated_force_matches_the_oracles_bit_for_bit_on_fuzzed_tables(monkeypatch):
    monkeypatch.setattr(_kernels, "_BODIES", {})
    for key, eps, mu, states in _fuzz_cases():
        assert not DEAD_PRODUCT.search(_kernels._source(*key)), key
        hs = SimpleNamespace(eps=eps, mu=mu, contact_order=key[0], f_coeffs=key[1], g_coeffs=key[2])
        for z in states:
            st = SimpleNamespace(**dict(zip(("p", "q", "I", "theta", "J", "phi"), z)))
            energy = _kernels.energy(z, eps, mu, key)
            assert np.float64(energy).tobytes() == np.float64(oracles.energy(hs, st)).tobytes(), (key, z)
            field = np.array(_kernels.field(z, eps, mu, key))
            assert field.tobytes() == oracles.vector_field(hs, st).tobytes(), (key, z)
            for h in (2e-2, -2e-2):
                for n in (0, 1, 3):
                    want = oracles.advance_loop(z, h, n, *oracles.loop_args(hs, lists=True))
                    assert _kernels.advance(z, h, n, eps, mu, key).tobytes() == want.tobytes(), (key, z, h, n)


def test_default_step_loop_evaluates_each_distinct_argument_once():
    # the default tables read theta, phi and theta - phi, theta twice; cos(phi) is dead in
    # the force because f's (0, 1) mode has only a value, which the force does not read
    source = _kernels._source(*HS.kernel_args()[2])
    loop = source.split("for _ in range(n_steps):")[1].split("out = np.empty(6)")[0]
    calls = re.findall(r"\b(sin|cos)\(([^()]*)\)", loop)
    assert sorted(calls) == sorted([("sin", "q"), ("cos", "q"), ("sin", "th"), ("cos", "th"),
                                    ("sin", "ph"), ("sin", "th - ph"), ("cos", "th - ph")])
    for spec in SPECS.values():
        assert not DEAD_PRODUCT.search(_kernels._source(*spec.kernel_args()[2]))


def test_specs_with_one_order_and_table_share_one_body():
    twins = [HS, HamiltonianSpec(eps=0.03, mu=0.0), HamiltonianSpec(eps=0.01, mu=0.001, nu=60.0)]
    assert len({hs.kernel_args()[2] for hs in twins}) == 1
    bodies = [_kernels._body(hs.kernel_args()[2]) for hs in twins]
    assert all(body is bodies[0] for body in bodies)
    assert _kernels._body(HS_SINE.kernel_args()[2]) is not bodies[0]


@pytest.mark.parametrize("hs", [HS, HS_SINE], ids=["default", "sine"])
def test_a_second_audit_generates_nothing(monkeypatch, hs):
    monkeypatch.setattr(_kernels, "_BODIES", {})
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0)
    hamiltonian_audits(hs, st, 4e-3, 1, 1, fit_exponents=False)
    # the free-rotor spec the audits build has the spec's order and tables
    first = dict(_kernels._BODIES)
    assert list(first) == [hs.kernel_args()[2]]
    hamiltonian_audits(hs, st, 4e-3, 1, 1, fit_exponents=False)
    assert _kernels._BODIES == first
    assert all(_kernels._BODIES[key] is body for key, body in first.items())


def test_import_and_construction_generate_nothing():
    # a fresh interpreter, so no earlier test has filled the cache
    code = (
        "import builtins\n"
        "compiled = []\n"
        "real_compile = builtins.compile\n"
        "builtins.compile = lambda *a, **k: compiled.append(a[1]) or real_compile(*a, **k)\n"
        "import nhimlab\n"
        "from nhimlab import HamiltonianSpec, _kernels\n"
        "HamiltonianSpec(eps=0.01, mu=0.001)\n"
        "HamiltonianSpec(eps=0.0, mu=0.0, f_coeffs=((2, 1, 0.5, 0.25),))\n"
        "assert _kernels._BODIES == {}, _kernels._BODIES\n"
        "assert '<nhimlab flow body>' not in compiled, compiled\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)


def test_one_step_is_half_kick_drift_half_kick():
    hs = HS_SINE
    h = 1e-2
    rng = np.random.default_rng(5)

    def half_kick(z):
        dz = ham_vector_field(hs, FlowState.from_array(z))
        for k in (0, 2, 4):
            z[k] += 0.5 * h * dz[k]

    for _ in range(4):
        z0 = np.array([rng.uniform(-0.05, 0.05), rng.uniform(0.1, 6.0), rng.uniform(-0.05, 0.05),
                       rng.uniform(0.0, 6.0), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 6.0)])
        z = z0.copy()
        half_kick(z)
        z[1] += h * z[0]
        z[3] += h * z[2]
        z[5] += h
        half_kick(z)
        np.testing.assert_allclose(_kernels.advance(z0, h, 1, *hs.kernel_args()), z, rtol=1e-15, atol=1e-15)


def _rebuilt_fourier(coeffs, theta, phi):
    # the Fourier sum with its tables rebuilt from the coefficients on every
    # call, the way energies and fields were evaluated before the spec stored them
    arr = np.asarray(coeffs, dtype=float)
    k1, k2 = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
    c, s = np.ascontiguousarray(arr[:, 2]), np.ascontiguousarray(arr[:, 3])
    arg = k1 * theta + k2 * phi
    ca, sa = np.cos(arg), np.sin(arg)
    dmode = -c * sa + s * ca
    return float(np.sum(c * ca + s * sa)), float(np.sum(k1 * dmode)), float(np.sum(k2 * dmode))


@pytest.mark.parametrize("hs", [HS, HS_SINE, dataclasses.replace(HS_SINE, g_coeffs=HS.g_coeffs)])
def test_stored_fourier_tables_match_rebuilt(hs):
    assert hs.kernel_args() is hs.kernel_args()
    assert hs.kernel_args()[2] == (hs.contact_order, tuple(map(tuple, hs.f_coeffs)), tuple(map(tuple, hs.g_coeffs)))
    order = hs.contact_order
    rng = np.random.default_rng(11)
    for _ in range(20):
        st = FlowState.from_array(rng.uniform(-3.0, 3.0, 6))
        f, f_th, f_ph = _rebuilt_fourier(hs.f_coeffs, st.theta, st.phi)
        g, g_th, g_ph = _rebuilt_fourier(hs.g_coeffs, st.theta, st.phi)
        sq, cq = math.sin(st.q), math.cos(st.q)
        energy = (0.5 * st.p * st.p + 0.5 * st.I * st.I + st.J + hs.eps * (cq - 1.0)
                  + hs.eps * f + hs.mu * sq ** order * g)
        sq_pow = sq ** (order - 1)
        field = [hs.eps * sq - hs.mu * order * sq_pow * cq * g, st.p,
                 -hs.eps * f_th - hs.mu * sq_pow * sq * g_th, st.I,
                 -hs.eps * f_ph - hs.mu * sq_pow * sq * g_ph, 1.0]
        assert hamiltonian_energy(hs, st) == energy
        assert ham_vector_field(hs, st).tobytes() == np.array(field).tobytes()


def test_stored_tables_take_no_part_in_eq_hash_or_repr():
    twin = HamiltonianSpec(eps=0.01, mu=0.001)
    assert twin == HS and hash(twin) == hash(HS) and repr(twin) == repr(HS)
    assert "kernel_args" not in repr(HS)
    assert HS_SINE != HS


def test_backend_name():
    assert _kernels.backend_name() == "python"
