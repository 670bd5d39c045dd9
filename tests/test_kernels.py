import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nhimlab import HamiltonianSpec, FlowState, ham_vector_field, hamiltonian_energy
from nhimlab import _kernels


HS = HamiltonianSpec(eps=0.01, mu=0.001)
# sine terms and k2 != 0 in both tables, so every Fourier path is exercised
HS_SINE = HamiltonianSpec(
    eps=0.01,
    mu=0.001,
    f_coeffs=((1, 0, 1.0, 0.3), (1, 1, 0.2, -0.4), (0, 2, 0.1, 0.25)),
    g_coeffs=((0, 0, 1.0, 0.0), (1, -1, 0.3, 0.2), (2, 1, -0.1, 0.05)),
)
Z0 = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0).as_array()


def test_backends_bitwise_equal():
    pytest.importorskip("numba")
    args = HS.kernel_args()
    for h, n in ((1e-3, 1), (1e-3, 1000), (2.5e-4, 137)):
        a = _kernels.advance_python(Z0, h, n, *args)
        b = _kernels.advance_numba(Z0, h, n, *args)
        assert np.array_equal(a, b)


def test_sampled_backends_bitwise_equal():
    pytest.importorskip("numba")
    args = HS.kernel_args()
    a = _kernels.advance_sampled_python(Z0, 1e-3, 8, 50, *args)
    b = _kernels.advance_sampled_numba(Z0, 1e-3, 8, 50, *args)
    assert np.array_equal(a, b)
    assert a.shape == (9, 6)


def test_sampled_rows_match_repeated_advance():
    # integrate_series relies on this contract whichever backend is active,
    # so check it on every backend this interpreter has
    args = HS.kernel_args()
    pairs = [(_kernels.advance_sampled_python, _kernels.advance_python)]
    if _kernels.HAVE_NUMBA:
        pairs.append((_kernels.advance_sampled_numba, _kernels.advance_numba))
    for sampled, advance in pairs:
        rows = sampled(Z0, 1e-3, 6, 40, *args)
        state = Z0.copy()
        assert np.array_equal(rows[0], state)
        for i in range(1, 7):
            state = advance(state, 1e-3, 40, *args)
            assert np.array_equal(rows[i], state)
        # stride 1: each row is a one-step call, yet row i must equal a single
        # i-step call (i = 0 included), so the half kicks between steps stay half
        ones = sampled(Z0, 1e-3, 40, 1, *args)
        for i in range(41):
            assert np.array_equal(ones[i], advance(Z0, 1e-3, i, *args))


def test_python_scalars_match_array_scalars():
    # advance_python converts its arguments to Python scalars and lists; the
    # shared body called directly on the numpy state and kernel_args() arrays
    # is the array path, and every operation must round the same on both
    for hs in (HS, HS_SINE):
        args = hs.kernel_args()
        for h in (1e-3, 2.5e-4, 0.3):
            for n in (0, 1, 137, 1000):
                z = Z0.copy()
                out = _kernels.advance_python(z, h, n, *args)
                assert isinstance(out, np.ndarray)
                assert out.dtype == np.float64 and out.shape == (6,)
                assert out.tobytes() == _kernels._advance_impl(Z0, h, n, *args).tobytes()
                assert z.tobytes() == Z0.tobytes()


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
        np.testing.assert_allclose(_kernels.advance_python(z0, h, 1, *hs.kernel_args()), z, rtol=1e-15, atol=1e-15)


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
    assert all(not table.flags.writeable for table in hs.kernel_args()[3:])
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
    assert _kernels.backend_name() in ("numba", "python")


def test_env_flag_selects_python_backend():
    # flag is read at import time, so probe it in a fresh interpreter
    code = (
        "import numpy as np\n"
        "from nhimlab import HamiltonianSpec, FlowState\n"
        "from nhimlab import _kernels\n"
        "hs = HamiltonianSpec(eps=0.01, mu=0.001)\n"
        "z = FlowState(p=0.05, q=0.1, I=0.03, theta=0.7, J=0.2, phi=0.0).as_array()\n"
        "out = _kernels.advance(z, 1e-3, 500, *hs.kernel_args())\n"
        "print(_kernels.backend_name())\n"
        "print(repr(out.tolist()))\n"
    )
    env = dict(os.environ, NHIM_NUMBA="0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    name, payload = proc.stdout.strip().splitlines()
    assert name == "python"
    here = _kernels.advance(Z0, 1e-3, 500, *HS.kernel_args())
    assert np.array_equal(np.array(eval(payload)), here)
