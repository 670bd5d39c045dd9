"""Acceptance harness: ten criteria, one printed pass/fail line each.

Capture is disabled for this module so the lines always reach the console.
Each criterion pins its tolerance and runtime budget; the shared runs (the
stable-slice sweep and the randomized model sweep) are computed once.
"""

import time

import dataclasses
import numpy as np
import pytest

from nhimlab import (
    ContractError,
    FlowState,
    GraphPair,
    HamiltonianSpec,
    JetState,
    TangentVector,
    annulus_experiment,
    check_constants,
    conjugate_map,
    estimate_bounds,
    find_K,
    hamiltonian_audits,
    jacobian,
    make_default_disk,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    sn_contraction_bound,
    stable_restricted_step,
    step_jet,
    theoretical_inclination_bounds,
    unit_frame,
    unstraighten_map,
    validate_conditions,
)
from nhimlab.lambdalemma import DiskSpec

TWO_PI = 2.0 * np.pi


def _report(capsys, tag, ok, detail):
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_ac01_linear_exact_decay(capsys):
    t0 = time.perf_counter()
    f = make_linear(0.5, 2.0)
    frame = unit_frame([TangentVector([1.0], [1.0], [1.0])])
    j = JetState(p=f.point([0.3], [0.0], [0.7]), frame=frame, n=0)
    worst = 0.0
    for n in range(1, 41):
        j, rec = step_jet(f, j)
        worst = max(worst,
                    abs(rec.I_x - 0.5 ** n) / 0.5 ** n,
                    abs(rec.I_s - 0.25 ** n) / 0.25 ** n)
    elapsed = time.perf_counter() - t0
    _report(capsys, "AC1 linear inclination decay",
            worst <= 1e-12 and elapsed < 1.0,
            f"rel err {worst:.3g}, {elapsed:.2f}s")


_SLICE_SWEEP = {}


def _slice_sweep():
    if _SLICE_SWEEP:
        return _SLICE_SWEEP
    t0 = time.perf_counter()
    f = make_poly(0.05)
    b = estimate_bounds(f, grid_density=7, target_eps=1e-2)
    rng = np.random.default_rng(7)
    margins_x, margins_s, margins_sn = [], [], []
    for s0 in np.linspace(-0.4, 0.4, 10):
        for x0 in np.linspace(0.0, 5.8, 10):
            a = rng.uniform(-1.0, 1.0)
            frame = unit_frame([TangentVector([a], [1.0], [0.0]),
                                TangentVector([0.0], [1.0], [0.0])])
            j = JetState(p=f.point([s0], [0.0], [x0]), frame=frame, n=0)
            I0_s, I0_x, s_abs = abs(a), 0.0, abs(s0)
            for n in range(1, 21):
                j, rec = stable_restricted_step(f, j)
                bd = theoretical_inclination_bounds(b, n, I0_x, I0_s, s_abs)
                margins_x.append(bd.bound_x - rec.I_x)
                if not bd.pre_asymptotic:
                    margins_s.append(bd.bound_s - rec.I_s)
                margins_sn.append(sn_contraction_bound(b, n, s_abs) - rec.s_norm)
    _SLICE_SWEEP.update(
        margins_x=margins_x, margins_s=margins_s, margins_sn=margins_sn,
        seeds=100, elapsed=time.perf_counter() - t0)
    return _SLICE_SWEEP


def test_ac02_slice_inclination_bounds(capsys):
    run = _slice_sweep()
    worst = min(min(run["margins_x"]), min(run["margins_s"]))
    viol = sum(1 for v in run["margins_x"] + run["margins_s"] if v < 0)
    _report(capsys, "AC2 closed-form inclination domination",
            viol == 0 and run["elapsed"] < 10.0,
            f"{run['seeds']} seeds, worst margin {worst:.3g}, {run['elapsed']:.2f}s")


def test_ac03_stable_component_contraction(capsys):
    run = _slice_sweep()
    worst = min(run["margins_sn"])
    viol = sum(1 for v in run["margins_sn"] if v < 0)
    _report(capsys, "AC3 stable-component contraction bound",
            viol == 0,
            f"{run['seeds']} seeds, worst margin {worst:.3g}")


_MODEL_SWEEP = {}


def _model_sweep():
    if _MODEL_SWEEP:
        return _MODEL_SWEEP
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    eps = 1e-2
    persist, stretch = [], []
    accepted = 0
    while accepted < 20:
        c = rng.uniform(0.0, 0.25)
        ls = rng.uniform(0.3, 0.7)
        lu = rng.uniform(1.6, 3.0)
        rho = rng.uniform(0.2, 0.6)
        try:
            f = make_poly(c, lambda_s=ls, lambda_u=lu, rho=rho)
        except ContractError:
            continue
        b = estimate_bounds(f, grid_density=5, target_eps=eps)
        if b.eps_s <= 0 or not all(chk.holds for chk in check_constants(b)):
            continue
        accepted += 1
        floor = 1.0 / b.lam - 2.0 * b.k
        u0 = rho * 0.9 * lu ** -31
        s0 = min(b.eps_s * 0.9, rho * 0.5)
        frame = unit_frame([TangentVector([eps / 2], [1.0], [eps / 2])])
        j = JetState(p=f.point([s0], [u0], [1.0]), frame=frame, n=0)
        for n in range(1, 31):
            j, rec = step_jet(f, j)
            persist.append(eps - max(rec.I_s, rec.I_x))
            stretch.append(rec.stretch - floor)
    _MODEL_SWEEP.update(persist=persist, stretch=stretch,
                        models=accepted, elapsed=time.perf_counter() - t0)
    return _MODEL_SWEEP


def test_ac04_randomized_persistence(capsys):
    run = _model_sweep()
    viol = sum(1 for v in run["persist"] if v < 0)
    _report(capsys, "AC4 thin-slab persistence on randomized models",
            viol == 0,
            f"{run['models']} models, worst slack {min(run['persist']):.3g}, "
            f"{run['elapsed']:.2f}s")


def test_ac05_unstable_growth_floor(capsys):
    run = _model_sweep()
    viol = sum(1 for v in run["stretch"] if v < -1e-9)
    _report(capsys, "AC5 per-step unstable growth floor",
            viol == 0,
            f"worst margin {min(run['stretch']):.3g}")


def test_ac06_find_K_poly_disk(capsys):
    t0 = time.perf_counter()
    f = make_poly(0.05)
    d = DiskSpec(
        sigma=lambda u, x: np.atleast_1d(0.2),
        u_box=((-0.002, 0.002),),
        x_box=((0.0, TWO_PI),),
        mesh_per_axis=21,
        dsigma=lambda u, x: (np.zeros((1, 1)), np.zeros((1, 1))),
    )
    res = find_K(d, f, eps=1e-2, n_max=25)
    monotone = all(res.series[n].value <= res.series[n - 1].value + 1e-15
                   for n in range(3, len(res.series)))
    elapsed = time.perf_counter() - t0
    _report(capsys, "AC6 convergence iterate on a 21x21 mesh",
            res.found and res.K <= 25 and monotone and elapsed < 30.0,
            f"K={res.K}, monotone tail, {elapsed:.2f}s")


def test_ac07_annulus_experiment(capsys):
    t0 = time.perf_counter()
    f = make_twist_annulus(0.05, 0.0, 1.0)
    d = make_default_disk(f, n_target=8, mesh_per_axis=5)
    rep = annulus_experiment(f, 0.0, 1.0, d, eps=1e-2, n_max=40)
    ydev = max(row[3] for ct in rep.circles for row in ct.rows)
    kp = [ct.K_prime for ct in rep.circles]
    elapsed = time.perf_counter() - t0
    _report(capsys, "AC7 annulus with invariant edge circles",
            rep.full.K is not None and all(v is not None for v in kp)
            and ydev <= 1e-10 and elapsed < 60.0,
            f"K={rep.full.K}, K'={kp}, ydev={ydev:.3g}, {elapsed:.2f}s")


def test_ac08_straightening_round_trip(capsys):
    t0 = time.perf_counter()
    f = make_linear(0.5, 2.0, rho=0.3)
    gp = GraphPair(
        G_s=lambda s, x: np.atleast_1d(s[0] ** 2),
        G_u=lambda u, x: np.atleast_1d(u[0] ** 2),
    )
    straight = conjugate_map(unstraighten_map(f, gp), gp)
    report = validate_conditions(straight, sample_count=1000, tol=1e-8)
    vb = report.check("b").max_violation
    vc = report.check("c").max_violation
    elapsed = time.perf_counter() - t0
    _report(capsys, "AC8 conjugated map keeps the slices straight",
            vb <= 1e-8 and vc <= 1e-8,
            f"b={vb:.3g}, c={vc:.3g} on 1000 samples, {elapsed:.2f}s")


def test_ac09_hamiltonian_audits(capsys):
    t0 = time.perf_counter()
    hs = HamiltonianSpec(eps=0.01, mu=0.001)
    st = FlowState(p=0.05, q=0.1, I=0.03, theta=0.0, J=0.0, phi=0.0)
    res, _ = hamiltonian_audits(hs, st, h=1e-3, returns=10, cyl_returns=100)
    drift = res["energy_drift_max"]
    residual = res["cylinder_residual"]
    theta_err = res["integrable_theta_error"]
    u_err = res["exponents"]["unstable_rel_err"]
    s_err = res["exponents"]["stable_rel_err"]

    elapsed = time.perf_counter() - t0
    ok = (drift <= 1e-8 and residual <= 1e-12 and theta_err <= 1e-10
          and u_err <= 0.05 and s_err <= 0.05 and elapsed < 60.0)
    _report(capsys, "AC9 pendulum-rotor integrator audits", ok,
            f"drift={drift:.3g}, cyl={residual:.3g}, theta_err={theta_err:.3g}, "
            f"exp_err=({u_err:.2g},{s_err:.2g}), {elapsed:.2f}s")


def test_ac10_jacobian_convergence_across_zoo(capsys):
    zoo = [
        ("linear", make_linear(0.5, 2.0, omega=0.3), ([0.2], [0.1], [1.3])),
        ("poly", make_poly(0.05), ([0.2], [0.1], [1.3])),
        ("twist", make_twist_annulus(0.05, 0.0, 1.0), ([0.2], [0.1], [1.3, 0.4])),
        ("defective_b", make_defective("b"), ([0.2], [0.1], [1.3])),
        ("defective_d", make_defective("d"), ([0.2], [0.1], [1.3])),
    ]
    details, ok = [], True
    for name, f, coords in zoo:
        p = f.point(*coords)
        exact = jacobian(f, p)
        g = dataclasses.replace(f, d_r=None, d2_r=None, d_A_s=None,
                                d_A_u=None, d_g=None, d2_g=None)
        e1 = np.max(np.abs(jacobian(g, p, h=1e-3) - exact))
        e2 = np.max(np.abs(jacobian(g, p, h=5e-4) - exact))
        if e1 <= 1e-9 and e2 <= 1e-9:
            details.append(f"{name}: exact ({e1:.1g})")  # zero truncation term
        elif 3.0 <= e1 / e2 <= 5.0:
            details.append(f"{name}: ratio {e1 / e2:.2f}")
        else:
            details.append(f"{name}: ratio {e1 / e2:.2f} OUT OF RANGE")
            ok = False
    _report(capsys, "AC10 finite-difference jacobian convergence", ok, "; ".join(details))
