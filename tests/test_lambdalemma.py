import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from nhimlab import (
    BoundSet,
    ContractError,
    DegenerateVectorError,
    DiskSpec,
    DominationReport,
    EmptyMeshError,
    EscapeError,
    JetState,
    ModelInconsistencyError,
    MeshOrbit,
    OutOfNeighborhoodError,
    advance_mesh,
    annulus_experiment,
    c1_distance,
    estimate_bounds,
    find_K,
    make_default_disk,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    seed_mesh,
    sn_contraction_bound,
    stable_restricted_step,
    step_jet,
    theoretical_inclination_bounds,
    verify_bound_domination,
)
from nhimlab import lambdalemma
from nhimlab.lambdalemma import _run_domination

TWO_PI = 2.0 * np.pi


def const_disk(level, u_half, mesh=5, m=1, x_box=None):
    return DiskSpec(
        sigma=lambda u, x: np.atleast_1d(level),
        u_box=((-u_half, u_half),),
        x_box=x_box if x_box is not None else ((0.0, TWO_PI),) * m,
        mesh_per_axis=mesh,
        dsigma=lambda u, x: (np.zeros((1, 1)), np.zeros((1, m))),
    )


def test_disk_spec_validation():
    with pytest.raises(ContractError):
        DiskSpec(sigma=lambda u, x: np.atleast_1d(0.1),
                 u_box=((0.01, 0.2),), x_box=((0.0, TWO_PI),), mesh_per_axis=5)
    with pytest.raises(ContractError):
        DiskSpec(sigma=lambda u, x: np.atleast_1d(0.1),
                 u_box=((-0.1, 0.1),), x_box=((0.0, TWO_PI),), mesh_per_axis=0)
    with pytest.raises(ContractError):
        DiskSpec(sigma=lambda u, x: np.atleast_1d(0.1),
                 u_box=((-0.1, 0.1),), x_box=((1.0, 1.0),), mesh_per_axis=5)


def test_seed_mesh_geometry():
    f = make_linear(0.5, 2.0)
    mo = seed_mesh(const_disk(0.3, 0.1), f)
    assert len(mo.jets) == 25
    assert mo.alive_count() == 25
    u_values = sorted({jet.p.u[0] for jet in mo.jets})
    assert 0.0 in u_values and len(u_values) == 5
    x_values = sorted({jet.p.x[0] for jet in mo.jets})
    # periodic axis: no duplicate node at the seam
    assert len(x_values) == 5 and x_values[0] == 0.0 and x_values[-1] < TWO_PI
    for jet in mo.jets:
        assert jet.p.s[0] == 0.3
        vu, vx = jet.frame
        assert (vu.v_s[0], vu.v_u[0], vu.v_x[0]) == (0.0, 1.0, 0.0)
        assert (vx.v_s[0], vx.v_u[0], vx.v_x[0]) == (0.0, 0.0, 1.0)


def test_seed_mesh_tilted_disk_c1():
    f = make_linear(0.5, 2.0)
    d = DiskSpec(
        sigma=lambda u, x: np.atleast_1d(0.3 + 0.1 * u[0]),
        u_box=((-0.05, 0.05),), x_box=((0.0, TWO_PI),), mesh_per_axis=5,
        dsigma=lambda u, x: (np.array([[0.1]]), np.array([[0.0]])),
    )
    mo = seed_mesh(d, f)
    dist = c1_distance(mo)
    assert dist.n == 0
    assert dist.c0 == 0.3 + 0.1 * 0.05
    assert dist.c1 == 0.1  # slope of the graph, carried by the u-frame vector
    assert dist.value == dist.c0


def test_seed_mesh_fd_frames_close_to_analytic():
    f = make_linear(0.5, 2.0)
    d_fd = DiskSpec(sigma=lambda u, x: np.atleast_1d(0.3 + 0.1 * u[0]),
                    u_box=((-0.05, 0.05),), x_box=((0.0, TWO_PI),), mesh_per_axis=3)
    mo = seed_mesh(d_fd, f)
    assert abs(c1_distance(mo).c1 - 0.1) <= 1e-9


def test_seed_mesh_refuses_a_non_finite_disk():
    # a NaN frame has no unstable part for the domination check to push, and
    # a NaN value no place in the ball: both are refused, never seeded
    f = make_poly(0.05)
    good = const_disk(0.2, 2e-3)
    with pytest.raises(OutOfNeighborhoodError):
        seed_mesh(dataclasses.replace(good, sigma=lambda u, x: np.atleast_1d(math.nan)), f)
    dsigmas = (
        lambda u, x: (np.full((1, 1), math.nan), np.zeros((1, 1))),
        lambda u, x: (np.zeros((1, 1)), np.full((1, 1), math.inf if x[0] > 3.0 else 0.0)),  # at some nodes only
    )
    bad_disks = [dataclasses.replace(good, dsigma=dsigma) for dsigma in dsigmas]
    for bad in bad_disks:
        with pytest.raises(ContractError, match="partials are not finite"):
            seed_mesh(bad, f)
    with pytest.raises(ContractError, match="partials are not finite"):
        verify_bound_domination(bad_disks[0], f, BoundSet(0.5, 0.05, 0.05, 0.0, 0.0, 0.5, 1e-2), n_max=3)


def test_advance_mesh_censoring():
    f = make_linear(0.5, 2.0)
    mo = seed_mesh(const_disk(0.3, 0.1), f)
    mo = advance_mesh(mo, f, steps=12)
    assert mo.n == 12
    # |u| = 0.1 doubles to 0.4 then leaves at the third step, 0.05 one later
    for i, jet in enumerate(seed_mesh(const_disk(0.3, 0.1), f).jets):
        u0 = abs(jet.p.u[0])
        if u0 > 0.075:
            assert mo.died_at[i] == 3
        elif u0 > 0.025:
            assert mo.died_at[i] == 4
        else:
            assert u0 == 0.0  # snapped node
            assert mo.died_at[i] == -1 and mo.alive[i]
            assert mo.jets[i].p.s[0] == 0.3 * 0.5 ** 12
            assert mo.jets[i].p.u[0] == 0.0
    assert mo.alive_count() == 5


def test_advance_mesh_raises_when_everything_escapes():
    f = make_linear(0.5, 2.0)
    mo = seed_mesh(const_disk(0.3, 0.1), f)
    # keep only one mortal node
    keep = next(i for i, j in enumerate(mo.jets) if j.p.u[0] == 0.1)
    solo = MeshOrbit(tags=(mo.tags[keep],), points=mo.points[keep : keep + 1],
                     frames=mo.frames[keep : keep + 1], died_at=(-1,), n=0,
                     dims=mo.dims, topo=mo.topo)
    with pytest.raises(EmptyMeshError):
        advance_mesh(solo, f, steps=5)


TWIST = make_twist_annulus(0.05, 0.0, 1.0)
# no dsigma: the seed frames of this disk come from finite differences
TILTED_FD = DiskSpec(sigma=lambda u, x: np.atleast_1d(0.3 + 0.1 * u[0] + 0.02 * np.sin(x[0])),
                     u_box=((-0.05, 0.05),), x_box=((0.0, TWO_PI),), mesh_per_axis=5)


@pytest.mark.parametrize(
    "f, d",
    [
        (make_poly(0.05), const_disk(0.2, 0.05)),
        (TWIST, make_default_disk(TWIST, n_target=4)),
        (make_poly(0.05), TILTED_FD),
    ],
    ids=["poly", "twist", "tilted-fd"],
)
def test_mesh_is_the_one_row_case(f, d):
    steps = 8
    mesh = advance_mesh(seed_mesh(d, f), f, steps=steps)
    assert 0 < mesh.alive_count() < len(mesh.alive)
    for i, jet in enumerate(seed_mesh(d, f).jets):
        died = -1
        for n in range(1, steps + 1):
            try:
                jet, _ = step_jet(f, jet, require_unstable=False)
            except EscapeError as err:
                jet, died = err.survivor, n
                break
        assert mesh.died_at[i] == died
        assert np.array_equal(mesh.points[i], jet.p.as_array())
        assert np.array_equal(mesh.frames[i], np.array([v.as_array() for v in jet.frame]))


def test_c1_distance_index_filter():
    f = make_linear(0.5, 2.0)
    mo = seed_mesh(const_disk(0.3, 0.1), f)
    mo = advance_mesh(mo, f, steps=4)
    dead = [i for i, a in enumerate(mo.alive) if not a]
    assert dead
    with pytest.raises(EmptyMeshError):
        c1_distance(mo, indices=dead[:1])
    alive = mo.alive_indices()
    assert c1_distance(mo, indices=alive).c0 == c1_distance(mo).c0


@pytest.mark.parametrize("bad", [[-1], [25], [1.5], np.array([True] + [False] * 24)],
                         ids=["negative", "past-the-end", "fractional", "mask"])
def test_c1_distance_refuses_an_index_that_is_not_a_node(bad):
    # a 25-node mesh: -1 would read node 24, 25 and 1.5 would raise bare numpy or list errors, and
    # a boolean mask would read its entries as nodes 1 and 0
    mo = seed_mesh(const_disk(0.3, 0.1), make_linear(0.5, 2.0))
    assert len(mo.tags) == 25
    with pytest.raises(ContractError, match="indices"):
        c1_distance(mo, indices=bad)


def test_find_K_linear():
    f = make_linear(0.5, 2.0)
    res = find_K(const_disk(0.3, 0.1), f, eps=1e-3, n_max=15)
    assert res.found and res.K == 9
    for c in res.series:
        assert c.c0 == 0.3 * 0.5 ** c.n
        assert c.c1 == 0.0
    assert res.alive_series[0] == 25
    assert res.final_orbit.n == 15


def test_find_K_immediate_for_flat_disk():
    f = make_linear(0.5, 2.0)
    res = find_K(const_disk(0.0, 0.1), f, eps=1e-3, n_max=10)
    assert res.K == 0


def test_find_K_immediate_for_loose_eps():
    f = make_linear(0.5, 2.0)
    res = find_K(const_disk(0.3, 0.1), f, eps=0.5, n_max=10)
    assert res.K == 0


def test_find_K_horizon_miss_is_none():
    f = make_linear(0.5, 2.0)
    res = find_K(const_disk(0.3, 0.1), f, eps=1e-9, n_max=3)
    assert res.K is None and not res.found
    with pytest.raises(ContractError):
        find_K(const_disk(0.3, 0.1), f, eps=0.0, n_max=3)


def test_find_K_result_serializes():
    f = make_linear(0.5, 2.0)
    res = find_K(const_disk(0.3, 0.1), f, eps=1e-3, n_max=12)
    d = res.to_dict()
    assert d["K"] == 9
    assert len(d["series"]) == 13
    assert {"n", "c0", "c1", "alive"} <= set(d["series"][0])


def test_poly_mesh_against_extended_precision_replay():
    c, s0, rho = 0.05, 0.2, 0.5
    f = make_poly(c)
    d = const_disk(s0, 1e-4)
    mo = seed_mesh(d, f)

    mp.mp.dps = 40
    cm = mp.mpf(c)
    u_nodes = [float(v) for v in np.linspace(-1e-4, 1e-4, 5)]

    # replay each distinct u node; x never enters the normal dynamics, and the
    # frame push is left unnormalized since the measured gaps are scale free
    death_by_u, series_by_u = {}, {}
    for u0 in u_nodes:
        s, u = mp.mpf(s0), mp.mpf(u0)
        vs, vu, vx = mp.mpf(0), mp.mpf(1), mp.mpf(0)
        died = -1
        rows = []
        for n in range(1, 14):
            nvs = (mp.mpf("0.5") + cm * u) * vs + cm * s * vu
            nvu = cm * u * vs + (2 + cm * s) * vu
            nvx = cm * u * vs + cm * s * vu + vx
            w = cm * s * u
            s, u = mp.mpf("0.5") * s + w, 2 * u + w
            vs, vu, vx = nvs, nvu, nvx
            if died == -1 and max(abs(s), abs(u)) >= mp.mpf(rho):
                died = n
            rows.append((s, max(abs(vs), abs(vx)) / abs(vu)))
        death_by_u[u0] = died
        series_by_u[u0] = rows

    expected_deaths = [death_by_u[jet.p.u[0]] for jet in mo.jets]
    assert all(v == -1 or v == 13 for v in expected_deaths)

    cur, prev = mo, None
    for n in range(1, 13):
        cur = advance_mesh(cur, f, steps=1)
        dist = c1_distance(cur)
        pool = [u0 for u0 in u_nodes if death_by_u[u0] == -1 or death_by_u[u0] > n]
        c0_mp = max(abs(series_by_u[u0][n - 1][0]) for u0 in pool)
        c1_mp = max(series_by_u[u0][n - 1][1] for u0 in pool)
        assert abs(dist.c0 - float(c0_mp)) <= 1e-10
        assert abs(dist.c1 - float(c1_mp)) <= 1e-10
        if prev is not None and n >= 3:
            assert dist.value <= prev + 1e-15
        prev = dist.value
    assert cur.alive_count() == 25

    final = advance_mesh(cur, f, steps=1)
    assert final.alive_count() == 15
    for i, jet in enumerate(mo.jets):
        assert final.died_at[i] == death_by_u[jet.p.u[0]]


def test_mesh_refinement_monotone():
    f = make_poly(0.05)
    coarse = advance_mesh(seed_mesh(const_disk(0.2, 1e-3, mesh=5), f), f, steps=4)
    fine = advance_mesh(seed_mesh(const_disk(0.2, 1e-3, mesh=9), f), f, steps=4)
    dc, df_ = c1_distance(coarse), c1_distance(fine)
    # u nodes nest (5 into 9) and the dynamics ignores x, so sups can only grow
    assert df_.c0 >= dc.c0 - 1e-15
    assert df_.c1 >= dc.c1 - 1e-15


def test_verify_bound_domination_poly():
    f = make_poly(0.05)
    b = estimate_bounds(f, grid_density=7, target_eps=1e-2)
    d = const_disk(0.2, 2e-3)
    rep = verify_bound_domination(d, f, b, n_max=12)
    assert rep.ok()
    assert rep.worst_margin() >= -1e-9
    assert rep.slice_rows and rep.persistence_rows
    payload = rep.to_dict()
    assert payload["worst_margin"] >= -1e-9
    assert payload["eps_s"] == b.eps_s


def test_verify_bound_domination_rejects_bad_budget():
    f = make_poly(0.05)
    bad = BoundSet(0.5, 0.6, 0.0, 0.0, 0.0, 0.5, 1e-2)
    with pytest.raises(ContractError):
        verify_bound_domination(const_disk(0.2, 2e-3), f, bad, n_max=5)


def test_empty_domination_report_is_not_a_pass():
    rep = DominationReport(slice_rows=(), persistence_rows=(), eps=1e-2, eps_s=0.0)
    assert not rep.ok()
    assert rep.to_dict()["worst_margin"] is None
    assert DominationReport(slice_rows=((1, 0.1, None, 0.2),), persistence_rows=(), eps=1e-2, eps_s=0.0).ok()


def test_a_nan_margin_is_never_a_pass():
    # Python's min drops a NaN that is not first; the report keeps it wherever it sits
    nan = float("nan")
    for slice_rows, persistence_rows in [
        (((1, nan, None, 0.2),), ()),
        (((1, 0.1, None, 0.2), (2, 0.1, nan, 0.2)), ()),
        (((1, 0.1, None, 0.2),), ((1, 0.005, nan),)),
    ]:
        rep = DominationReport(slice_rows=slice_rows, persistence_rows=persistence_rows, eps=0.01, eps_s=0.001)
        assert math.isnan(rep.worst_margin())
        assert not rep.ok()


def test_domination_detects_broken_base_coupling():
    # r_x = amp*s violates the structural conditions; a tilted disk feeds the
    # defect an x-inclination the closed-form bound says cannot exist
    f = make_defective("d", amp=0.2)
    b = estimate_bounds(f, grid_density=5)
    d = DiskSpec(
        sigma=lambda u, x: np.atleast_1d(0.3 + 0.1 * u[0]),
        u_box=((-0.05, 0.05),), x_box=((0.0, TWO_PI),), mesh_per_axis=5,
        dsigma=lambda u, x: (np.array([[0.1]]), np.array([[0.0]])),
    )
    rep = verify_bound_domination(d, f, b, n_max=8)
    assert not rep.ok()
    assert rep.worst_margin() <= -0.009


def test_annulus_experiment_twist():
    f = make_twist_annulus(0.05, 0.0, 1.0)
    d = make_default_disk(f, n_target=8, mesh_per_axis=5)
    rep = annulus_experiment(f, 0.0, 1.0, d, eps=1e-2, n_max=40)
    assert rep.full.K == 5
    assert [c.K_prime for c in rep.circles] == [5, 5]
    for track in rep.circles:
        for row in track.rows:
            assert row[3] == 0.0  # edge circles are invariant to the last bit
    # interior nodes never leave the band
    for i in rep.full.final_orbit.alive_indices():
        y = rep.full.final_orbit.jets[i].p.x[1]
        assert 0.0 - 1e-12 <= y <= 1.0 + 1e-12
    payload = rep.to_dict()
    assert len(payload["circles"]) == 2


def circle_row(mo, indices, y_value):
    """A boundary circle's (n, c0, c1, y_dev) row read with its own c1_distance, as the annulus once did."""
    dist = c1_distance(mo, indices=indices)
    ys = mo.points[[i for i in indices if mo.alive[i]], mo.dims.n_s + mo.dims.n_u + 1]
    return (mo.n, dist.c0, dist.c1, float(np.abs(ys - y_value).max()))


def test_the_annulus_reduction_is_the_per_circle_reads_bit_for_bit():
    # the benchmark's annulus disk: 5 nodes per axis, u half-width 0.5 * 0.5**8, n_max 40
    f = make_twist_annulus(0.05, 0.0, 1.0)
    d = make_default_disk(f, n_target=8, mesh_per_axis=5, sigma_level=0.2)
    rep = annulus_experiment(f, 0.0, 1.0, d, eps=1e-2, n_max=40)
    run = rep.full._run
    assert [mo.n for mo in run] == list(range(41))
    assert rep.full.alive_series[7:10] == (125, 75, 25)  # the off-slice nodes die at iterates 8 and 9
    for track in rep.circles:
        edge = [i for i, tag in enumerate(run[0].tags) if tag[1][1] == track.y_value]
        assert repr(track.rows) == repr(tuple(circle_row(mo, edge, track.y_value) for mo in run))
    assert repr(rep.full.series) == repr(tuple(c1_distance(mo) for mo in run))


def test_annulus_edge_matches_standalone_circle():
    f = make_twist_annulus(0.05, 0.0, 1.0)
    d = make_default_disk(f, n_target=8, mesh_per_axis=5)
    rep = annulus_experiment(f, 0.0, 1.0, d, eps=1e-2, n_max=40)
    # each edge circle is a rigid rotation; rerun it as a standalone model
    for track in rep.circles:
        omega = float((TWO_PI * track.y_value) % TWO_PI)
        lin = make_linear(0.5, 2.0, omega=omega)
        dlin = const_disk(0.3, d.u_box[0][1])
        solo = find_K(dlin, lin, eps=1e-2, n_max=40)
        assert abs(track.K_prime - solo.K) <= 1


def test_annulus_refuses_a_drifting_boundary_circle():
    # y = 0.9 is no invariant circle of this twist map: its nodes leave it at the first step
    f = make_twist_annulus(0.05, 0.0, 1.0)
    half = 0.5 * 0.5**8
    d = const_disk(0.2, half, m=2, x_box=((0.0, TWO_PI), (0.0, 0.9)))
    with pytest.raises(ModelInconsistencyError, match=r"^boundary circle y=0\.9 drifted by 0\.00428 at iterate 1$"):
        annulus_experiment(f, 0.0, 0.9, d, 1e-2, 40)


def test_annulus_requires_annulus_topology():
    f = make_poly(0.05)
    d = const_disk(0.2, 1e-3)
    with pytest.raises(ContractError):
        annulus_experiment(f, 0.0, 1.0, d, eps=1e-2, n_max=10)


def test_make_default_disk_geometry():
    f = make_twist_annulus(0.05, 0.0, 1.0)
    d = make_default_disk(f, n_target=8, mesh_per_axis=5)
    half = f.rho * f.lam ** 8
    assert np.isclose(d.u_box[0][1], half, rtol=1e-15)
    assert d.x_box == ((0.0, TWO_PI), (0.0, 1.0))
    assert d.sigma(np.zeros(1), np.zeros(2))[0] == 0.6 * f.rho
    with pytest.raises(ContractError):
        make_default_disk(f, sigma_level=f.rho)


def test_make_default_disk_refuses_a_sigma_level_that_is_not_finite():
    # a NaN level used to pass and surface later as an OutOfNeighborhoodError on a mesh point
    f = make_linear(0.5, 2.0)
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractError, match="sigma_level"):
            make_default_disk(f, sigma_level=level)


# a constant base map has a zero x block, which annihilates the (0, 0, 1) frame rows
FLAT_BASE = dataclasses.replace(make_linear(0.5, 2.0), g_map=lambda x: np.zeros(1), d_g=lambda x: np.zeros((1, 1)))
U_INTO_X = dataclasses.replace(
    make_linear(0.5, 2.0),
    r_map=lambda s, u, x: (np.zeros(1), np.zeros(1), 0.1 * u),
    d_r=lambda s, u, x: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]]),
)

# A_s = 1.5 breaks condition e) while the declared lam = 0.5 keeps the budget valid, so s grows on the slice
S_GROWING = dataclasses.replace(make_linear(0.5, 2.0), A_s=lambda x: np.array([[1.5]]))
# slice nodes at s0 = 0.006, 0.0046 and 0.0024 leave the ball at iterates 11, 12 and 14
WAVY_DISK = DiskSpec(
    sigma=lambda u, x: np.atleast_1d(0.004 + 0.002 * np.cos(x[0])),
    u_box=((-0.05, 0.05),), x_box=((0.0, TWO_PI),), mesh_per_axis=5,
    dsigma=lambda u, x: (np.zeros((1, 1)), np.atleast_2d(-0.002 * np.sin(x[0]))),
)


def _inclination(v):
    """(|v_s|/|v_u|, |v_x|/|v_u|, v_u != 0) of one tangent vector."""
    ns, nu, nx = v.block_norms()
    return (ns / nu, nx / nu, True) if nu > 0.0 else (math.inf, math.inf, False)


def per_node_domination(d, f, b, n_max):
    """verify_bound_domination's rows rebuilt one node at a time from the public
    jet steps, with the death iterate of every off-slice node."""
    eps, jets = b.target_eps, seed_mesh(d, f).jets
    on_slice = [i for i, j in enumerate(jets) if not j.p.u.any()]
    per_node = []
    for i in on_slice:
        vectors = tuple(v for v in jets[i].frame if _inclination(v)[2])
        if not vectors:
            continue
        jet = JetState(jets[i].p, vectors, 0)
        I0_s = max(_inclination(v)[0] for v in vectors)
        I0_x = max(_inclination(v)[1] for v in vectors)
        s0 = float(np.abs(jet.p.s).max())
        rows = []
        for n in range(1, n_max + 1):
            try:
                jet, rec = stable_restricted_step(f, jet)
            except EscapeError:
                break
            bd = theoretical_inclination_bounds(b, n, I0_x=I0_x, I0_s=I0_s, s0=s0)
            margin_s = None if bd.pre_asymptotic else bd.bound_s - rec.I_s
            rows.append((n, bd.bound_x - rec.I_x, margin_s, sn_contraction_bound(b, n, s0) - rec.s_norm))
        per_node.append(rows)
    slice_rows = []
    for rows in zip(*per_node):
        ms = [r[2] for r in rows if r[2] is not None]
        slice_rows.append((rows[0][0], min(r[1] for r in rows), min(ms) if ms else None, min(r[3] for r in rows)))

    def armed(jet):
        s_sup = float(np.abs(jet.p.s).max())
        return [has_u and s_sup <= b.eps_s and inc_s <= eps and inc_x <= eps
                for inc_s, inc_x, has_u in map(_inclination, jet.frame)]

    persistence_rows, deaths = [], []
    for jet in [j for i, j in enumerate(jets) if i not in on_slice]:
        was_armed, died = armed(jet), -1
        for n in range(1, n_max + 1):
            try:
                jet, _ = step_jet(f, jet, require_unstable=False)
            except EscapeError:
                died = n
                break
            for was, (inc_s, inc_x, has_u) in zip(was_armed, map(_inclination, jet.frame)):
                if was and has_u:
                    persistence_rows.append((n, eps - inc_x, eps - inc_s))
            was_armed = armed(jet)
        deaths.append(died)
    return tuple(slice_rows), tuple(persistence_rows), deaths


@pytest.mark.parametrize(
    "f, d, n_max",
    [
        (make_poly(0.05), const_disk(0.2, 2e-3), 12),
        (TWIST, make_default_disk(TWIST, n_target=4, sigma_level=0.05), 12),
        # u nodes at 0.025 and 0.05 leave the ball at different iterates
        (make_poly(0.05), const_disk(0.004, 0.05), 12),
        # r_x = 0.1 u feeds v_x from v_u: armed frame rows tilt past eps and disarm
        (U_INTO_X, const_disk(0.004, 0.05), 12),
        # slice nodes leave the ball at different iterates: the slice rows stop at the first escape
        (S_GROWING, WAVY_DISK, 14),
    ],
    ids=["poly", "twist", "mortal", "disarming", "escaping-slice"],
)
def test_domination_matches_per_node_reference(f, d, n_max):
    b = estimate_bounds(f, grid_density=5)
    rep = verify_bound_domination(d, f, b, n_max)
    slice_rows, persistence_rows, deaths = per_node_domination(d, f, b, n_max)
    assert slice_rows and persistence_rows
    assert rep.slice_rows == slice_rows
    assert rep.persistence_rows == persistence_rows
    assert len({n for n in deaths if n > 0}) >= 2  # off-slice nodes die at different iterates


@pytest.mark.parametrize(*test_domination_matches_per_node_reference.pytestmark[0].args,
                         **test_domination_matches_per_node_reference.pytestmark[0].kwargs)
def test_domination_on_a_find_K_run_is_the_standalone_domination_bit_for_bit(f, d, n_max):
    b = estimate_bounds(f, grid_density=5)
    try:
        found = find_K(d, f, eps=b.target_eps, n_max=n_max)
    except EmptyMeshError:
        # escaping-slice: its last node leaves at iterate 14, where find_K (and so a lambda run)
        # stops; one iterate less keeps every row, the slice rows stopping at the first escape
        assert repr(verify_bound_domination(d, f, b, n_max - 1)) == repr(verify_bound_domination(d, f, b, n_max))
        n_max -= 1
        found = find_K(d, f, eps=b.target_eps, n_max=n_max)
    rep = _run_domination(found, f, b)
    assert rep.slice_rows and rep.persistence_rows
    assert repr(rep) == repr(verify_bound_domination(d, f, b, n_max))


def test_domination_slice_rows_stop_at_the_first_slice_escape():
    rep = verify_bound_domination(WAVY_DISK, S_GROWING, estimate_bounds(S_GROWING, grid_density=5), n_max=14)
    assert [row[0] for row in rep.slice_rows] == list(range(1, 11))
    assert rep.persistence_rows


def test_find_K_raises_where_domination_runs_on():
    # every node of the escaping-slice case has left by iterate 14: find_K refuses the empty mesh,
    # while domination reports the slice rows up to the first slice escape and the persistence rows
    b = estimate_bounds(S_GROWING, grid_density=5)
    with pytest.raises(EmptyMeshError, match="every mesh node escaped by iterate 14"):
        find_K(WAVY_DISK, S_GROWING, eps=b.target_eps, n_max=14)
    rep = verify_bound_domination(WAVY_DISK, S_GROWING, b, n_max=14)
    assert (len(rep.slice_rows), len(rep.persistence_rows)) == (10, 44)


def test_domination_steps_no_slice_row_past_the_first_slice_escape(monkeypatch):
    # the first slice node leaves at iterate 11, the off-slice nodes by iterate 5: no restricted
    # step follows the first slice escape
    b = estimate_bounds(S_GROWING, grid_density=5)
    calls = []

    def step(f, Z, F, require_unstable, restricted):
        calls.append(restricted)
        return push(f, Z, F, require_unstable, restricted)

    push = lambdalemma._step
    monkeypatch.setattr(lambdalemma, "_step", step)
    verify_bound_domination(WAVY_DISK, S_GROWING, b, n_max=14)
    assert (calls.count(True), calls.count(False)) == (11, 5)


def test_domination_pushes_only_the_unstable_pointing_slice_rows():
    # the slice regime drops the annihilated x row before stepping; a one-node
    # disk has no off-slice nodes
    d, b = const_disk(0.3, 0.1, mesh=1), estimate_bounds(make_linear(0.5, 2.0), grid_density=5)
    rep = verify_bound_domination(d, FLAT_BASE, b, n_max=6)
    assert len(rep.slice_rows) == 6 and not rep.persistence_rows
    assert (rep.slice_rows, rep.persistence_rows) == per_node_domination(d, FLAT_BASE, b, 6)[:2]


def test_advance_mesh_keeps_its_errors():
    f = make_linear(0.5, 2.0)
    mo = seed_mesh(const_disk(0.3, 0.1), f)
    with pytest.raises(DegenerateVectorError, match="annihilated"):
        advance_mesh(mo, FLAT_BASE)
    points = mo.points.copy()
    points[3, 0] = 0.9
    with pytest.raises(OutOfNeighborhoodError) as err:
        advance_mesh(dataclasses.replace(mo, points=points), f)
    assert err.value.norm == 0.9 and err.value.rho == f.rho
    # a remainder shift in s pushes every node, the u = 0 one too, out in one step
    shifted = dataclasses.replace(f, r_map=lambda s, u, x: (np.ones(1), np.zeros(1), np.zeros(1)))
    with pytest.raises(EmptyMeshError):
        advance_mesh(mo, shifted)
