"""The public interface: every exported name has a user, and every count,
every positive real and every finite real is checked the same way at the API
and in the CLI."""

import ast
import collections
import dataclasses
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import nhimlab
from nhimlab import (
    BoundSet,
    ChartTopology,
    ContractError,
    Dimensions,
    DiskSpec,
    DivergenceError,
    FlowState,
    GraphPair,
    HamiltonianSpec,
    JetState,
    TangentVector,
    advance_mesh,
    annulus_experiment,
    cli,
    conjugate_map,
    conjugated_radius,
    contact_order,
    estimate_bounds,
    find_K,
    jacobian,
    make_default_disk,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
    pendulum_local_inverse,
    poincare_map,
    seed_mesh,
    straighten_inverse,
    symplectic_step,
    theoretical_inclination_bounds,
    validate_conditions,
    verify_bound_domination,
)

ROOT = Path(__file__).resolve().parents[1]

# exported names whose only user today is outside src/, perfbench/ and tools/
ROLES = {
    "stretch_lower_bound": "ROADMAP item 4: the growth floor of the certified K bound",
    "ham_vector_field": "ROADMAP item 5: the flow behind the Poincare return map",
    "integrate": "ROADMAP item 5: the flow behind the Poincare return map",
    "symplectic_step": "ROADMAP item 5: the flow behind the Poincare return map",
    "pendulum_local_inverse": "ROADMAP item 5: the saddle chart of the return map",
    "straighten_point": "test oracle: Phi in the conjugated remainder's bit-for-bit test",
    "unit_frame": "test oracle: builds the frames of the acceptance checks",
    "advance_mesh": "public mesh stepping, a thin call over the one run loop",
}


@functools.cache
def _modules():
    """Each module of src/nhimlab, parsed once: its path, its lines and its top-level statements."""
    out = []
    for path in sorted((ROOT / "src" / "nhimlab").glob("*.py")):
        text = path.read_text()
        out.append((path, text.splitlines(keepends=True), ast.parse(text).body))
    return out


def _definitions(body):
    """{name: statement} of the top-level defs and classes in a module's statements."""
    return {node.name: node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _without_definition(lines, body, name):
    """Module text less the top-level def or class of ``name``, decorators included."""
    node = _definitions(body).get(name)
    if node is None:
        return "".join(lines)
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "".join(lines[: start - 1] + lines[node.end_lineno :])


def _code_names(node):
    """The names that code in ``node`` reads or binds: variables, attributes and imported names,
    never the words of a docstring or a comment."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_has_a_user():
    modules = [(lines, body) for path, lines, body in _modules() if path.name != "__init__.py"]
    outside = "".join(p.read_text() for d in ("perfbench", "tools") for p in sorted((ROOT / d).glob("*.py")))
    assert set(ROLES) <= set(nhimlab.__all__)
    unused = []
    for name in nhimlab.__all__:
        word = re.compile(rf"\b{name}\b")
        if name in ROLES or word.search(outside) or any(word.search(_without_definition(*m, name)) for m in modules):
            continue
        unused.append(name)
    assert not unused, f"exported but used nowhere: {unused}"


def test_every_private_helper_has_a_caller():
    # a top-level _name def or class in src/nhimlab is referenced by code somewhere in the package
    # outside its own definition (a docstring's mention is no caller), so a loop that goes leaves no
    # helper of its own behind
    users = collections.defaultdict(set)  # name -> the top-level statements whose code names it
    for _, _, body in _modules():
        for node in body:
            for name in _code_names(node):
                users[name].add(node)
    unreferenced = [
        f"{path.name}:{name}"
        for path, _, body in _modules()
        for name, node in _definitions(body).items()
        if name.startswith("_") and not users[name] - {node}
    ]
    assert not unreferenced, f"private helpers with no caller: {unreferenced}"


def test_only_geometry_decides_what_a_positive_real_is():
    # the one rule lives in geometry._positive, next to _count and _finite; a guard written
    # out again in another module would carry its own answer for a bool, NaN or inf
    for rule in ("must be positive", "must be finite, got"):
        homes = [path.name for path, lines, _ in _modules() if rule in "".join(lines)]
        assert homes == ["geometry.py"], rule


def test_only_normalform_decides_whether_a_value_fits_its_block():
    # the one rule lives in normalform._fit; a shape test written out again in another module
    # would carry its own answer for a one-entry value, a value numpy broadcasts, a ragged value or a
    # missing block
    for rule in ("where its block has shape", "which a float block would store as NaN", "returns a value of length",
                 "is not a float array"):
        homes = [path.name for path, lines, _ in _modules() if rule in "".join(lines)]
        assert homes == ["normalform.py"], rule


GRAPH_AND_DISK_FIELDS = {"G_s", "G_u", "sigma", "dsigma"}


def _per_row_reads(tree):
    """The lines in ``tree`` that read a graph or disk field (or a field got by ``getattr``) as a stack
    through its ``rows``, or row by row: by ``map`` or by calling it in a loop or a comprehension."""
    def field(node):
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "getattr"
        return isinstance(node, ast.Attribute) and node.attr in GRAPH_AND_DISK_FIELDS

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "rows" and field(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map":
            lines.update(node.lineno for arg in node.args[:1] if field(arg))
        elif isinstance(node, (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            lines.update(sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Call) and field(sub.func))
    return sorted(lines)


def test_only_normalform_reads_a_graph_or_disk_row_by_row():
    # normalform._read is the one read of a graph or disk at a stack of rows: a stacked form in one
    # rows call, anything else once per row, fitted to the block the reader names; a read written out
    # again in another module would fit its values by a rule of its own, or not at all
    probe = ast.parse("d.sigma.rows(U, X)\n"
                      "getattr(gp, name).rows(Z, X)\n"
                      "list(map(gp.G_s, S, X))\n"
                      "[d.dsigma(u, x) for u, x in zip(U, X)]\n"
                      "for z in Z:\n    gp.G_u(z, x)\n")
    assert _per_row_reads(probe) == [1, 2, 3, 4, 6]
    reads = {path.name: _per_row_reads(ast.Module(body, [])) for path, _, body in _modules()}
    assert {name: lines for name, lines in reads.items() if lines and name != "normalform.py"} == {}


LINEAR = make_linear(0.5, 2.0)
DISK = make_default_disk(LINEAR)
TWIST = make_twist_annulus(0.05, 0.0, 1.0)
BUDGET = BoundSet(0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 1e-2)
SQUARE = GraphPair(G_s=lambda s, x: np.atleast_1d(s[0] ** 2), G_u=lambda u, x: np.atleast_1d(u[0] ** 2))
HAM = HamiltonianSpec(eps=0.01, mu=0.001)
ON_SECTION = FlowState(p=0.05, q=0.1, I=0.03, theta=0.0, J=0.0, phi=0.0)

API_COUNTS = {
    "DiskSpec.mesh_per_axis": lambda n: DiskSpec(
        sigma=lambda u, x: np.zeros(1), u_box=((-0.01, 0.01),), x_box=((0.0, 1.0),), mesh_per_axis=n
    ),
    "validate_conditions.sample_count": lambda n: validate_conditions(LINEAR, sample_count=n),
    "validate_conditions.seed": lambda n: validate_conditions(LINEAR, sample_count=8, seed=n),
    "estimate_bounds.grid_density": lambda n: estimate_bounds(LINEAR, grid_density=n),
    "find_K.n_max": lambda n: find_K(DISK, LINEAR, 1e-2, n),
    "verify_bound_domination.n_max": lambda n: verify_bound_domination(DISK, LINEAR, BUDGET, n),
    "annulus_experiment.n_max": lambda n: annulus_experiment(TWIST, 0.0, 1.0, make_default_disk(TWIST), 1e-2, n),
    "advance_mesh.steps": lambda n: advance_mesh(seed_mesh(DISK, LINEAR), LINEAR, n),
    "straighten_inverse.max_iter": lambda n: straighten_inverse(SQUARE, LINEAR.point([0.05], [0.15], [0.0]), max_iter=n),
    "make_default_disk.n_target": lambda n: make_default_disk(LINEAR, n_target=n),
    "Dimensions.n_s": lambda n: Dimensions(n, 1, 1),
    "JetState.n": lambda n: JetState(LINEAR.point([0.0], [0.1], [0.0]), (TangentVector([0.0], [1.0], [0.0]),), n),
    "theoretical_inclination_bounds.n": lambda n: theoretical_inclination_bounds(BUDGET, n, 0.1, 0.1, 0.1),
}

CLI_COUNTS = {
    "validate.samples": lambda n: ("validate", {"model": {"kind": "linear"}, "samples": n}),
    "validate.grid_density": lambda n: ("validate", {"model": {"kind": "linear"}, "grid_density": n}),
    "validate.seed": lambda n: ("validate", {"model": {"kind": "linear"}, "seed": n}),
    "lambda.n_max": lambda n: ("lambda", {"model": {"kind": "linear"}, "n_max": n}),
    "lambda.disk.mesh_per_axis": lambda n: ("lambda", {"model": {"kind": "linear"}, "disk": {"mesh_per_axis": n}}),
    "annulus.n_max": lambda n: ("annulus", {"model": {"kind": "twist", "y0": 0.2, "y1": 0.8}, "n_max": n}),
    "ham.returns": lambda n: ("ham", {"ham": {"returns": n, "fit_exponents": False}}),
    "ham.cyl_returns": lambda n: ("ham", {"ham": {"cyl_returns": n, "fit_exponents": False}}),
}


@pytest.mark.parametrize("count", [2.5, math.nan, -1, True])
@pytest.mark.parametrize("entry", [*API_COUNTS, *CLI_COUNTS])
def test_a_count_that_is_not_a_whole_number_is_refused(entry, count, tmp_path, capsys):
    # the API raises a ContractError naming the count, never a TypeError from
    # range or linspace; the CLI exits 2 (config error) naming the key and
    # writes nothing, never truncating 2.5 to 2
    key = entry.split(".")[-1]
    if entry in API_COUNTS:
        with pytest.raises(ContractError, match=key):
            API_COUNTS[entry](count)
        return
    command, cfg = CLI_COUNTS[entry](count)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["straighten_inverse.max_iter", "make_default_disk.n_target"])
def test_a_count_that_needs_one_refuses_zero(entry):
    # max_iter 0 used to end in a DivergenceError "in 0 iterations", and
    # n_target 0 put the disk's u edges on the ball's boundary
    with pytest.raises(ContractError, match=entry.split(".")[-1]):
        API_COUNTS[entry](0)


def test_a_negative_seed_flag_is_refused(tmp_path, capsys):
    # the flag is an int to argparse; its range is the count check's, an
    # invalid input (exit 2), never a numpy traceback (exit 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": "linear"}}))
    out = tmp_path / "out"
    argv = ["validate", "--config", str(path), "--out", str(out), "--seed", "-1", "--quiet"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_a_whole_float_count_is_its_int(tmp_path):
    mesh = DiskSpec(sigma=DISK.sigma, u_box=DISK.u_box, x_box=DISK.x_box, mesh_per_axis=5.0).mesh_per_axis
    assert type(mesh) is int and mesh == 5
    assert find_K(DISK, LINEAR, 1e-2, 3.0).to_dict() == find_K(DISK, LINEAR, 1e-2, 3).to_dict()
    assert validate_conditions(LINEAR, sample_count=4.0).to_dict() == validate_conditions(LINEAR, sample_count=4).to_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": "linear"}, "samples": 16.0, "grid_density": 3.0}))
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == cli.EXIT_OK


# a positive tolerance, threshold or step given as NaN: each used to pass a `<= 0` guard
API_POSITIVES = {
    "validate_conditions.tol": lambda v: validate_conditions(LINEAR, sample_count=8, tol=v),
    "estimate_bounds.target_eps": lambda v: estimate_bounds(LINEAR, grid_density=2, target_eps=v),
    "find_K.eps": lambda v: find_K(DISK, LINEAR, eps=v, n_max=3),
    "annulus_experiment.eps": lambda v: annulus_experiment(TWIST, 0.0, 1.0, make_default_disk(TWIST), v, 3),
    "straighten_inverse.tol": lambda v: straighten_inverse(SQUARE, LINEAR.point([0.05], [0.15], [0.0]), tol=v),
    "jacobian.h": lambda v: jacobian(LINEAR, LINEAR.point([0.05], [0.15], [0.0]), h=v),
    "symplectic_step.h": lambda v: symplectic_step(HAM, ON_SECTION, v),
    "poincare_map.h": lambda v: poincare_map(HAM, ON_SECTION, h=v),
}


@pytest.mark.parametrize("entry", API_POSITIVES)
def test_a_nan_where_a_positive_number_belongs_is_refused(entry):
    # before: a report failing on NaN violations, a NaN slab, K = None, 100
    # sweeps ending in a DivergenceError, and a Jacobian of NaN differences;
    # a bool read as 1.0, an infinite tolerance passed every check, and an int beyond
    # the float range raised an OverflowError
    name = entry.split(".")[-1]
    for rule, values in (("positive", (math.nan, True, np.True_, 0.0, -1.0)), ("positive and finite", (math.inf, 10**400))):
        for value in values:
            with pytest.raises(ContractError, match=re.escape(f"{name} must be {rule}, got {value!r}")):
                API_POSITIVES[entry](value)


# every other real parameter: a rate, rotation, coupling or twist of a built-in map, a
# Hamiltonian parameter, a flow state component, an end of a sampling box, a disk level
# and an annulus edge
API_FINITES = {
    "make_linear.lambda_s": lambda v: make_linear(v, 2.0),
    "make_linear.lambda_u": lambda v: make_linear(0.5, v),
    "make_linear.omega": lambda v: make_linear(0.5, 2.0, omega=v),
    "make_poly.c": lambda v: make_poly(v),
    "make_twist_annulus.eps_twist": lambda v: make_twist_annulus(v, 0.0, 1.0),
    "make_twist_annulus.y0": lambda v: make_twist_annulus(0.05, v, 1.0),
    "make_twist_annulus.y1": lambda v: make_twist_annulus(0.05, 0.0, v),
    "make_defective.amp": lambda v: make_defective("b", amp=v),
    "contact_order.nu": lambda v: contact_order(v, 1.0),
    "contact_order.sigma_param": lambda v: contact_order(55.0, v),
    "HamiltonianSpec.eps": lambda v: HamiltonianSpec(eps=v, mu=0.0),
    "HamiltonianSpec.mu": lambda v: HamiltonianSpec(eps=0.01, mu=v),
    **{
        f"FlowState.{label}": lambda v, label=label: dataclasses.replace(ON_SECTION, **{label: v})
        for label in ("p", "q", "I", "theta", "J", "phi")
    },
    "MapSpec.x_box": lambda v: dataclasses.replace(TWIST, x_box=((0.0, 1.0), (0.0, v))),
    "DiskSpec.u_box": lambda v: DiskSpec(sigma=DISK.sigma, u_box=((-0.01, v),), x_box=DISK.x_box, mesh_per_axis=5),
    "DiskSpec.x_box": lambda v: DiskSpec(sigma=DISK.sigma, u_box=DISK.u_box, x_box=((v, 1.0),), mesh_per_axis=5),
    "make_default_disk.sigma_level": lambda v: make_default_disk(LINEAR, sigma_level=v),
    "annulus_experiment.y0": lambda v: annulus_experiment(TWIST, v, 1.0, make_default_disk(TWIST), 1e-2, 3),
    "annulus_experiment.y1": lambda v: annulus_experiment(TWIST, 0.0, v, make_default_disk(TWIST), 1e-2, 3),
}


@pytest.mark.parametrize("entry", API_FINITES)
def test_a_real_parameter_that_is_not_finite_or_is_a_bool_is_refused(entry):
    # before: True read as 1.0 (a flow state's p, a Hamiltonian's eps, a disk level, an
    # annulus edge), an infinite lambda_u or box end accepted, NaN read by the coupling's budget,
    # and an int beyond the float range raised an OverflowError
    name = entry.split(".")[-1]
    for value in (math.nan, math.inf, -math.inf, True, np.True_, 10**400):
        with pytest.raises(ContractError, match=re.escape(f"{name} must be finite, got {value!r}")):
            API_FINITES[entry](value)


def test_an_infinite_sampling_box_is_refused():
    # find_K returned K = 5 over a mesh of NaN base points, and conditions a)-e) passed
    # on a map sampled over [0, inf)
    with pytest.raises(ContractError, match="x_box must be finite, got inf"):
        find_K(DiskSpec(sigma=DISK.sigma, u_box=DISK.u_box, x_box=((0.0, math.inf),), mesh_per_axis=5), LINEAR, 1e-2, 10)
    with pytest.raises(ContractError, match="x_box must be finite, got inf"):
        validate_conditions(dataclasses.replace(TWIST, x_box=((0.0, 1.0), (0.0, math.inf))), sample_count=8)


CLI_FINITES = {
    "lambda_u": ("validate", {"model": {"kind": "linear", "lambda_u": math.inf}}),
    "x_box": ("lambda", {"model": {"kind": "linear"}, "disk": {"x_box": [[0, math.inf]]}}),
}


@pytest.mark.parametrize("key", CLI_FINITES)
def test_an_infinite_real_in_a_config_is_a_config_error(key, tmp_path, capsys):
    # before: validate passed with lambda_u = inf, and lambda stopped on a NaN point naming no key
    command, cfg = CLI_FINITES[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert f"{key} must be finite, got inf" in capsys.readouterr().err


def test_a_nan_tolerance_in_a_validate_config_is_invalid_input(tmp_path, capsys):
    # json writes and reads NaN, so the tolerance reaches validate_conditions
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": "linear"}, "tol": math.nan}))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert "invalid input: tol must be positive, got nan" in capsys.readouterr().err


CLI_REALS = {
    "tol": ("validate", {"model": {"kind": "linear"}, "tol": True}),
    "eps": ("lambda", {"model": {"kind": "linear"}, "eps": True}),
    "h": ("ham", {"ham": {"h": True, "returns": 1, "cyl_returns": 1, "fit_exponents": False}}),
    "drift_tol": ("ham", {"ham": {"drift_tol": -1, "returns": 1, "cyl_returns": 1, "fit_exponents": False}}),
    "cyl_tol": ("ham", {"ham": {"cyl_tol": math.inf, "returns": 1, "cyl_returns": 1, "fit_exponents": False}}),
    "omega": ("validate", {"model": {"kind": "linear", "omega": True}}),
}


@pytest.mark.parametrize("key", CLI_REALS)
def test_a_real_config_key_that_is_a_bool_or_not_positive_is_a_config_error(key, tmp_path, capsys):
    # before: true read as 1.0 (tol, eps, h, omega), a drift tolerance of -1 failed
    # every run, and an infinite cylinder tolerance passed every run with exit 0
    command, cfg = CLI_REALS[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert f"config key {key!r}" in capsys.readouterr().err


MAP_RADII = {
    "make_linear": lambda rho: make_linear(0.5, 2.0, rho=rho),
    "conjugate_map": lambda rho: conjugate_map(LINEAR, SQUARE, radius=rho),
}


@pytest.mark.parametrize("rho", [1e999, -1e999, True, np.True_])
@pytest.mark.parametrize("entry", MAP_RADII)
def test_a_map_radius_that_is_infinite_or_a_bool_is_refused(entry, rho):
    # an infinite rho gave a budget of NaN constants that still reported lk1_ok and lk2_ok,
    # and a radius of True read as 1.0
    with pytest.raises(ContractError, match="rho"):
        MAP_RADII[entry](rho)


def test_an_infinite_radius_in_a_validate_config_is_invalid_input(tmp_path, capsys):
    # the payload used to hold the non-JSON literals NaN and Infinity, with exit 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": "linear", "rho": math.inf}}))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert "rho must be positive and finite, got inf" in capsys.readouterr().err


NAN_PAIR = GraphPair(G_s=lambda s, x: np.full(1, math.nan), G_u=lambda u, x: np.full(1, math.nan))

# refusals that no other test reaches: the call, the error it raises and its message
REFUSALS = {
    "seed_mesh.sigma": (
        lambda: seed_mesh(DiskSpec(sigma=lambda u, x: np.zeros(2), u_box=DISK.u_box, x_box=DISK.x_box,
                                   mesh_per_axis=3), LINEAR),
        ContractError, r"^sigma returns a value of shape \(2,\) where its block has shape \(1,\)$"),
    "seed_mesh.dsigma": (
        lambda: seed_mesh(DiskSpec(sigma=lambda u, x: np.zeros(1), u_box=DISK.u_box, x_box=DISK.x_box, mesh_per_axis=3,
                                   dsigma=lambda u, x: (np.zeros((1, 2)), np.zeros((1, 1)))), LINEAR),
        ContractError, r"^dsigma returns a value of shape \(1, 2\) where its block has shape \(1, 1\)$"),
    # a plain callable of several blocks that returns one float: tuple(value) raised a bare TypeError
    "MapSpec.r_map.blocks": (
        lambda: nhimlab.apply_map(dataclasses.replace(LINEAR, r_map=lambda s, u, x: 0.0), LINEAR.point([0.0], [0.1], [0.0])),
        ContractError, r"^r_map returns 0\.0, which holds none of its 3 blocks$"),
    "seed_mesh.dsigma.blocks": (
        lambda: seed_mesh(DiskSpec(sigma=lambda u, x: np.zeros(1), u_box=DISK.u_box, x_box=DISK.x_box, mesh_per_axis=3,
                                   dsigma=lambda u, x: 0.0), LINEAR),
        ContractError, r"^dsigma returns 0\.0, which holds none of its 2 blocks$"),
    "annulus_experiment.y0_y1": (
        lambda: annulus_experiment(TWIST, 1.0, 1.0, make_default_disk(TWIST), 1e-2, 3),
        ContractError, r"^need y0 < y1, got 1.0, 1.0$"),
    "annulus_experiment.edges": (
        lambda: annulus_experiment(TWIST, 0.0, 1.0, DiskSpec(sigma=lambda u, x: np.full(1, 0.1), u_box=((-0.01, 0.01),),
                                                             x_box=((0.0, 2.0 * np.pi), (0.1, 0.9)), mesh_per_axis=3),
                                   1e-2, 3),
        ContractError, r"^mesh does not sample the boundary circles; x_box must span \[y0, y1\] inclusively$"),
    "MapSpec.lam": (lambda: dataclasses.replace(LINEAR, lam=1.0), ContractError, r"^lambda must lie in \(0, 1\), got 1.0$"),
    "MapSpec.topo": (lambda: dataclasses.replace(LINEAR, topo=ChartTopology.angles(2)), ContractError,
                     r"^topology and dimensions disagree on m$"),
    "MapSpec.x_box": (lambda: dataclasses.replace(TWIST, x_box=((0.0, 1.0),)), ContractError,
                      r"^x_box must list one \(lo, hi\) range per manifold coordinate$"),
    "conjugated_radius": (lambda: conjugated_radius(LINEAR, NAN_PAIR), DivergenceError,
                          r"^straightening inverse fails on every probed ball radius$"),
    "make_defective.condition": (lambda: make_defective("c"), ContractError, r"^condition must be 'b' or 'd', got 'c'$"),
    "HamiltonianSpec.f_coeffs": (lambda: HamiltonianSpec(eps=0.01, mu=0.001, f_coeffs=((1, 0, 0.1),)), ContractError,
                                 r"^Fourier table rows must be \(k1, k2, cos_coeff, sin_coeff\)$"),
    "HamiltonianSpec.g_coeffs": (lambda: HamiltonianSpec(eps=0.01, mu=0.001, g_coeffs=((0.5, 1, 0.1, 0.0),)),
                                 ContractError, r"^Fourier mode numbers k1, k2 must be integers$"),
    "poincare_map.h": (lambda: poincare_map(HAM, ON_SECTION, h=7.0), ContractError,
                       r"^h must be at most 6.283185307179586, got 7.0$"),
    "pendulum_local_inverse.eps": (lambda: pendulum_local_inverse(HamiltonianSpec(eps=0.0, mu=0.0), 0.1, 0.1),
                                   ContractError, r"^local hyperbolic coordinates need eps > 0$"),
    "ChartTopology.canonicalize": (lambda: ChartTopology.angles(2).canonicalize([0.1]), ContractError,
                                   r"^expected 2 manifold coordinates, got 1$"),
    "JetState.frame": (lambda: JetState(LINEAR.point([0.0], [0.1], [0.0]), (), 0), ContractError,
                       r"^frame must contain at least one tangent vector$"),
    # a budget with lam > 1 and k < 0 read lk1_ok and lk2_ok as True, and the bounds ran on it
    "BoundSet.lam": (lambda: BoundSet(1.5, 0.0, 0.0, 0.0, 0.0, 0.5, 1e-2), ContractError,
                     r"^lam must lie in \(0, 1\), got 1.5$"),
    "BoundSet.k": (lambda: BoundSet(0.5, -1.0, 0.0, 0.0, 0.0, 0.5, 1e-2), ContractError,
                   r"^k must be nonnegative, got -1.0$"),
    "seed_mesh.boxes": (
        lambda: seed_mesh(DiskSpec(sigma=DISK.sigma, u_box=DISK.u_box * 2, x_box=DISK.x_box, mesh_per_axis=3), LINEAR),
        ContractError, r"^disk boxes \(2, 1\) do not match map dimensions \(1, 1\)$"),
    # numpy's bare ValueError "setting an array element with a sequence" named nothing
    "straighten_inverse.ragged": (
        lambda: straighten_inverse(GraphPair(G_s=lambda s, x: [[s[0], 0.0], [0.0]], G_u=lambda u, x: u ** 2),
                                   LINEAR.point([0.05], [0.15], [0.0])),
        ContractError, r"^G_s returns a value that is not a float array: setting an array element with a sequence"),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_a_refusal_names_what_it_refuses(entry):
    call, error, message = REFUSALS[entry]
    with pytest.raises(error, match=message):
        call()
