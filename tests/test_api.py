"""The public interface: every exported name has a user, and every count is
checked the same way at the API and in the CLI."""

import ast
import collections
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
    ContractError,
    DiskSpec,
    GraphPair,
    advance_mesh,
    annulus_experiment,
    cli,
    estimate_bounds,
    find_K,
    jacobian,
    make_default_disk,
    make_linear,
    make_twist_annulus,
    seed_mesh,
    straighten_inverse,
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


LINEAR = make_linear(0.5, 2.0)
DISK = make_default_disk(LINEAR)
TWIST = make_twist_annulus(0.05, 0.0, 1.0)
BUDGET = BoundSet(0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 1e-2)
SQUARE = GraphPair(G_s=lambda s, x: np.atleast_1d(s[0] ** 2), G_u=lambda u, x: np.atleast_1d(u[0] ** 2))

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
}


@pytest.mark.parametrize("entry", API_POSITIVES)
def test_a_nan_where_a_positive_number_belongs_is_refused(entry):
    # before: a report failing on NaN violations, a NaN slab, K = None, 100
    # sweeps ending in a DivergenceError, and a Jacobian of NaN differences
    with pytest.raises(ContractError, match="must be positive, got nan"):
        API_POSITIVES[entry](math.nan)


def test_a_nan_tolerance_in_a_validate_config_is_invalid_input(tmp_path, capsys):
    # json writes and reads NaN, so the tolerance reaches validate_conditions
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": "linear"}, "tol": math.nan}))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert not list(out.glob("*"))
    assert "invalid input: tol must be positive, got nan" in capsys.readouterr().err
