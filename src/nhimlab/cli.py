"""Command-line front end.

Subcommands: ``validate`` (structural conditions + constant budget),
``lambda`` (disk iteration experiment), ``annulus`` (boundary-tracking
variant), ``ham`` (Hamiltonian audits).  All runs are configured by a single
JSON document, write a JSON summary that echoes the resolved config, and are
bit-deterministic for a fixed config and seed; wall-clock time appears only
in output file names.

Exit codes: 0 success, 1 property failure, 2 config error, 3 horizon
exhausted, 4 model inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, ContractError, ModelInconsistencyError
from .geometry import _count, _positive
from .lambdalemma import (
    DiskSpec,
    _affine_disk,
    _run_domination,
    annulus_experiment,
    find_K,
    make_default_disk,
)
from .models import (
    FlowState,
    HamiltonianSpec,
    hamiltonian_audits,
    make_defective,
    make_linear,
    make_poly,
    make_twist_annulus,
)
from .normalform import check_constants, estimate_bounds, validate_conditions

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_HORIZON = 3
EXIT_INCONSISTENT = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return _known(cfg, "the config root")


# the keys some subcommand reads, per config object; a model's keys are its factory's parameters
KEYS = {
    "the config root": ("model", "samples", "tol", "grid_density", "target_eps", "eps", "n_max", "disk", "ham",
                        "seed", "out"),
    "disk": ("mesh_per_axis", "sigma_const", "sigma_u_coeffs", "sigma_x_coeffs", "u_half", "u_box", "x_box"),
    "ham": ("eps", "mu", "nu", "sigma_param", "h", "returns", "cyl_returns", "drift_tol", "cyl_tol", "fit_rel_tol",
            "fit_exponents", "seed_state"),
    "seed_state": ("p", "q", "I", "theta", "J"),
}


def _known(cfg: dict, where: str) -> dict:
    """``cfg``, the config object ``where``; a key that no subcommand reads there is a config error
    naming it, so a misspelt key never runs on a default."""
    unknown = [key for key in cfg if key not in KEYS[where]]
    if unknown:
        raise ConfigError(f"config key {unknown[0]!r} in {where} is read by no subcommand")
    return cfg


def _field(cfg: dict, key: str, default, convert=float):
    """Config field ``key`` (or ``default``) passed through ``convert``; a JSON boolean,
    which ``float`` reads as 1.0, or a value that does not convert is a config error
    naming the key, not a number or a traceback."""
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"config key {key!r} has an invalid value {value!r}: {err}") from err


def _count_field(cfg: dict, key: str, default: int) -> int:
    """``_field`` for a count: a value that is not a whole number is a config
    error, never truncated."""
    return _field(cfg, key, default, lambda value: _count(value, key))


def _positive_field(cfg: dict, key: str, default: float) -> float:
    """``_field`` for a real that ``_positive`` accepts: a tolerance the CLI reads itself."""
    return _field(cfg, key, default, lambda value: _positive(float(value), key))


def _section(cfg: dict, key: str, default=None):
    """Config section ``key`` (``default`` when absent or null); a section
    that is not a JSON object is a config error naming the key, and so is a
    key in it that no subcommand reads (``_known``), except in ``model``,
    whose keys its factory checks."""
    value = cfg.get(key)
    if value is None:
        return default
    if not isinstance(value, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object, got {value!r}")
    return value if key == "model" else _known(value, key)


def _resolve_out(args, cfg: dict) -> Path:
    out = args.out or cfg.get("out") or os.environ.get("NHIM_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report(out_dir: Path, experiment: str, model: str, cfg: dict, seed: int, payload: dict,
            csv_header=None, csv_rows=()) -> tuple:
    """Write ``payload`` in the experiment/config/seed envelope as
    ``<stem>.json``, and ``csv_rows`` under ``csv_header`` as ``<stem>.csv``
    when a header is given; returns (json_path, csv_path or None).

    The stem is experiment, model, start second, and a short hash of the
    resolved config and seed, so runs started in the same second with
    different inputs do not overwrite each other."""
    key = json.dumps({"config": cfg, "seed": seed}, sort_keys=True).encode("utf-8")
    base = f"{experiment}_{model}_{time.strftime('%Y%m%dT%H%M%S')}_{hashlib.sha256(key).hexdigest()[:8]}"
    csv_path = None
    if csv_header is not None:
        csv_path = out_dir / f"{base}.csv"
        _write_csv(csv_path, csv_header, csv_rows)
    json_path = out_dir / f"{base}.json"
    _write_json(json_path, {"experiment": experiment, "config": cfg, "seed": seed, **payload})
    return json_path, csv_path


# kind -> (factory, defaults the CLI adds); the factory's parameters are the
# model's config keys, and every other default is the factory's own
MODELS = {
    "linear": (make_linear, {}),
    "poly": (make_poly, {"c": 0.05}),
    "twist": (make_twist_annulus, {"eps_twist": 0.05}),
    "defective": (make_defective, {}),
}


def build_model(mc: dict):
    if "kind" not in mc:
        raise ConfigError("config needs a model object with a 'kind' field")
    kind = mc["kind"]
    if not isinstance(kind, str) or kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    factory, defaults = MODELS[kind]
    params = {**defaults, **{key: _field(mc, key, None, lambda value: value) for key in mc if key != "kind"}}
    try:
        return factory(**params)
    except (ContractError, TypeError, ValueError) as err:
        raise ConfigError(f"invalid parameters for model {kind!r}: {err}") from err


def build_disk(dc: dict, f) -> DiskSpec:
    """Disk from config: constant or affine graphs only (JSON cannot carry code),
    given as stacked row forms, one matrix-vector product per row."""
    if dc is None:
        return make_default_disk(f)
    mesh = _count_field(dc, "mesh_per_axis", 5)
    n_s, n_u, m = f.dims.n_s, f.dims.n_u, f.dims.m
    const = np.full(n_s, _field(dc, "sigma_const", 0.6 * f.rho))
    u_coeffs = _field(dc, "sigma_u_coeffs", np.zeros((n_s, n_u)),
                       lambda v: np.asarray(v, dtype=float).reshape(n_s, n_u))
    x_coeffs = _field(dc, "sigma_x_coeffs", np.zeros((n_s, m)),
                       lambda v: np.asarray(v, dtype=float).reshape(n_s, m))
    if "u_half" in dc:
        half = _field(dc, "u_half", None)
        u_box = tuple((-half, half) for _ in range(n_u))
    else:
        u_box = dc.get("u_box", [(-0.05, 0.05)] * n_u)
    x_box = dc.get("x_box", f.x_ranges())
    try:
        u_box = tuple(tuple(b) for b in u_box)
        x_box = tuple(tuple(b) for b in x_box)
        return _affine_disk(const, u_box, x_box, mesh, (u_coeffs, x_coeffs))
    except (ContractError, TypeError, ValueError) as err:
        raise ConfigError(f"invalid disk config: {err}") from err


def cmd_validate(cfg: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    f = build_model(_section(cfg, "model", {}))
    samples = _count_field(cfg, "samples", 256)
    tol = _field(cfg, "tol", 1e-10)
    report = validate_conditions(f, sample_count=samples, tol=tol, seed=seed)
    bounds = estimate_bounds(
        f,
        grid_density=_count_field(cfg, "grid_density", 7),
        target_eps=_field(cfg, "target_eps", 1e-2),
    )
    constants = check_constants(bounds)
    payload = {
        "conditions": report.to_dict(),
        "bounds": bounds.to_dict(),
        "constants": [c.to_dict() for c in constants],
    }
    json_path, _ = _report(out_dir, "validate", f.name, cfg, seed, payload)
    ok = report.passed and all(c.holds for c in constants)
    if not quiet:
        status = "pass" if ok else "FAIL"
        print(f"validate[{f.name}]: {status} (report: {json_path})")
        if not report.passed:
            for chk in report.checks:
                if not chk.passed:
                    print(f"  condition {chk.name}: violation {chk.max_violation:.3g}")
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_lambda(cfg: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    f = build_model(_section(cfg, "model", {}))
    samples = _count_field(cfg, "samples", 128)
    eps = _field(cfg, "eps", 1e-2)
    n_max = _count_field(cfg, "n_max", 30)
    grid_density = _count_field(cfg, "grid_density", 7)
    disk = build_disk(_section(cfg, "disk"), f)
    report = validate_conditions(f, sample_count=samples, seed=seed)
    if not report.passed:
        if not quiet:
            print(f"lambda[{f.name}]: model fails structural validation", file=sys.stderr)
        return EXIT_PROPERTY
    bounds = estimate_bounds(f, grid_density=grid_density, target_eps=eps)
    result = find_K(disk, f, eps=eps, n_max=n_max)
    domination = _run_domination(result, f, bounds)  # the off-slice nodes of find_K's run, not pushed again
    payload = {
        "eps": eps,
        "n_max": n_max,
        "bounds": bounds.to_dict(),
        "domination": domination.to_dict(),
        **result.to_dict(),
    }
    rows = (
        f"{c.n},{_fmt(c.c0)},{_fmt(c.c1)},{_fmt(c.value)},{alive}"
        for c, alive in zip(result.series, result.alive_series)
    )
    json_path, csv_path = _report(out_dir, "lambda", f.name, cfg, seed, payload, "n,c0,c1,value,alive", rows)
    if not quiet:
        print(f"lambda[{f.name}]: K={result.K} worst_margin={domination.worst_margin():.3g}")
        print(f"  wrote {json_path} and {csv_path}")
    if result.K is None:
        return EXIT_HORIZON
    return EXIT_OK if domination.ok() else EXIT_PROPERTY


def cmd_annulus(cfg: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    mc = _section(cfg, "model", {})
    if mc.get("kind", "twist") != "twist":
        raise ConfigError("annulus experiment needs a twist model")
    mc.setdefault("kind", "twist")
    f = build_model(mc)
    y0, y1 = _field(mc, "y0", None), _field(mc, "y1", None)
    eps = _field(cfg, "eps", 1e-2)
    n_max = _count_field(cfg, "n_max", 40)
    disk = build_disk(_section(cfg, "disk"), f)
    report = annulus_experiment(f, y0, y1, disk, eps=eps, n_max=n_max)
    rows = (
        f"{c.n},{_fmt(c.c0)},{_fmt(c.c1)},{alive},"
        + ",".join(_fmt(ct.rows[c.n][j]) for ct in report.circles for j in (1, 2, 3))
        for c, alive in zip(report.full.series, report.full.alive_series)
    )
    json_path, csv_path = _report(
        out_dir, "annulus", f.name, cfg, seed, {"eps": eps, "n_max": n_max, **report.to_dict()},
        "n,c0,c1,alive,edge0_c0,edge0_c1,edge0_ydev,edge1_c0,edge1_c1,edge1_ydev", rows,
    )
    k_primes = [ct.K_prime for ct in report.circles]
    if not quiet:
        print(f"annulus[{f.name}]: K={report.full.K} K'={k_primes}")
        print(f"  wrote {json_path} and {csv_path}")
    if report.full.K is None or any(kp is None for kp in k_primes):
        return EXIT_HORIZON
    return EXIT_OK


def cmd_ham(cfg: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    hc = _section(cfg, "ham", {})
    # nu and sigma_param default to HamiltonianSpec's own values
    optional = {key: _field(hc, key, None) for key in ("nu", "sigma_param") if key in hc}
    try:
        hs = HamiltonianSpec(eps=_field(hc, "eps", 0.01), mu=_field(hc, "mu", 0.001), **optional)
    except ContractError as err:
        raise ConfigError(f"invalid Hamiltonian parameters: {err}") from err
    h = _field(hc, "h", 1e-3)
    n_returns = _count_field(hc, "returns", 10)
    cyl_returns = _count_field(hc, "cyl_returns", 100)
    tol_drift = _positive_field(hc, "drift_tol", 1e-8)
    tol_cyl = _positive_field(hc, "cyl_tol", 1e-12)
    fit_tol = _positive_field(hc, "fit_rel_tol", 0.05)
    fit_exponents = hc.get("fit_exponents", True)
    if not isinstance(fit_exponents, bool):  # bool("false") would read as true
        raise ConfigError(f"config key 'fit_exponents' must be true or false, got {fit_exponents!r}")

    sc = _section(hc, "seed_state", {})
    st = FlowState(
        p=_field(sc, "p", 0.05),
        q=_field(sc, "q", 0.1),
        I=_field(sc, "I", 0.03),
        theta=_field(sc, "theta", 0.0),
        J=_field(sc, "J", 0.0),
        phi=0.0,
    )
    results, orbit = hamiltonian_audits(hs, st, h, n_returns, cyl_returns, fit_exponents)
    rows = [
        f"{n}," + ",".join(_fmt(v) for v in state.as_array()) + f",{_fmt(energy)},{_fmt(drift)}"
        for n, state, energy, drift in orbit
    ]
    drift_max = results["energy_drift_max"]
    cyl_residual = results["cylinder_residual"]
    ok = drift_max <= tol_drift and cyl_residual <= tol_cyl and results["integrable_theta_error"] <= 1e-10
    if fit_exponents:
        ok = ok and results["exponents"]["unstable_rel_err"] <= fit_tol
        ok = ok and results["exponents"]["stable_rel_err"] <= fit_tol

    payload = {
        "spec": {
            "eps": hs.eps,
            "mu": hs.mu,
            "nu": hs.nu,
            "sigma_param": hs.sigma_param,
            "contact_order": hs.contact_order,
            "h": h,
        },
        "results": results,
        "passed": ok,
    }
    json_path, csv_path = _report(
        out_dir, "ham", "pendulum_rotors", cfg, seed, payload, "n,p,q,I,theta,J,phi,energy,drift", rows
    )
    if not quiet:
        status = "pass" if ok else "FAIL"
        print(
            f"ham[eps={hs.eps}, mu={hs.mu}]: {status} "
            f"drift={drift_max:.3g} cyl={cyl_residual:.3g}"
        )
        print(f"  wrote {json_path} and {csv_path}")
    return EXIT_OK if ok else EXIT_PROPERTY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhimlab",
        description="Normal-form map experiments near a normally hyperbolic invariant manifold.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config document")
    parser.add_argument("--out", default=None, help="output directory (default: $NHIM_OUT or .)")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "command",
        choices=("validate", "lambda", "annulus", "ham"),
        help="experiment to run",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        seed = _count(args.seed, "seed") if args.seed is not None else _count_field(cfg, "seed", 0)
        out_dir = _resolve_out(args, cfg)
        handler = {
            "validate": cmd_validate,
            "lambda": cmd_lambda,
            "annulus": cmd_annulus,
            "ham": cmd_ham,
        }[args.command]
        return handler(cfg, out_dir, seed, args.quiet)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelInconsistencyError as err:
        print(f"model inconsistency: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ContractError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
