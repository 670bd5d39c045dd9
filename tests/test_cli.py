import json

import numpy as np
import pytest

from nhimlab import ModelInconsistencyError, cli, lambdalemma, make_poly, make_twist_annulus


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, cfg, extra=()):
    path = write_cfg(tmp_path, f"{command}.json", cfg)
    out = tmp_path / "out"
    return cli.main([command, "--config", path, "--out", str(out), *extra]), out


def read_json(out_dir, prefix):
    hits = sorted(out_dir.glob(f"{prefix}_*.json"))
    assert hits, f"no {prefix} report in {out_dir}"
    return json.loads(hits[-1].read_text())


def test_validate_linear_passes(tmp_path, capsys):
    cfg = {"model": {"kind": "linear", "lambda_s": 0.5, "lambda_u": 2.0}}
    code, out = run(tmp_path, "validate", cfg)
    assert code == 0
    payload = read_json(out, "validate")
    assert payload["conditions"]["passed"] is True
    assert payload["config"] == cfg
    assert all(c["holds"] for c in payload["constants"])
    assert "validate[" in capsys.readouterr().out


def test_validate_defective_fails(tmp_path):
    cfg = {"model": {"kind": "defective", "condition": "b", "amp": 0.025}}
    code, out = run(tmp_path, "validate", cfg)
    assert code == 1
    payload = read_json(out, "validate")
    assert payload["conditions"]["passed"] is False


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert cli.main(["validate", "--config", str(tmp_path / "missing.json")]) == 2


def test_unknown_model_kind(tmp_path):
    code, _ = run(tmp_path, "validate", {"model": {"kind": "spiral"}})
    assert code == 2


def test_bad_twist_band_is_config_error(tmp_path):
    cfg = {"model": {"kind": "twist", "y0": 1.0, "y1": 0.2}}
    code, _ = run(tmp_path, "annulus", cfg)
    assert code == 2


def test_lambda_poly_end_to_end(tmp_path):
    cfg = {
        "model": {"kind": "poly", "c": 0.05},
        "eps": 1e-2,
        "n_max": 25,
        "disk": {"sigma_const": 0.2, "u_half": 0.01, "mesh_per_axis": 5},
    }
    code, out = run(tmp_path, "lambda", cfg, extra=("--quiet",))
    assert code == 0
    payload = read_json(out, "lambda")
    assert payload["K"] is not None
    assert payload["domination"]["worst_margin"] >= -1e-9
    csvs = sorted(out.glob("lambda_*.csv"))
    lines = csvs[-1].read_text().strip().splitlines()
    assert lines[0] == "n,c0,c1,value,alive"
    assert len(lines) == len(payload["series"]) + 1


def test_a_lambda_run_seeds_once_and_steps_each_row_once(tmp_path, monkeypatch):
    # the benchmark's lambda inputs: find_K pushes the whole mesh (25 steps, 1309 rows), and
    # domination pushes only its 11 slice rows again (25 steps, 275 rows), reading the off-slice
    # nodes from find_K's run; seeding and pushing them twice read 2 seeds, 61 steps and 2618 rows
    seeds, rows = [], []

    def seed_mesh(*args):
        seeds.append(1)
        return seed(*args)

    def step(f, Z, *args, **kwargs):
        rows.append(len(Z))
        return push(f, Z, *args, **kwargs)

    seed, push = lambdalemma.seed_mesh, lambdalemma._step
    monkeypatch.setattr(lambdalemma, "seed_mesh", seed_mesh)
    monkeypatch.setattr(lambdalemma, "_step", step)
    cfg = {"model": {"kind": "poly", "c": 0.05}, "eps": 1e-2, "n_max": 25,
           "disk": {"sigma_const": 0.2, "u_half": 0.002, "mesh_per_axis": 11}}
    code, out = run(tmp_path, "lambda", cfg, extra=("--quiet",))
    assert code == 0
    assert read_json(out, "lambda")["domination"]["persistence_rows"]
    assert (len(seeds), len(rows), sum(rows)) == (1, 50, 1584)


def affine_sigma(const, u_coeffs, x_coeffs):
    """The per-node closures the CLI disk was built from: sigma and its constant partials."""
    return (lambda u, x: const + u_coeffs @ u + x_coeffs @ x), (lambda u, x: (u_coeffs, x_coeffs))


@pytest.mark.parametrize("f", [make_poly(0.05), make_twist_annulus(0.05, 0.0, 1.0)], ids=["poly", "twist"])
def test_the_cli_disk_rows_are_its_affine_closures_bit_for_bit(f):
    n_s, n_u, m = f.dims.n_s, f.dims.n_u, f.dims.m
    rng = np.random.default_rng(61)
    u_coeffs, x_coeffs = rng.normal(0.0, 0.1, (n_s, n_u)), rng.normal(0.0, 0.01, (n_s, m))
    disk = cli.build_disk({"sigma_const": 0.17, "sigma_u_coeffs": u_coeffs.tolist(),
                           "sigma_x_coeffs": x_coeffs.tolist(), "u_half": 0.01, "mesh_per_axis": 7}, f)
    sigma, dsigma = affine_sigma(np.full(n_s, 0.17), u_coeffs, x_coeffs)
    U, X = rng.uniform(-0.01, 0.01, (200, n_u)), rng.uniform(0.0, 1.0, (200, m))
    S, (DU, DX) = disk.sigma.rows(U, X), disk.dsigma.rows(U, X)
    assert S.shape == (200, n_s) and DU.shape == (200, n_s, n_u) and DX.shape == (200, n_s, m)
    for i, (u, x) in enumerate(zip(U, X)):
        assert np.array_equal(S[i], sigma(u, x))
        assert np.array_equal(DU[i], dsigma(u, x)[0]) and np.array_equal(DX[i], dsigma(u, x)[1])
    assert np.array_equal(disk.sigma(U[0], X[0]), sigma(U[0], X[0]))  # a one-point read is a one-row stack


def test_lambda_deterministic_across_runs(tmp_path):
    cfg = {
        "model": {"kind": "poly", "c": 0.05},
        "eps": 1e-2,
        "n_max": 20,
        "disk": {"sigma_const": 0.2, "u_half": 0.01, "mesh_per_axis": 5},
    }
    path = write_cfg(tmp_path, "lam.json", cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["lambda", "--config", path, "--out", str(out_a), "--quiet"]) == 0
    assert cli.main(["lambda", "--config", path, "--out", str(out_b), "--quiet"]) == 0
    pa = read_json(out_a, "lambda")
    pb = read_json(out_b, "lambda")
    assert pa == pb
    ca = sorted(out_a.glob("lambda_*.csv"))[-1].read_text()
    cb = sorted(out_b.glob("lambda_*.csv"))[-1].read_text()
    assert ca == cb


def test_lambda_horizon_exit(tmp_path):
    cfg = {
        "model": {"kind": "poly", "c": 0.05},
        "eps": 1e-9,
        "n_max": 3,
        "disk": {"sigma_const": 0.2, "u_half": 0.01, "mesh_per_axis": 5},
    }
    code, _ = run(tmp_path, "lambda", cfg, extra=("--quiet",))
    assert code == 3


def test_lambda_rejects_invalid_model(tmp_path):
    cfg = {"model": {"kind": "defective", "condition": "b"}, "eps": 1e-2, "n_max": 10}
    code, _ = run(tmp_path, "lambda", cfg, extra=("--quiet",))
    assert code == 1


def test_annulus_twist_end_to_end(tmp_path):
    cfg = {
        "model": {"kind": "twist", "eps_twist": 0.05, "y0": 0.2, "y1": 0.8},
        "eps": 1e-2,
        "n_max": 25,
        "disk": {"sigma_const": 0.2, "u_half": 0.002, "mesh_per_axis": 5},
    }
    code, out = run(tmp_path, "annulus", cfg, extra=("--quiet",))
    assert code == 0
    payload = read_json(out, "annulus")
    assert payload["K"] is not None
    assert all(c["K_prime"] is not None for c in payload["circles"])
    for c in payload["circles"]:
        assert all(row[3] == 0.0 for row in c["rows"])
    csvs = sorted(out.glob("annulus_*.csv"))
    header = csvs[-1].read_text().splitlines()[0]
    assert header == "n,c0,c1,alive,edge0_c0,edge0_c1,edge0_ydev,edge1_c0,edge1_c1,edge1_ydev"


def test_annulus_requires_twist(tmp_path):
    cfg = {"model": {"kind": "poly", "c": 0.05}}
    code, _ = run(tmp_path, "annulus", cfg)
    assert code == 2


def test_annulus_inconsistency_exit(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ModelInconsistencyError("edge circle drifted")

    monkeypatch.setattr(cli, "annulus_experiment", boom)
    cfg = {
        "model": {"kind": "twist", "eps_twist": 0.05, "y0": 0.2, "y1": 0.8},
        "disk": {"sigma_const": 0.2, "u_half": 0.002},
    }
    code, _ = run(tmp_path, "annulus", cfg, extra=("--quiet",))
    assert code == 4


def test_ham_audits_pass(tmp_path):
    cfg = {"ham": {"eps": 0.01, "mu": 0.001, "h": 1e-3, "returns": 5, "cyl_returns": 20}}
    code, out = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 0
    payload = read_json(out, "ham")
    res = payload["results"]
    assert res["energy_drift_max"] <= 1e-8
    assert res["cylinder_residual"] <= 1e-12
    assert res["integrable_theta_error"] <= 1e-10
    assert res["exponents"]["unstable_rel_err"] <= 0.05
    assert res["exponents"]["stable_rel_err"] <= 0.05
    csvs = sorted(out.glob("ham_*.csv"))
    header = csvs[-1].read_text().splitlines()[0]
    assert header == "n,p,q,I,theta,J,phi,energy,drift"


def test_ham_eps_zero_needs_fit_disabled(tmp_path, capsys):
    for zero in (0, 0.0):
        code, out = run(tmp_path, "ham", {"ham": {"eps": zero, "mu": zero}})
        assert code == 2
        assert "fit_exponents" in capsys.readouterr().err
        assert not list(out.glob("*"))
    cfg = {"ham": {"eps": 0.0, "mu": 0.0, "fit_exponents": False,
                   "returns": 3, "cyl_returns": 5}}
    code, _ = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 0


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_ham_fit_exponents_must_be_a_json_boolean(tmp_path, capsys, flag):
    # bool("false") is True, so a quoted "false" used to switch the fit on
    cfg = {"ham": {"eps": 0.0, "mu": 0.0, "fit_exponents": flag, "returns": 3, "cyl_returns": 5}}
    code, out = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 2
    assert "'fit_exponents'" in capsys.readouterr().err
    assert not list(out.glob("ham_*"))


@pytest.mark.parametrize("key, value", [
    ("nu", "nan"), ("nu", "inf"), ("sigma_param", "nan"), ("sigma_param", "inf"),
    ("eps", "nan"), ("eps", "inf"), ("mu", "nan"), ("mu", "inf"),
])
def test_ham_non_finite_parameter_is_config_error(tmp_path, capsys, key, value):
    cfg = {"ham": {"eps": 0.01, "mu": 0.0, key: value, "returns": 3, "cyl_returns": 5}}
    code, out = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not list(out.glob("ham_*"))


def test_ham_log_base_is_a_removed_key(tmp_path, capsys):
    # the contact order always takes the natural log; an old config asking for base 10 must not run on it
    cfg = {"ham": {"log_base": "base10", "returns": 1, "cyl_returns": 1, "fit_exponents": False}}
    code, out = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 2
    assert "'log_base'" in capsys.readouterr().err
    assert not list(out.glob("ham_*"))


def test_ham_rejects_mu_above_eps(tmp_path):
    code, _ = run(tmp_path, "ham", {"ham": {"eps": 0.001, "mu": 0.01}})
    assert code == 2


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
def test_ham_non_finite_step_is_config_error(tmp_path, h):
    # json writes and reads NaN and Infinity, so such a config reaches the audits
    cfg = {"ham": {"h": h, "returns": 2, "cyl_returns": 2, "fit_exponents": False}}
    code, out = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 2
    assert not list(out.glob("ham_*"))


@pytest.mark.parametrize("counts", [
    {"returns": 0, "cyl_returns": 0},
    {"returns": -1, "cyl_returns": 3},
    {"returns": 3, "cyl_returns": -1},
])
def test_ham_empty_audit_is_config_error(tmp_path, counts):
    cfg = {"ham": {"h": 4e-3, "fit_exponents": False, **counts}}
    code, out = run(tmp_path, "ham", cfg, extra=("--quiet",))
    assert code == 2
    assert not list(out.glob("ham_*"))


def test_non_numeric_samples_is_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "validate", {"model": {"kind": "linear"}, "samples": "many"})
    assert code == 2
    assert "'samples'" in capsys.readouterr().err


def test_non_numeric_ham_tolerance_is_config_error_before_audits(tmp_path, capsys):
    code, out = run(tmp_path, "ham", {"ham": {"drift_tol": "tight"}}, extra=("--quiet",))
    assert code == 2
    assert "'drift_tol'" in capsys.readouterr().err
    assert not list(out.glob("ham_*"))


def test_non_numeric_disk_box_is_config_error(tmp_path):
    cfg = {"model": {"kind": "poly"}, "disk": {"u_box": [["a", 0.01]]}}
    code, out = run(tmp_path, "lambda", cfg, extra=("--quiet",))
    assert code == 2
    assert not list(out.glob("lambda_*"))


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("ham", {"ham": [1]}, "ham"),
        ("ham", {"ham": {"seed_state": [0.1]}}, "seed_state"),
        ("annulus", {"model": [1]}, "model"),
        ("annulus", {"model": "twist"}, "model"),
    ],
)
def test_section_that_is_not_an_object_is_config_error(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg, extra=("--quiet",))
    assert code == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not list(out.glob(f"{command}_*"))


def test_out_dir_falls_back_to_env(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("NHIM_OUT", str(target))
    cfg = {"model": {"kind": "linear"}}
    path = write_cfg(tmp_path, "v.json", cfg)
    assert cli.main(["validate", "--config", path, "--quiet"]) == 0
    assert sorted(target.glob("validate_*.json"))


def test_quiet_suppresses_output(tmp_path, capsys):
    cfg = {"model": {"kind": "linear"}}
    code, _ = run(tmp_path, "validate", cfg, extra=("--quiet",))
    assert code == 0
    assert capsys.readouterr().out == ""


def test_seed_override_is_recorded(tmp_path):
    cfg = {"model": {"kind": "linear"}, "seed": 3}
    code, out = run(tmp_path, "validate", cfg, extra=("--seed", "11", "--quiet"))
    assert code == 0
    assert read_json(out, "validate")["seed"] == 11


def test_same_second_runs_with_different_seeds_keep_both_reports(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101T000000")
    cfg = {"model": {"kind": "linear"}}
    for seed in ("1", "2"):
        code, out = run(tmp_path, "validate", cfg, extra=("--seed", seed, "--quiet"))
        assert code == 0
    reports = sorted(out.glob("validate_linear_*.json"))
    assert len(reports) == 2
    assert sorted(json.loads(p.read_text())["seed"] for p in reports) == [1, 2]


def test_validate_and_lambda_go_through_the_module_seams(tmp_path, monkeypatch):
    # the benchmark replaces cli.build_model and wraps cli._write_json and
    # cli._write_csv, so every subcommand must look them up at call time
    calls = []
    for name in ("build_model", "_write_json", "_write_csv"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    code, _ = run(tmp_path, "validate", {"model": {"kind": "linear"}}, extra=("--quiet",))
    assert code == 0
    assert calls == ["build_model", "_write_json"]
    calls.clear()
    cfg = {"model": {"kind": "poly"}, "n_max": 10, "samples": 16, "grid_density": 3,
           "disk": {"sigma_const": 0.2, "u_half": 0.01, "mesh_per_axis": 3}}
    code, _ = run(tmp_path, "lambda", cfg, extra=("--quiet",))
    assert code == 0
    assert calls == ["build_model", "_write_csv", "_write_json"]


@pytest.mark.parametrize(
    "command, model",
    [
        ("validate", {"kind": [1]}),
        ("validate", {"kind": None}),
        ("validate", {"kind": "twist", "y1": 0.8}),
        ("annulus", {"kind": "twist", "y1": 0.8}),
        ("validate", {"c": 0.05}),
    ],
)
def test_bad_model_kind_or_missing_twist_edge_is_config_error(tmp_path, capsys, command, model):
    code, out = run(tmp_path, command, {"model": model}, extra=("--quiet",))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob(f"{command}_*"))


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        # validate exited 0 on c = 0.05 and lambda_s = 0.5 with these three misspelt keys
        ("validate", {"model": {"kind": "poly", "cc": 0.3, "lambda_S": 0.9}, "n_maxx": 3, "samples": 16,
                      "grid_density": 3}, "n_maxx"),
        ("validate", {"model": {"kind": "poly", "cc": 0.3}, "samples": 16, "grid_density": 3}, "cc"),
        ("lambda", {"model": {"kind": "poly"}, "disk": {"sigma_cons": 0.2}}, "sigma_cons"),
        ("annulus", {"model": {"kind": "twist", "y0": 0.2, "y1": 0.8, "eps": 0.05}}, "eps"),
        ("ham", {"ham": {"return": 2}}, "return"),
        ("ham", {"ham": {"seed_state": {"phi": 0.1}}}, "phi"),
    ],
)
def test_a_config_key_that_no_subcommand_reads_is_a_config_error(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg, extra=("--quiet",))
    assert code == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_the_shared_validate_and_lambda_config_runs_both(tmp_path):
    # validate reads none of eps, n_max and disk, but lambda does, so the keys are known
    cfg = {"model": {"kind": "poly", "c": 0.05}, "eps": 1e-2, "n_max": 25, "samples": 16, "grid_density": 3,
           "disk": {"sigma_const": 0.2, "u_half": 0.01, "mesh_per_axis": 5}, "seed": 0}
    for command in ("validate", "lambda"):
        code, out = run(tmp_path, command, cfg, extra=("--quiet",))
        assert code == 0
        assert read_json(out, command)["config"] == cfg


def test_a_config_root_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "validate", [1, 2], extra=("--quiet",))
    assert code == 2
    assert "config root must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg, code, printed",
    [
        ("lambda", {"model": {"kind": "poly", "c": 0.05}, "eps": 1e-2, "n_max": 25,
                    "disk": {"sigma_const": 0.2, "u_half": 0.01, "mesh_per_axis": 5}}, 0, "lambda[poly]: K="),
        ("lambda", {"model": {"kind": "defective", "condition": "b"}, "samples": 16}, 1,
         "lambda[defective_b]: model fails structural validation"),
        ("annulus", {"model": {"kind": "twist", "y0": 0.2, "y1": 0.8}, "eps": 1e-2, "n_max": 25,
                     "disk": {"sigma_const": 0.2, "u_half": 0.002, "mesh_per_axis": 5}}, 0,
         "annulus[twist_annulus]: K=5 K'=[5, 5]"),
        ("annulus", {"model": {"kind": "twist", "y0": 0.2, "y1": 0.8}, "eps": 1e-12, "n_max": 2,
                     "disk": {"sigma_const": 0.2, "u_half": 0.002, "mesh_per_axis": 3}}, 3,
         "annulus[twist_annulus]: K=None K'=[None, None]"),
        ("ham", {"ham": {"returns": 2, "cyl_returns": 2, "fit_exponents": False}}, 0, "ham[eps=0.01, mu=0.001]: pass"),
    ],
)
def test_a_run_without_quiet_prints_its_summary(tmp_path, capsys, command, cfg, code, printed):
    assert run(tmp_path, command, cfg)[0] == code
    captured = capsys.readouterr()
    assert printed in captured.out + captured.err
    assert ("  wrote " in captured.out) == (code != 1)


JSON_PAYLOADS = {
    "specials": {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "-0.0": -0.0, "tiny": 5e-324},
    "rows": {"rows": [[1, 0.5, -0.0], [2, float("nan"), 1e300], [3, None, 2.5], [4, True, False]]},
    "empty": {"list": [], "dict": {}, "tuple": (), "nested": [[], {}, [[]], {"a": {}}]},
    "tuples": {"t": (1, (2.0, "x"), [(), (None,)])},
    "strings": {"ä": "naïve ☃ \"quoted\" \\ \n\t\u0001", "emoji": "\U0001f600", "plain": "a, b: c"},
    "numbers": {"ints": [0, -1, 10**30, 7], "bools": [True, False], "mixed": [1, 2.0, True, None, "s"]},
    "order": {"b": 1, "a": {"z": [1], "y": {"x": 0.1}}, "": None, "A": -2},
    "list": [{"n": 0, "c0": 0.25}, 1.5, "x", [float("inf")]],
}


@pytest.mark.parametrize("payload", JSON_PAYLOADS.values(), ids=JSON_PAYLOADS.keys())
def test_the_json_writer_writes_the_bytes_of_json_dumps(tmp_path, payload):
    path = tmp_path / "out.json"
    cli._write_json(path, payload)
    assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
