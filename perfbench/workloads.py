"""The benchmark's three workloads.

A workload is built once per process (set-up), then solved many times on
the same inputs.  Every solve attempts the same fixed list of operations
(``OPS``), so the share of failed operations is the same in every run.

    w = Workload(seed, workdir, tracer)   # import-free set-up: models, configs, draws
    out = w.solve()                       # one full solve, timed by the caller
    w.digest(out)                         # bytes that must repeat on every solve
    w.failed(out)                         # operations of this solve that failed
    w.check(out)                          # problems with the outputs ([] when right)

``check`` runs outside the timed region and compares against ``reference``
(mpmath, no nhimlab) or against properties the method must have.  With a
``tracer`` the workload hands nhimlab counting wrappers around the
callables it passes in (MapSpec remainders, GraphPair graphs).
"""

import json
import math
from pathlib import Path

import numpy as np

import nhimlab
from nhimlab import cli, models, straighten

TWO_PI = 2.0 * math.pi


def _seeded(seed, label):
    """Generator for one named draw; the draws of a workload stay independent
    of one another and of the order they are made in."""
    return np.random.default_rng([int(seed) % 2**32, sum(map(ord, label))])


def _read_single(out_dir, pattern):
    """The bytes of the one file matching ``pattern``, or None when there is
    not exactly one (a CLI command that stopped early wrote none)."""
    hits = sorted(Path(out_dir).glob(pattern))
    return hits[0].read_bytes() if len(hits) == 1 else None


def _digest_file(out_dir, pattern):
    return _read_single(out_dir, pattern) or b"<missing>"


class LambdaMesh:
    """``nhimlab lambda`` on make_poly(0.05) with a dense constant-graph disk,
    then ``nhimlab annulus`` on make_twist_annulus(0.05, 0, 1), both through
    ``cli.main`` with a fresh --out per solve."""

    name = "lambda-mesh"
    OPS = ("lambda", "annulus")
    C = 0.05
    RHO = 0.5  # make_poly's default
    MESH = 11
    U_HALF = 0.002
    N_MAX = 25
    ANNULUS_MESH = 5
    ANNULUS_U_HALF = 0.5 * 0.5**8  # make_default_disk's width for n_target = 8

    def __init__(self, seed, workdir, tracer=None):
        self.seed = int(seed) % 2**32  # the CLI and the Halton sampler take seeds >= 0
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = _seeded(seed, self.name)
        self.sigma = float(rng.uniform(0.15, 0.25))
        self.sigma_annulus = float(rng.uniform(0.1, 0.25))
        lam_cfg = {
            "model": {"kind": "poly", "c": self.C},
            "eps": 1e-2,
            "n_max": self.N_MAX,
            "disk": {"sigma_const": self.sigma, "u_half": self.U_HALF, "mesh_per_axis": self.MESH},
        }
        ann_cfg = {
            "model": {"kind": "twist", "eps_twist": 0.05, "y0": 0.0, "y1": 1.0},
            "eps": 1e-2,
            "n_max": 40,
            "disk": {
                "sigma_const": self.sigma_annulus,
                "u_half": self.ANNULUS_U_HALF,
                "mesh_per_axis": self.ANNULUS_MESH,
            },
        }
        self.lam_path = self.workdir / "lambda.json"
        self.ann_path = self.workdir / "annulus.json"
        self.lam_path.write_text(json.dumps(lam_cfg))
        self.ann_path.write_text(json.dumps(ann_cfg))
        self.solves = 0
        self.captured = None
        lambdalemma = nhimlab.lambdalemma

        def find_k_capture(*args, **kwargs):
            # the CLI writes only the distance series; keep the final mesh
            # orbit of this solve so its nodes can be checked too
            self.captured = lambdalemma.find_K(*args, **kwargs)
            return self.captured

        cli.find_K = find_k_capture
        if tracer is not None:
            build_model = cli.build_model
            cli.build_model = lambda mc: tracer.count_map(build_model(mc))

    def _run(self, command, cfg_path, out):
        argv = ["--config", str(cfg_path), "--out", str(out), "--seed", str(self.seed), "--quiet", command]
        return cli.main(argv)

    def solve(self):
        self.solves += 1
        self.captured = None  # `nhimlab lambda` returns before find_K if validation fails
        out = self.workdir / f"solve{self.solves}"
        rc_lambda = self._run("lambda", self.lam_path, out / "lambda")
        rc_annulus = self._run("annulus", self.ann_path, out / "annulus")
        orbit = None if self.captured is None else self.captured.final_orbit
        return {"rc": (rc_lambda, rc_annulus), "out": out, "orbit": orbit}

    def digest(self, out):
        orbit = out["orbit"]
        parts = [repr(out["rc"]).encode()]
        for sub, stem in (("lambda", "lambda_poly"), ("annulus", "annulus_twist_annulus")):
            parts.append(_digest_file(out["out"] / sub, f"{stem}_*.json"))
            parts.append(_digest_file(out["out"] / sub, f"{stem}_*.csv"))
        if orbit is None:
            parts.append(b"<no orbit>")
            return b"\0".join(parts)
        for jet in orbit.jets:
            parts.append(jet.p.as_array().tobytes())
            parts.extend(v.as_array().tobytes() for v in jet.frame)
        parts.append(repr((orbit.alive, orbit.died_at)).encode())
        return b"\0".join(parts)

    def failed(self, out):
        return 0

    def check(self, out):
        import reference

        problems = []
        if out["rc"] != (0, 0):
            problems.append(f"exit codes {out['rc']}, expected (0, 0)")
        lam_raw = _read_single(out["out"] / "lambda", "lambda_poly_*.json")
        ann_raw = _read_single(out["out"] / "annulus", "annulus_twist_annulus_*.json")
        if lam_raw is None or ann_raw is None:
            problems.append("lambda or annulus wrote no single result file")
            return problems
        if out["orbit"] is None:
            problems.append("lambda made no find_K call, so there is no mesh orbit")
            return problems
        lam, ann = json.loads(lam_raw), json.loads(ann_raw)

        # the poly budget in closed form: k = 2 c rho, C = c; the grid samples
        # up to rho from inside, so k may fall short of 2 c rho by a little
        k, k_ref = lam["bounds"]["k"], 2.0 * self.C * self.RHO
        if not k_ref * (1.0 - 1e-6) <= k <= k_ref * (1.0 + 1e-12):
            problems.append(f"poly k {k!r} is not 2 c rho = {k_ref!r}")
        if abs(lam["bounds"]["C"] - self.C) > 1e-12 * self.C:
            problems.append(f"poly C {lam['bounds']['C']!r} != c = {self.C!r}")

        # K found, with a monotone tail (the AC6 rule)
        series = lam["series"]
        if lam["K"] is None:
            problems.append("lambda K not found")
        values = [max(r["c0"], r["c1"]) for r in series]
        if any(values[n] > values[n - 1] + 1e-15 for n in range(3, len(values))):
            problems.append("lambda distance series has no monotone tail")

        # domination: rows must exist, and every margin must hold
        dom = lam["domination"]
        if not dom["slice_rows"] or not dom["persistence_rows"]:
            problems.append("domination report is empty")
        margins = [v for row in dom["slice_rows"] + dom["persistence_rows"] for v in row[1:] if v is not None]
        if margins and min(margins) < -1e-9:
            problems.append(f"domination margin {min(margins):.3g} < -1e-9")

        # the mesh against an extended-precision recomputation of the poly map
        orbit = out["orbit"]
        tags = [(t[0][0], t[1][0]) for t in orbit.tags]
        u_axis = np.linspace(-self.U_HALF, self.U_HALF, self.MESH)
        u_axis[np.argmin(np.abs(u_axis))] = 0.0
        x_axis = np.linspace(0.0, TWO_PI, self.MESH, endpoint=False)
        if sorted(tags) != sorted((u, x) for u in u_axis for x in x_axis):
            problems.append("mesh tags do not match the disk grid")
        nodes, ref_series = reference.poly_mesh(self.C, 0.5, 2.0, 0.5, self.sigma, tags, self.N_MAX)
        for n, (row, ref) in enumerate(zip(series, ref_series)):
            for key, ref_v in (("c0", ref[0]), ("c1", ref[1])):
                if abs(row[key] - float(ref_v)) > 1e-9 * abs(float(ref_v)) + 1e-300:
                    problems.append(f"series {key}[{n}] = {row[key]!r}, reference {float(ref_v)!r}")
            if row["alive"] != ref[2]:
                problems.append(f"alive[{n}] = {row['alive']}, reference {ref[2]}")
        if len(series) != len(ref_series):
            problems.append("series length differs from the reference")
        for i, (died_at, point, frame) in enumerate(nodes):
            if orbit.died_at[i] != died_at:
                problems.append(f"node {i} died at {orbit.died_at[i]}, reference {died_at}")
                continue
            jet = orbit.jets[i]
            s, u, x = jet.p.as_array()
            err = max(abs(s - float(point[0])), abs(u - float(point[1])), reference.circle_gap(x, point[2]))
            for v, v_ref in zip(jet.frame, frame):
                err = max(err, max(abs(a - float(b)) for a, b in zip(v.as_array(), v_ref)))
            if err > 1e-10:
                problems.append(f"node {i} orbit or frame off the reference by {err:.3g}")

        # the annulus: both circles settle, and neither drifts off its level
        if ann["K"] is None:
            problems.append("annulus K not found")
        for circle in ann["circles"]:
            if circle["K_prime"] is None:
                problems.append(f"circle y={circle['y']} does not settle")
            ydev = max(row[3] for row in circle["rows"])
            if ydev > 1e-10:
                problems.append(f"circle y={circle['y']} drifted by {ydev:.3g}")
        return problems


class HamReturns:
    """``nhimlab ham`` (energy-drift returns, cylinder returns, free rotor,
    both exponent fits) plus an ensemble of seeded states on {phi = 0}, each
    taken a few Poincare returns, and seeded free-rotor returns."""

    name = "ham-returns"
    OPS = ("ham", "ensemble")
    EPS, MU, NU, SIGMA = 0.01, 0.001, 55.0, 1.0
    H = 4e-3
    ENSEMBLE = 8
    ENSEMBLE_RETURNS = 2
    ROTORS = 2

    def __init__(self, seed, workdir, tracer=None):
        self.seed = int(seed) % 2**32  # the CLI and the Halton sampler take seeds >= 0
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = {
            "ham": {"eps": self.EPS, "mu": self.MU, "h": self.H, "returns": 3, "cyl_returns": 3},
            "seed": self.seed,
        }
        self.cfg_path = self.workdir / "ham.json"
        self.cfg_path.write_text(json.dumps(cfg))
        self.spec = models.HamiltonianSpec(eps=self.EPS, mu=self.MU, nu=self.NU, sigma_param=self.SIGMA)
        self.free = models.HamiltonianSpec(eps=0.0, mu=0.0, nu=self.NU, sigma_param=self.SIGMA)
        rng = _seeded(seed, self.name)
        amp = 0.05
        self.states = [
            models.FlowState(
                p=float(rng.uniform(-amp, amp)),
                q=float(rng.uniform(0.0, TWO_PI)),
                I=float(rng.uniform(-amp, amp)),
                theta=float(rng.uniform(0.0, TWO_PI)),
                J=float(rng.uniform(-amp, amp)),
                phi=0.0,
            )
            for _ in range(self.ENSEMBLE)
        ]
        self.rotors = [
            models.FlowState(p=0.0, q=0.0, I=float(rng.uniform(-0.5, 0.5)),
                             theta=float(rng.uniform(0.0, TWO_PI)), J=0.0, phi=0.0)
            for _ in range(self.ROTORS)
        ]
        self.solves = 0

    def solve(self):
        self.solves += 1
        out = self.workdir / f"solve{self.solves}"
        argv = ["--config", str(self.cfg_path), "--out", str(out), "--seed", str(self.seed), "--quiet", "ham"]
        rc = cli.main(argv)
        poincare = nhimlab.models.poincare_map
        orbits = []
        for st in self.states:
            orbit = [st]
            for _ in range(self.ENSEMBLE_RETURNS):
                orbit.append(poincare(self.spec, orbit[-1], h=self.H)[0])
            orbits.append(orbit)
        rotors = [poincare(self.free, st, h=self.H)[0] for st in self.rotors]
        return {"rc": rc, "out": out, "orbits": orbits, "rotors": rotors}

    def digest(self, out):
        parts = [repr(out["rc"]).encode(),
                 _digest_file(out["out"], "ham_*.json"), _digest_file(out["out"], "ham_*.csv")]
        for st in [s for orbit in out["orbits"] for s in orbit] + out["rotors"]:
            parts.append(st.as_array().tobytes())
        return b"\0".join(parts)

    def failed(self, out):
        return 0

    def _energy(self, row):
        import reference

        return reference.ham_energy(self.EPS, self.MU, self.NU, self.SIGMA, *row)

    def check(self, out):
        import reference

        problems = []
        if out["rc"] != 0:
            problems.append(f"ham exit code {out['rc']}")
        raw_json, raw_csv = _read_single(out["out"], "ham_*.json"), _read_single(out["out"], "ham_*.csv")
        if raw_json is None or raw_csv is None:
            problems.append("ham wrote no single result file")
            return problems
        payload = json.loads(raw_json)
        res = payload["results"]
        if not payload["passed"]:
            problems.append("ham audits report a failure")
        if res["energy_drift_max"] > 1e-8:
            problems.append(f"energy drift {res['energy_drift_max']:.3g} > 1e-8")
        if res["cylinder_residual"] > 1e-12:
            problems.append(f"cylinder residual {res['cylinder_residual']:.3g} > 1e-12")
        if res["integrable_theta_error"] > 1e-10:
            problems.append(f"rotor angle error {res['integrable_theta_error']:.3g} > 1e-10")
        root = reference.sqrt(self.EPS)
        for key, rate in (("unstable", res["exponents"]["unstable_rate"]),
                          ("stable", -res["exponents"]["stable_rate"])):
            if abs(rate - root) > 0.05 * root:
                problems.append(f"{key} exponent {rate:.6g} not within 5% of sqrt(eps) = {root:.6g}")

        # the return orbit the CLI wrote, re-evaluated with an independent H
        rows = raw_csv.decode().strip().splitlines()[1:]
        values = [[float(v) for v in line.split(",")] for line in rows]
        e0 = self._energy(values[0][1:7])
        for v in values:
            e = self._energy(v[1:7])
            if abs(float(e) - v[7]) > 1e-13:
                problems.append(f"CLI energy at return {int(v[0])} is {v[7]!r}, reference {float(e)!r}")
            if abs(float(e - e0)) > 1e-8:
                problems.append(f"CLI orbit drifts by {float(e - e0):.3g} at return {int(v[0])}")

        # every ensemble return stays on its energy level
        for i, orbit in enumerate(out["orbits"]):
            e_start = self._energy(orbit[0].as_array())
            for n, st in enumerate(orbit[1:], 1):
                drift = abs(float(self._energy(st.as_array()) - e_start))
                if drift > 1e-8:
                    problems.append(f"ensemble state {i} drifts by {drift:.3g} at return {n}")

        # free rotors: theta' = theta + 2 pi I, everything else fixed
        for start, end in zip(self.rotors, out["rotors"]):
            gap = reference.circle_gap(end.theta, reference.rotor_return_angle(start.theta, start.I))
            if gap > 1e-10:
                problems.append(f"free rotor angle off by {gap:.3g}")
            if (end.p, end.q, end.I, end.J) != (0.0, 0.0, start.I, 0.0):
                problems.append("free rotor moved off its torus")
        return problems


class BudgetStraightened:
    """The straightened round trip of make_linear(0.5, 2.0, rho=0.3) through
    the square graphs G_s = s^2, G_u = u^2 (as in AC8): validation and the
    constant budget by finite differences, a small find_K and the
    domination check on the same map, and the straightening inverse on
    seeded points."""

    name = "budget-straightened"
    OPS = ("validate", "bounds", "find_K", "domination", "inverse")
    SAMPLES = 128
    GRID = 2
    N_TARGET = 6
    MESH = 3
    N_MAX = 12
    POINTS = 128

    def __init__(self, seed, workdir, tracer=None):
        self.seed = int(seed) % 2**32  # the CLI and the Halton sampler take seeds >= 0
        base = models.make_linear(0.5, 2.0, rho=0.3)
        gp = straighten.GraphPair(
            G_s=lambda s, x: np.atleast_1d(s[0] ** 2),
            G_u=lambda u, x: np.atleast_1d(u[0] ** 2),
        )
        if tracer is not None:
            gp = tracer.count_graphs(gp)
        self.gp = gp
        f = nhimlab.conjugate_map(nhimlab.unstraighten_map(base, gp), gp)
        self.f = f if tracer is None else tracer.count_map(f)
        rng = _seeded(seed, self.name)
        r = 0.9 * self.f.rho
        self.points = [
            self.f.point(float(rng.uniform(-r, r)), float(rng.uniform(-r, r)), float(rng.uniform(0.0, TWO_PI)))
            for _ in range(self.POINTS)
        ]

    def solve(self):
        f = self.f
        report = nhimlab.validate_conditions(f, sample_count=self.SAMPLES, tol=1e-8, seed=self.seed)
        bounds = nhimlab.estimate_bounds(f, grid_density=self.GRID)
        disk = nhimlab.make_default_disk(f, bounds, n_target=self.N_TARGET, mesh_per_axis=self.MESH)
        found = nhimlab.find_K(disk, f, eps=1e-2, n_max=self.N_MAX)
        domination = nhimlab.verify_bound_domination(disk, f, bounds, n_max=self.N_MAX)
        inverse = nhimlab.straighten_inverse
        preimages = [inverse(self.gp, q, tol=1e-13, max_iter=200) for q in self.points]
        return {"report": report, "bounds": bounds, "found": found, "domination": domination,
                "preimages": preimages}

    def digest(self, out):
        doc = {
            "report": out["report"].to_dict(),
            "bounds": out["bounds"].to_dict(),
            "found": out["found"].to_dict(),
            "domination": out["domination"].to_dict(),
            "preimages": [p.as_array().tolist() for p in out["preimages"]],
        }
        return json.dumps(doc, sort_keys=True).encode()

    def failed(self, out):
        # the one kept failure: the sampled budget does not cover the
        # finite-difference noise of the straightened map's Jacobian
        return 0 if out["domination"].ok() else 1

    def check(self, out):
        import reference

        problems = []
        report = out["report"]
        for name in ("b", "c"):
            v = report.check(name).max_violation
            if v > 1e-8:
                problems.append(f"condition {name} violated by {v:.3g} > 1e-8")
        if not report.passed:
            problems.append("validation fails at tol 1e-8")
        # the round trip of a linear map has remainder 0; what the budget
        # measures is finite-difference noise of the 1e-13 inverse:
        # 1e-13 / 1e-6 for k, 1e-13 / 1e-4^2 for C
        b = out["bounds"]
        if b.k > 1e-6:
            problems.append(f"k = {b.k:.3g} of a zero remainder exceeds 1e-6")
        if b.C > 1e-4:
            problems.append(f"C = {b.C:.3g} of a zero remainder exceeds 1e-4")
        if not out["found"].found:
            problems.append("find_K found no K on the straightened map")
        dom = out["domination"]
        if not (dom.slice_rows and dom.persistence_rows):
            problems.append("domination report is empty")
        for q, p in zip(self.points, out["preimages"]):
            s_ref, u_ref = reference.square_graph_inverse(q.s[0], q.u[0])
            err = max(abs(p.s[0] - float(s_ref)), abs(p.u[0] - float(u_ref)))
            if err > 1e-12 or not np.array_equal(p.x, q.x):
                problems.append(f"inverse at ({q.s[0]:.3g}, {q.u[0]:.3g}) off the fixed point by {err:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (LambdaMesh, HamReturns, BudgetStraightened)}
