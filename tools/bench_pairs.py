"""Interleaved parent/change benchmark pairs, written as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --pr 15 --seeds 100-109 \
        --change "what the change does" [--workloads lambda-mesh,...]

The workloads and the run length (``run_seconds``) are the ones
``BENCHMARK.json`` declares; ``--workloads`` picks some of them.  For every
workload and seed it runs ``perfbench/run.py --trace 0`` once in
the parent checkout and once in this one, one run at a time: the parent
first on odd seeds, the change first on even seeds.  Each side measures its
own ``src/nhimlab``.  The record holds, per workload and end-to-end metric,
the runs of both sides, their medians and quartiles, and how many pairs the
change wins and loses (ties count for neither); also the failed operations,
whether every run passed its checks, the backend, the machine, and
``wc -l src/nhimlab/*.py`` of both sides.  Standard library only.

Each end-to-end metric of ``BENCHMARK.json`` (all lower-is-better) gets a
``verdict`` against its ``bound``: ``worse`` when the change's median over
the parent's, less 1, exceeds the bound; ``unresolved`` when the parent's
quartile spread over its median exceeds the bound, unless every run of the
change reads lower than every run of the parent; ``better`` when the change wins at least nine pairs in ten
and its median undercuts the parent's by more than the parent's quartile
spread; ``level`` otherwise.  After writing the record the tool exits 1 when
a verdict is ``worse``, a run failed its checks, or the change failed more
operations than the parent on a workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text):
    """'100-109' or '3,5,8' as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in a checkout: (backend, its final JSON record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    backend = next(line.split(" backend ")[1].split()[0] for line in lines if line.startswith("workload "))
    return backend, json.loads(lines[-1])


def source_lines(checkout):
    return sum(p.read_bytes().count(b"\n") for p in sorted((Path(checkout) / "src" / "nhimlab").glob("*.py")))


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def machine():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {
        "cpus": os.cpu_count(),
        "cpu": cpu,
        "arch": platform.machine(),
        "os": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def end_to_end_bounds(spec):
    """name -> bound of the end-to-end metrics in the BENCHMARK.json record ``spec``."""
    metrics = spec["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        sys.exit("verdicts assume lower is better for every end-to-end metric")
    return {m["name"]: m["bound"] for m in metrics}


def verdict(metric, bound):
    """``worse``, ``unresolved``, ``better`` or ``level`` for one metric record, as in the module docstring."""
    parent, change = metric["parent"], metric["change"]
    spread = parent["q3"] - parent["q1"]
    pairs = len(metric["parent_runs"])
    if metric["change_over_parent"] > bound:
        return "worse"
    if spread / parent["median"] > bound and not max(metric["change_runs"]) < min(metric["parent_runs"]):
        return "unresolved"
    if metric["change_wins"] >= 0.9 * pairs and parent["median"] - change["median"] > spread:
        return "better"
    return "level"


def workload_record(parent, workload, seeds, seconds, backends, bounds):
    sides = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            backend, result = run_once(parent if side == "parent" else ROOT, workload, seed, seconds)
            backends.add(backend)
            sides[side].append(result)
            solve = result["metrics"]["solve_s"]["value"]
            print(f"{workload} seed {seed} {side}: solve_s {solve:.4f} correct {result['correct']}", file=sys.stderr)
    metrics = {}
    for name, meta in sides["parent"][0]["metrics"].items():
        runs = {side: [r["metrics"][name]["value"] for r in results] for side, results in sides.items()}
        pairs = list(zip(runs["parent"], runs["change"]))
        parent, change = summary(runs["parent"]), summary(runs["change"])
        metrics[name] = {
            "unit": meta["unit"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"] - 1.0,
            "change_wins": sum(c < p for p, c in pairs),
            "change_losses": sum(c > p for p, c in pairs),
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
        if name in bounds:
            metrics[name]["bound"] = bounds[name]
            metrics[name]["verdict"] = verdict(metrics[name], bounds[name])
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "metrics": metrics,
        "failed_ops": {
            "parent": [r["failed"] for r in sides["parent"]],
            "change": [r["failed"] for r in sides["change"]],
            "attempted_parent": [r["attempted"] for r in sides["parent"]],
            "attempted_change": [r["attempted"] for r in sides["change"]],
        },
        "correct": {side: all(r["correct"] for r in results) for side, results in sides.items()},
    }


def regressions(workloads):
    """What makes the change fail: worse verdicts, runs that failed their checks, more failed operations."""
    problems = []
    for w, rec in workloads.items():
        problems += [f"{w} {name} is worse than the parent by {m['change_over_parent']:+.1%} (bound {m['bound']:.0%})"
                     for name, m in rec["metrics"].items() if m.get("verdict") == "worse"]
        problems += [f"{w}: a {side} run failed its checks" for side, ok in rec["correct"].items() if not ok]
        failed = {side: sum(rec["failed_ops"][side]) for side in ("parent", "change")}
        if failed["change"] > failed["parent"]:
            problems.append(f"{w}: the change failed {failed['change']} operations, the parent {failed['parent']}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--pr", required=True, type=int, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--seeds", required=True, type=seed_list, help="e.g. 100-109 or 3,5,8")
    ap.add_argument("--change", required=True, help="one sentence on what the change does")
    ap.add_argument("--workloads", help="comma-separated subset of the workloads in BENCHMARK.json (default: all)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workloads is None else args.workloads.split(",")
    unknown = [w for w in chosen if w not in names]
    if unknown:
        sys.exit(f"BENCHMARK.json lists no workload {', '.join(unknown)}; it lists {', '.join(names)}")
    seconds = spec["run_seconds"]
    parent = args.parent.resolve()
    if len(args.seeds) < 2:
        sys.exit("need at least two seeds for quartiles")
    if not (parent / "perfbench" / "run.py").is_file():
        sys.exit(f"no perfbench/run.py under {parent}")

    backends, bounds = set(), end_to_end_bounds(spec)
    workloads = {w: workload_record(parent, w, args.seeds, seconds, backends, bounds) for w in chosen}
    seeds = f"{args.seeds[0]}..{args.seeds[-1]}"
    record = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload <w> --seed <{seeds}> --seconds {seconds:g} --trace 0",
        "method": (
            f"{len(args.seeds)} interleaved parent/change pairs per workload, by tools/bench_pairs.py: "
            "the parent first on odd seeds and the change first on even seeds, one run at a time, each "
            "side in its own checkout. Medians and quartiles are statistics.median and "
            "statistics.quantiles(n=4) over the runs of each side; change_wins counts pairs where the "
            "change reads lower, ties counting for neither. Each end-to-end metric's verdict is judged "
            "against its bound in BENCHMARK.json, as the docstring of tools/bench_pairs.py sets out."
        ),
        "backend": ",".join(sorted(backends)),
        "machine": machine(),
        "source_lines": {"parent": source_lines(parent), "change": source_lines(ROOT),
                         "command": "wc -l src/nhimlab/*.py"},
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    problems = regressions(workloads)
    for problem in problems:
        print(f"regression: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
