"""Run a set of benchmark runs and summarise it against the bounds in BENCHMARK.json.

    python3 perfbench/sets.py --seeds 1-10 [--compare old.json]

For every workload in BENCHMARK.json, runs ``run.py`` once per seed at
BENCHMARK.json's ``run_seconds``, one run at a time, and
prints for each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (quartile distance
over the median), plus the share of failed operations.  With ``--compare
old.json`` it also prints each median's change against an earlier set.
The raw results go to perfbench/results/set-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--compare", type=Path, default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    old = json.loads(args.compare.read_text())["summary"] if args.compare else {}

    runs, summary = {}, {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.monotonic() - t0
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs[workload]}
        summary[workload] = {"failed_share": sorted(shares), "metrics": {}}
        for name in runs[workload][0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs[workload]])
            summary[workload]["metrics"][name] = s
            before = old.get(workload, {}).get("metrics", {}).get(name)
            change = f" change {s['median'] / before['median'] - 1:+.3f}" if before else ""
            bound = f" (bound {bounds[name]})"
            print(f"  {workload} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                  f"spread {s['spread']:.3f}{bound}{change}", flush=True)
        print(f"  {workload} failed share {summary[workload]['failed_share']}", flush=True)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"set-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args) | {"compare": str(args.compare)},
                                "summary": summary, "runs": runs}, indent=1, default=str))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
