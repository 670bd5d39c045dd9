"""nhimlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload lambda-mesh --seed 1 --seconds 10 --trace 0

The program measured is the checkout's ``src/nhimlab`` on the Python
backend.  Every measurement is made in fresh processes started from here,
one at a time, with BLAS threads pinned to one.  With ``--trace 0`` the
last line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The workloads, metrics and reference figures are
described in README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
WORKLOADS = ("lambda-mesh", "ham-returns", "budget-straightened")
PROCESSES = 5  # fresh processes per run; each gives one set-up and one cold solve
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NHIM_NUMBA"] = "0"  # the Python backend; numbers from the two backends never mix
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, deadline, python_flags=()):
    """Run one child to its end and return its stdout and stderr."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a child process")
    proc = subprocess.run(
        [sys.executable, *python_flags, *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout, proc.stderr


def worker(workload, seed, seconds, trace, check, deadline):
    workdir = WORKDIR / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    args = [str(HERE / "worker.py"), workload, str(seed), str(workdir), str(seconds), str(trace), str(int(check))]
    out, _ = spawn(args, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    if Path(result["nhimlab"]).resolve().parent != (SRC / "nhimlab").resolve():
        raise RuntimeError(f"measured {result['nhimlab']}, not this checkout's src/nhimlab")
    return result


def import_ms(deadline):
    """Cumulative import time of nhimlab.normalform, from -X importtime."""
    _, err = spawn(["-c", "import nhimlab"], deadline, python_flags=("-X", "importtime"))
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*nhimlab\.normalform\s*$", line)
        if m:
            return int(m.group(1)) / 1000.0
    raise RuntimeError("-X importtime reported no nhimlab.normalform")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "nhimlab" / "__init__.py").is_file():
        sys.exit(f"no nhimlab sources under {SRC}")

    try:
        if args.trace:
            runs = [worker(args.workload, args.seed, args.seconds, 1, True, deadline)]
            metrics = dict(runs[0]["layers"])
            metrics["normalform.import_ms"] = (import_ms(deadline), "ms")
        else:
            # the first process checks the outputs in full; the others must
            # reproduce its outputs bit for bit
            runs = [worker(args.workload, args.seed, args.seconds / PROCESSES, 0, i == 0, deadline)
                    for i in range(PROCESSES)]
            solve_times = [t for r in runs for t in r["solve_times"]]
            metrics = {
                "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
                "cold_solve_s": (statistics.median(r["cold_solve_s"] for r in runs), "s"),
                "solve_s": (statistics.median(solve_times), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
            }
            for key in ("setup_s", "cold_solve_s"):
                print(f"{key} samples: {' '.join(f'{r[key]:.4f}' for r in runs)}")
            print(f"solve_s samples ({len(solve_times)}): {' '.join(f'{t:.4f}' for t in solve_times)}")
    finally:
        try:
            WORKDIR.rmdir()  # each worker removes its own directory
        except OSError:
            pass

    problems = [p for r in runs for p in r["problems"]]
    if len({r["digest"] for r in runs}) != 1:
        problems.append("processes disagree on the outputs")
    backends = {r["backend"] for r in runs}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload} seed {args.seed} backend {','.join(sorted(backends))} "
          f"processes {len(runs)} attempted {attempted} failed {failed}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and backends == {"python"},
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
