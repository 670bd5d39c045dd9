"""One fresh benchmark process.  ``run.py`` starts it; it is not run by hand.

    worker.py <workload> <seed> <workdir> <seconds> <trace> <check>

Imports nhimlab and builds the workload's inputs (set-up), makes the cold
solve, then timed solves until <seconds> of solve time have passed.  The
cold solve is the process's one warm-up: it is timed on its own and never
counted in the later solves.  Every later solve must reproduce the cold
solve bit for bit.  With <trace> 1 the later solves run untraced for half
the time and traced for the other half.  With <check> 1 the cold solve's
outputs are checked in full after the timing ends.  Prints one JSON line.

The program is whatever ``nhimlab`` the parent put on PYTHONPATH; the
parent checks that it is the checkout's own.
"""

import time

T_START = time.perf_counter()  # before nhimlab, numpy or any workload import

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(workload, seed, workdir, tracer=None):
    import nhimlab  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed, workdir, tracer)


def _timed_solves(w, seconds, reference, problems, tracer=None):
    """Solve until ``seconds`` of solve time have passed (at least once).
    With a tracer, returns the per-layer metrics of each solve as well."""
    times, per_solve = [], []
    while not times or sum(times) < seconds:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        out = w.solve()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            per_solve.append(tracer.layer_metrics())
        if w.digest(out) != reference:
            problems.append(f"solve {len(times)} differs from the cold solve")
    return times, per_solve


def _traced(workload, seed, workdir, seconds, reference, problems):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    w = _setup(workload, seed, workdir / "traced", tracer)
    times, per_solve = _timed_solves(w, seconds, reference, problems, tracer)
    layers = {}
    for name, (_, unit) in per_solve[0].items():
        values = [m[name][0] for m in per_solve]
        exact = unit in ("count", "ratio")
        layers[name] = (values[0] if exact else statistics.median(values), unit)
        if exact and any(v != values[0] for v in values):
            problems.append(f"{name} differs between traced solves")
    return times, layers


def main(argv):
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    seconds, trace, check = float(argv[3]), argv[4] == "1", argv[5] == "1"
    try:
        w = _setup(workload, seed, workdir / "plain")
        setup_s = time.perf_counter() - T_START
        import nhimlab
        from nhimlab import _kernels

        problems = []
        t0 = time.perf_counter()
        cold = w.solve()
        cold_solve_s = time.perf_counter() - t0
        reference = w.digest(cold)
        result = {
            "nhimlab": nhimlab.__file__,
            "backend": _kernels.backend_name(),
            "setup_s": setup_s,
            "cold_solve_s": cold_solve_s,
            "digest": hashlib.sha256(reference).hexdigest(),
        }
        if trace:
            untraced, _ = _timed_solves(w, seconds / 2, reference, problems)
            traced, layers = _traced(workload, seed, workdir, seconds / 2, reference, problems)
            layers["trace.solve_s"] = (statistics.median(traced), "s")
            layers["trace.untraced_solve_s"] = (statistics.median(untraced), "s")
            layers["trace.overhead"] = (layers["trace.solve_s"][0] / layers["trace.untraced_solve_s"][0], "ratio")
            result["layers"] = layers
            times = untraced + traced
        else:
            times, _ = _timed_solves(w, seconds, reference, problems)
        result["solve_times"] = times
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        solves = 1 + len(times)
        result["attempted"] = solves * len(w.OPS)
        # every solve reproduced the cold one, so each failed as it did
        result["failed"] = solves * w.failed(cold)
        if check:
            try:
                problems.extend(w.check(cold))
            except Exception as exc:  # a check that cannot run is a failed check
                problems.append(f"output check raised {exc!r}")
        result["problems"] = problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
