"""The verdicts of tools/bench_pairs.py on hand-made metric records."""

import importlib.util
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def record(parent_runs, change_runs):
    """A metric record as ``workload_record`` builds it, from the runs of both sides."""
    parent, change = bench_pairs.summary(parent_runs), bench_pairs.summary(change_runs)
    pairs = list(zip(parent_runs, change_runs))
    return {
        "parent": parent,
        "change": change,
        "change_over_parent": change["median"] / parent["median"] - 1.0,
        "change_wins": sum(c < p for p, c in pairs),
        "change_losses": sum(c > p for p, c in pairs),
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def test_a_wide_parent_spread_is_unresolved_unless_the_runs_do_not_overlap():
    # the change wins both pairs, but its slower run is slower than the parent's faster one
    overlapping = record([1.0, 2.0], [0.9, 1.5])
    assert overlapping["change_wins"] == 2
    assert bench_pairs.verdict(overlapping, 0.25) == "unresolved"
    # runs apart are judged on: here level, as the drop is within the parent's quartile spread
    assert bench_pairs.verdict(record([1.0, 2.0], [0.5, 0.9]), 0.25) == "level"
    # a tie between the change's slowest and the parent's fastest run is an overlap
    assert bench_pairs.verdict(record([1.0, 2.0], [0.5, 1.0]), 0.25) == "unresolved"


def test_the_other_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert bench_pairs.verdict(record(parent, [1.5 * p for p in parent]), 0.25) == "worse"
    assert bench_pairs.verdict(record(parent, [0.7 * p for p in parent]), 0.25) == "better"
    assert bench_pairs.verdict(record(parent, [p + 0.001 for p in parent]), 0.25) == "level"
    # nine wins in ten with a drop larger than the parent's quartile spread are enough; eight are not
    nine = [0.7 * p for p in parent[:9]] + [2.0 * parent[9]]
    assert statistics.median(nine) < statistics.median(parent)
    assert bench_pairs.verdict(record(parent, nine), 0.25) == "better"
    eight = [0.7 * p for p in parent[:8]] + [2.0 * p for p in parent[8:]]
    assert bench_pairs.verdict(record(parent, eight), 0.25) == "level"
