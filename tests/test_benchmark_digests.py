"""The benchmark's outputs, pinned bit for bit.

Each workload in ``perfbench/`` hashes everything its cold solve produced
(CLI report bytes, mesh orbits, return states) into one digest and checks
the outputs against mpmath recomputations.  A change that keeps the numbers
keeps these digests; one that moves any output bit changes them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")  # perfbench/reference.py checks the outputs with it

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = {
    "lambda-mesh": "2d849937e04a94c77ee7928abed8dd40eb74417c63e5d1f5b66649f255372d86",
    "ham-returns": "c2e1eeecd1cff3748b72a0b20f2d4573c49aedc09cd4f2c4e7bf7e28c07b6602",
    "budget-straightened": "d58a13e0b3d0802e0b36f8b1b9c1e93aee4fc532f8fa70c87e749761baffdc35",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_digest(tmp_path, workload):
    # the environment perfbench/run.py gives its workers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    worker = ROOT / "perfbench" / "worker.py"
    # seed 1, 0.1 s of timed solves after the cold one, untraced, outputs checked
    argv = [sys.executable, str(worker), workload, "1", str(tmp_path / "work"), "0.1", "0", "1"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert Path(result["nhimlab"]).resolve() == ROOT / "src" / "nhimlab" / "__init__.py"
    assert result["problems"] == []
    assert result["digest"] == DIGESTS[workload]
