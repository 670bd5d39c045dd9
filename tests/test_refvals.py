import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_refvals_match_their_generator():
    # tests/_refvals.py is generated; a formula edited on one side only shows here
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "derive_reference_values.py")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == (ROOT / "tests" / "_refvals.py").read_text()
