"""Every CLI report in the benchmark matches its recorded golden copy.

One pass of each benchmark workload runs in a fresh interpreter; the pass
checks every operation's output against perfbench/golden/ byte for byte
and prints the failures it found.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hom-scan", "ext-calculus", "glue-truncate")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_goldens(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1",
         "--started", str(time.time()), "--root", str(ROOT)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failures"] == [], done.stderr
