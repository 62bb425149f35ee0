"""tools/gcobjects.py, run on this checkout with small units."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["chain", "fanout"])
def test_gcobjects_counts_what_one_analyze_keeps_per_function(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gcobjects.py"), "--workload", workload,
         "--functions", "60", "--repeats", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    head, *repeats = proc.stdout.splitlines()
    fns = int(head.split(", ")[1].split()[0])
    assert head == f"{workload} seed 1, {fns} functions, 2 repeats" and 50 <= fns <= 70
    assert len(repeats) == 2
    for line in repeats:
        count, per = int(line.split()[0]), float(line.split()[2])
        assert line == f"  {count} objects, {per:.1f} per function"
        assert 0 < count and abs(per - count / fns) < 0.05
