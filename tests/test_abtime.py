"""tools/abtime.py, run on this checkout against itself."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_abtime_times_a_checkout_against_itself_for_one_corpus_round():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "abtime.py"), str(ROOT), str(ROOT),
         "--workload", "corpus", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    head, check, run = proc.stdout.splitlines()
    assert head == "corpus seed 1, 1 rounds"
    assert check.startswith("  check: 32 units, median change/parent ")
    assert run.startswith("  run: 8 units, median change/parent ")
    assert float(check.split()[-1]) > 0 and float(run.split()[-1]) > 0


def test_abtime_times_start_up_of_a_checkout_against_itself_for_one_pair():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "abtime.py"), str(ROOT), str(ROOT),
         "--setup", "--workload", "kernel", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    head, parent, change, wins = proc.stdout.splitlines()
    assert head == "kernel seed 1, set-up, 1 pairs"
    for line, name in ((parent, "parent"), (change, "change")):
        median, q1, q3 = (float(line.split()[i]) for i in (2, 5, 6))
        assert line.startswith(f"  {name}: median ") and 0 < median == q1 == q3 < 60
    assert wins in ("  change faster in 0 of 1 pairs", "  change faster in 1 of 1 pairs")
