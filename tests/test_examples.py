"""Every shipped example must run to completion (they assert their own
invariants internally, so exit code 0 is a real check)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", ["256"]),
    ("kvstore_crash_recovery.py", []),
    ("attack_detection.py", []),
    ("battery_sizing.py", ["256"]),
    ("persistence_spectrum.py", ["a", "800"]),
    ("platform_study.py", ["256"]),
]


@pytest.mark.parametrize("script,args", CASES,
                         ids=[case[0] for case in CASES])
def test_example_runs_clean(script, args):
    path = EXAMPLES / script
    assert path.exists(), f"example {script} missing"
    proc = subprocess.run([sys.executable, str(path), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must narrate what they show"


def test_every_example_file_is_exercised():
    """No example may silently rot outside this test matrix."""
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    covered = {script for script, _ in CASES}
    assert on_disk == covered
