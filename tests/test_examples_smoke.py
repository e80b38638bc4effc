"""Smoke tests: the example scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# The fast subset (the heavier demos are exercised by the benchmarks'
# shared experiment functions anyway).
FAST = ["quickstart.py", "slt_walkthrough.py", "message_timeline.py",
        "leader_and_termination.py", "trace_demo.py", "replay_demo.py"]


@pytest.mark.parametrize("script", FAST)
def test_example_runs(script, tmp_path):
    # Examples that write files (trace_demo.py) put them in a fresh
    # tempfile directory and print its path for the reader; point TMPDIR
    # at pytest's tmp_path so those directories are cleaned up.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
