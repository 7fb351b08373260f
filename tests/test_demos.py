"""The demos that run in seconds run clean under -W error: 01 and 02, and 04,
which trains a small model for 100 steps and must find its planted
spike.  03 trains longer and is left to be run by hand."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo,expected", [
    ("01_distances.py", "cache round-trip bit-exact: True"),
    ("02_soft_assignments.py", "level 3: effective tau =  8.0, w(gap=1) = 0.0007"),
    ("04_anomaly.py", "score argmax at 40"),
])
def test_fast_demo_runs_without_warnings(tmp_path, demo, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert expected in run.stdout
