"""Smoke test: each script in demos/ runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["detect_long_cycle.py", "exact_vs_sampling.py", "family_census.py"]
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if name == "exact_vs_sampling.py":
        # seeded, so the sampled interval is the same on every run
        assert "exact value inside interval: True" in proc.stdout
