"""Smoke test: each script in demos/ runs to completion against src/."""

import os
import re
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
        # coverage over seeds, not one seed: 20 Wilson 95% intervals, of
        # which fewer than 16 cover with probability 0.003, and the pooled
        # estimate within 4 Wilson half-widths, as in criterion 5
        covered = re.search(r"^intervals covering the exact value: (\d+) of 20$",
                            proc.stdout, re.M)
        assert covered and int(covered[1]) >= 16, proc.stdout
        assert "pooled estimate within 4 Wilson half-widths: True" in proc.stdout
