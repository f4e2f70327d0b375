import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo):
    """Run a demo in a fresh interpreter that turns every warning into an error:
    pyproject's ``filterwarnings`` reaches only the pytest process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run_demo(demo)


def test_mean_field_demo_prints_the_exact_coverage_numbers():
    # G_N(12) = F^N + h at N = 2 and N = 16; nothing is sampled, so a
    # second run prints the same bytes
    demo = ROOT / "demos" / "05_mean_field.py"
    out = run_demo(demo)
    assert "0.62213" in out and "0.52925" in out
    assert run_demo(demo) == out
