"""Smoke test: every demo script runs to completion against the package.

Each demo runs with -W error, so a warning fails it as the suite's
filterwarnings = error fails a test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name == "02_minus_continued_fractions.py":
        # The flagship's digits by `step`, its period blocks from `expand`
        # and its cycle; the conjugate's two preperiod digits.
        assert "  preperiod ()\n  period (8, 2, 4, 3, 12)\n" in proc.stdout
        assert "  period blocks (0, 8, 1, 4, 0, 3, 0, 12), cycle (2, 4, 3, 12, 8)\n" in proc.stdout
        assert "  preperiod (1, 9)\n" in proc.stdout
