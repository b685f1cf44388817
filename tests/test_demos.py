"""Smoke test: every demo script runs to completion against the package.

Each demo runs with -W error, so a warning fails it as the suite's
filterwarnings = error fails a test, and through `helpers.run_python`, so
no variable of the test run's environment reaches it.
"""

import pytest

from helpers import REPO, run_python

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python("-W", "error", str(demo), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "02_minus_continued_fractions.py":
        # The flagship's digits by `step`, its period blocks from `expand`
        # and its cycle; the conjugate's two preperiod digits.
        assert "  preperiod ()\n  period (8, 2, 4, 3, 12)\n" in proc.stdout
        assert "  period blocks (0, 8, 1, 4, 0, 3, 0, 12), cycle (2, 4, 3, 12, 8)\n" in proc.stdout
        assert "  preperiod (1, 9)\n" in proc.stdout


def test_child_interpreters_get_only_the_runner_environment(monkeypatch):
    # A variable of the test run, such as one that strips asserts or hides
    # warnings, must not reach a demo or any other child interpreter.
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    monkeypatch.setenv("PYTHONWARNINGS", "ignore")
    proc = run_python("-c", "import sys; print(sys.flags.optimize, sys.warnoptions)", capture_output=True, text=True)
    assert proc.stdout == "0 []\n"
