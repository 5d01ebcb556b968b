"""Smoke test: every narrative demo runs to the end on numpy alone and prints
its results."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    """The demo runs in a fresh interpreter with scipy made unimportable (this
    one has loaded it for the oracles), and no scipy module is loaded."""
    script = f"""
import json, runpy, sys
sys.modules["scipy"] = None  # importing scipy or any submodule now fails
runpy.run_path({str(path)!r}, run_name="__main__")
print(json.dumps(sorted(m for m, module in sys.modules.items()
                        if m.split(".")[0] == "scipy" and module is not None)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *printed, loaded = proc.stdout.splitlines()
    assert "".join(printed).strip() and json.loads(loaded) == []


def test_demos_found():
    assert len(DEMOS) >= 5
