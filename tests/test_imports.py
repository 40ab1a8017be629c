"""Import cost: `import kswave` and `import kswave.cli` load neither SciPy nor
the process-pool machinery; SciPy loads on the first graph leg only."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> list[str]:
    """Names in sys.modules, sampled at each `report()` in code run in a fresh process."""
    prelude = (
        "import json, sys\n"
        "def report():\n"
        "    print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def heavy(modules: list[str]) -> list[str]:
    return [m for m in modules
            if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"]


@pytest.mark.parametrize("module", ["kswave", "kswave.cli"])
def test_import_loads_no_scipy_and_no_process_pool(module):
    (modules,) = loaded_after(f"import {module}\nreport()\n")
    assert module in modules
    assert heavy(modules) == []


def test_saturated_front_loads_scipy_when_called():
    before, after = loaded_after(
        "from kswave import FluxLimiter, ModelParams, saturated_front\n"
        "p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter('relativistic', c=1.0))\n"
        "report()\n"
        "prof = saturated_front(p, 0.5, 5.0, branch='above')\n"
        "assert prof.s_minus is not None and prof.s_plus is not None, prof\n"
        "report()\n"
    )
    assert heavy(before) == []
    assert "scipy.integrate" in after
