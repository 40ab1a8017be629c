"""Import cost: `import kswave` and `import kswave.cli` load neither SciPy nor
the process-pool machinery, and no computation loads SciPy: kswave does not
depend on it."""

from __future__ import annotations

import ast
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


def test_graph_legs_load_no_scipy():
    # a relativistic and a Larson front, and a W-form graph leg of a
    # linear model toward a finite target, all on kswave's own stepper
    (modules,) = loaded_after(
        "import kswave\n"
        "from kswave import FluxLimiter, ModelParams, saturated_front\n"
        "from kswave.integrate import integrate_graph_W\n"
        "for lim in (FluxLimiter('relativistic', c=1.0), FluxLimiter('larson', c=1.0, p=2.5)):\n"
        "    p = ModelParams(a=1.0, sigma=0.5, limiter=lim)\n"
        "    prof = saturated_front(p, 0.5, 5.0, branch='above')\n"
        "    assert prof.s_minus < prof.s_plus, prof\n"
        "leg = integrate_graph_W(ModelParams(a=0.5, sigma=0.3), 0.0, 0.3, 0.5)\n"
        "assert leg.mode == 'W', leg.mode\n"
        "report()\n"
    )
    assert "kswave.profiles" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_no_module_imports_scipy():
    for path in sorted((SRC / "kswave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)
