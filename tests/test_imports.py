"""Import cost: `import kswave` and `import kswave.cli` load neither SciPy nor
the process-pool machinery, and no computation loads SciPy: kswave does not
depend on it.  No kswave module imports a process pool: a sweep runs in one
process.  numpy is imported only where it is used, so the README's
`equilibria`, `shoot`, `portrait`, linear `profile` and `sweep` commands run
without it.  No kswave module imports a private (underscore) name from
another."""

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
        "assert leg.W[0] == 0.3, leg.W[0]\n"
        "report()\n"
    )
    assert "kswave.profiles" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def imported_packages(nodes) -> list[str]:
    """Top-level package names of the Import and ImportFrom nodes among nodes."""
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module or "").split(".")[0])
    return names


def run_at_import(tree: ast.Module):
    """The nodes of a module that run when it is imported: all but function
    bodies and `if TYPE_CHECKING:` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and (
            node.test.id == "TYPE_CHECKING"
        ):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def parsed_sources():
    for path in sorted((SRC / "kswave").glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_scipy():
    for name, tree in parsed_sources():
        assert "scipy" not in imported_packages(ast.walk(tree)), name


def test_no_module_imports_a_process_pool():
    for name, tree in parsed_sources():
        packages = imported_packages(ast.walk(tree))
        assert "concurrent" not in packages and "multiprocessing" not in packages, name


def test_no_module_imports_numpy_at_import_time():
    for name, tree in parsed_sources():
        assert "numpy" not in imported_packages(run_at_import(tree)), name


def test_no_private_name_crosses_modules():
    # a name with a leading underscore stays in the module that defines it
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "kswave"
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert private == [], (name, node.module, private)


# the README commands that never need an array
NUMPY_FREE_COMMANDS = [
    ["equilibria", "--a", "2", "--sigma", "0.5", "--out", "out/"],
    ["shoot", "--a", "1", "--sigma", "0.5", "--v0", "2", "--out", "out/"],
    ["portrait", "--a", "0.5", "--sigma", "0.75", "--w-grid", "1.5,2.5",
     "--v-grid=-0.5,1.5", "--out", "out/"],
    ["profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2", "--out", "out/"],
    ["sweep", "--a-values", "0.5,1,2", "--sigma-factors", "0.5,1.5", "--check-samples", "5",
     "--out", "out/"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_loads_no_numpy(argv, tmp_path):
    (modules,) = loaded_after(
        "import contextlib, io, os\n"
        "from kswave.cli import main\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code\n"
        "report()\n"
    )
    assert "kswave.cli" in modules
    assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []
    assert heavy(modules) == []
    assert any((tmp_path / "out").iterdir())
    if argv[0] == "sweep":
        # the spot checks draw from the stdlib generator, and every one holds
        points = json.loads((tmp_path / "out" / "sweep.json").read_text())["points"]
        assert [row["checks"] for row in points] == [{"n": 5, "correct": 5}] * 6
