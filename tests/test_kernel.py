"""One limiter kernel: every public view of g agrees bit for bit, no
module imports another module's private names, and one step-size
controller serves every integration."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import kswave
from kswave.errors import DomainError
from kswave.flux import (
    LARSON,
    LINEAR,
    RELATIVISTIC,
    FluxLimiter,
    boundary_exponent,
    g_inverse,
    g_prime,
    make_boundary_factor,
    make_g,
)
from kswave.integrate import BoundaryZone
from kswave.phase import ModelParams, make_rhs, rhs

LIMITERS = [
    FluxLimiter(LINEAR, mu=1.3),
    FluxLimiter(RELATIVISTIC, mu=0.7, c=2.0),
    FluxLimiter(LARSON, mu=1.1, c=0.8, p=3.0),
]
SATURATED = [lim for lim in LIMITERS if lim.saturated]


def probes(lim: FluxLimiter) -> list[float]:
    c = lim.c
    edge = c * (1.0 - 1e-12)
    return [0.0, 0.37 * c, -0.81 * c, 0.999 * c, edge, -edge]


@pytest.mark.parametrize("lim", LIMITERS, ids=lambda lim: lim.kind)
def test_g_inverse_is_make_g_bit_for_bit(lim):
    g = make_g(lim)
    for y in probes(lim):
        assert g_inverse(lim, y) == g(y)


@pytest.mark.parametrize("lim", LIMITERS, ids=lambda lim: lim.kind)
def test_rhs_is_make_rhs_bit_for_bit(lim):
    p = ModelParams(a=1.7, sigma=0.4, gamma=0.9, lam=1.2, limiter=lim)
    f = make_rhs(p)
    for y in probes(lim):
        v = (y + p.sigma) / p.a
        for w in (1e-9, 0.6, 4.0):
            assert rhs(p, w, v) == f(w, v)


@pytest.mark.parametrize("lim", SATURATED, ids=lambda lim: lim.kind)
def test_one_guard_rejects_nan_and_the_boundary(lim):
    g = make_g(lim)
    for y in (math.nan, lim.c, -lim.c, 3.0 * lim.c):
        for fn in (g, lambda y: g_inverse(lim, y), lambda y: g_prime(lim, y)):
            with pytest.raises(DomainError):
                fn(y)


@pytest.mark.parametrize("lim", SATURATED, ids=lambda lim: lim.kind)
@pytest.mark.parametrize("side", [+1, -1])
def test_boundary_factor_uses_the_kernel_away_from_the_edge(lim, side):
    a = 1.3
    m = boundary_exponent(lim)
    factor = make_boundary_factor(lim, a=a, side=side)
    g = make_g(lim)
    for frac in (0.6, 0.8, 0.95):  # x = a*q^m/c above the small-q branch
        q = (frac * lim.c / a) ** (1.0 / m)
        y = side * (lim.c - a * q**m)
        assert factor(q) == g(y) * q ** (m - 1.0)


@pytest.mark.parametrize("lim", SATURATED, ids=lambda lim: lim.kind)
@pytest.mark.parametrize("side", [+1, -1])
def test_boundary_leg_is_the_boundary_factor_bit_for_bit(lim, side):
    # a graph leg's one call per boundary evaluation forms its drive from
    # the boundary factor itself, in each of the factor's three branches
    p = ModelParams(a=1.3, sigma=0.2, limiter=lim)
    zone = BoundaryZone.of(p, side)
    leg = zone.leg(p)
    factor = make_boundary_factor(lim, a=p.a, side=side)
    m = boundary_exponent(lim)
    dv_scale = -side * m
    branches = set()
    for x in (0.0, 1e-40, 1e-33, 1e-20, 1e-6, 0.3, 0.49, 0.51, 0.8, 0.999):
        q = (x * lim.c / p.a) ** (1.0 / m)
        x_q = p.a * q**m / lim.c
        branches.add("tiny" if x_q < 1e-32 else "small" if x_q <= 0.5 else "large")
        v, dv = zone.v(q), dv_scale * q ** (m - 1.0)
        assert leg(q) == (v, dv, dv_scale * factor(q) - dv * v)
    assert branches == {"tiny", "small", "large"}


def _private_cross_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "kswave"
        if internal:
            found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    src = Path(kswave.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _private_cross_imports(path)]
    assert found == []


def test_step_size_controller_lives_only_in_the_march():
    # orbits and graph legs share one step-size controller: its constants
    # are read nowhere but in integrate._march
    path = Path(kswave.__file__).parent / "integrate.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {"_SAFETY", "_FAC_MIN", "_FAC_MAX"}
    march = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_march"]
    assert len(march) == 1
    inside = {id(n) for n in ast.walk(march[0])}
    reads = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id in names and isinstance(n.ctx, ast.Load)
    ]
    assert {n.id for n in reads} == names
    assert [(n.id, n.lineno) for n in reads if id(n) not in inside] == []
