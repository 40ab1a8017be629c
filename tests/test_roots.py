"""Brent's method: bit-identical to `scipy.optimize.brentq` on random brackets
and on brackets recorded from kswave's own call sites, its failure modes,
and the CLI exit codes they map to."""

from __future__ import annotations

import importlib
import math
import random

import pytest
from scipy.optimize import brentq as scipy_brentq

from kswave import cli, phase, roots
from kswave.errors import KswaveError, RootNotFound
from kswave.flux import LARSON, RELATIVISTIC, FluxLimiter, make_g
from kswave.phase import ModelParams, equilibria, nullclines
from kswave.roots import brentq
from kswave.shooting import find_w0_star


def random_problem(rng: random.Random):
    """A function with a simple root r, and a bracket around r."""
    r = rng.uniform(-3.0, 3.0)
    k = 10.0 ** rng.uniform(-3.0, 3.0)
    n = rng.choice([1, 3, 5])
    f = rng.choice(
        [
            lambda x: math.atan(k * (x - r)),
            lambda x: k * (x - r) ** n + 1e-3 * (x - r),
            lambda x: math.expm1(min(k * (x - r), 700.0)),
            lambda x: (x - r) * (1.5 + math.cos(k * x)),
        ]
    )
    a, b = r - 10.0 ** rng.uniform(-8.0, 1.0), r + 10.0 ** rng.uniform(-8.0, 1.0)
    if rng.random() < 0.5:
        a, b = b, a
    return f, a, b, rng.choice([1e-15, 1e-14, 2e-12, 1e-6])


def test_matches_scipy_on_random_brackets():
    rng = random.Random(20_000)
    for _ in range(20_000):
        f, a, b, xtol = random_problem(rng)
        assert brentq(f, a, b, xtol).hex() == scipy_brentq(f, a, b, xtol=xtol).hex()


class RecordingBrent:
    """Stands in for a module's `brentq`: checks each call against SciPy's."""

    def __init__(self):
        self.calls = 0

    def __call__(self, f, a, b, xtol):
        x = brentq(f, a, b, xtol)
        assert x.hex() == scipy_brentq(f, a, b, xtol=xtol).hex()
        self.calls += 1
        return x


@pytest.mark.parametrize(
    "limiter",
    [FluxLimiter(RELATIVISTIC, c=1.0), FluxLimiter(LARSON, c=1.5, p=2.5)],
    ids=[RELATIVISTIC, LARSON],
)
def test_matches_scipy_on_slope_balance_brackets(monkeypatch, limiter):
    spy = RecordingBrent()
    monkeypatch.setattr(phase, "brentq", spy)
    equilibria(ModelParams(a=1.0, sigma=0.1, limiter=limiter))
    assert spy.calls >= 1


def test_matches_scipy_on_event_brackets(monkeypatch):
    spy = RecordingBrent()
    monkeypatch.setattr(importlib.import_module("kswave.integrate"), "brentq", spy)
    find_w0_star(ModelParams(a=1.0, sigma=0.5), 2.0, method="bisection")
    assert spy.calls >= 10


def test_bracket_without_sign_change_is_a_caller_error():
    with pytest.raises(ValueError) as info:
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    assert not isinstance(info.value, KswaveError)


def test_nan_value_is_a_numerical_failure():
    with pytest.raises(RootNotFound, match="NaN"):
        brentq(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0, 1e-12)


def test_no_convergence_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(roots, "_MAXITER", 3)
    calls = []

    def f(x):
        calls.append(x)
        return math.atan(x)

    with pytest.raises(RootNotFound, match="no convergence after 3 iterations"):
        brentq(f, -1.0, 2.0, 1e-15)
    scipy_calls = calls[:]
    calls.clear()
    with pytest.raises(RuntimeError):
        scipy_brentq(f, -1.0, 2.0, xtol=1e-15, maxiter=3)
    assert calls == scipy_calls and len(calls) == 2 + 3


# The relativistic model of the README's front command: its one
# slope-balance root lies inside a scan cell, not on a grid point.
FRONT_MODEL = ["--a", "1", "--sigma", "0.5", "--limiter", "relativistic", "--c", "1"]


def test_cli_exits_3_on_a_nan_inside_the_bracket(capsys, monkeypatch):
    p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))
    (v_root,) = nullclines(p).slope_roots
    y_root = p.a * v_root - p.sigma
    g = make_g(p.limiter)

    def make_g_nan_near_root(lim):
        return lambda y: math.nan if abs(y - y_root) < 1e-7 else g(y)

    monkeypatch.setattr(phase, "make_g", make_g_nan_near_root)
    code = cli.main(["equilibria", *FRONT_MODEL])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure (RootNotFound)" in err and "NaN" in err


def test_cli_exits_3_when_the_root_finder_does_not_converge(capsys, monkeypatch):
    monkeypatch.setattr(roots, "_MAXITER", 1)
    code = cli.main(["equilibria", *FRONT_MODEL])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure (RootNotFound)" in err
