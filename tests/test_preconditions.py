"""Preconditions decided from the parameters alone: the library raises
PreconditionError before any integration, and the CLI exits 2 on it."""

from __future__ import annotations

import importlib
import math

import pytest

from kswave import cli
from kswave.errors import DegenerateError, PreconditionError, RegimeViolation
from kswave.flux import LARSON, LINEAR, RELATIVISTIC, FluxLimiter
from kswave.phase import ModelParams
from kswave.profiles import saturated_front
from kswave.shooting import find_w0_star, shooting_regime, supplied_threshold

REL = FluxLimiter(RELATIVISTIC, c=3.0)
# Slope domain ((0.2 - 3)/1.5, (0.2 + 3)/1.5) = (-1.87, 2.13).
P_REL = ModelParams(a=1.5, sigma=0.2, limiter=REL)
P_LIN = ModelParams(a=1.0, sigma=0.5)


@pytest.fixture
def no_integration(monkeypatch):
    """Make any orbit or graph integration fail the test outright."""

    def forbidden(*args, **kwargs):
        raise AssertionError("integration started before the precondition check")

    for name in ("integrate", "shooting", "profiles", "cli"):
        mod = importlib.import_module(f"kswave.{name}")
        for attr in ("integrate", "integrate_graph_W"):
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr, forbidden)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def test_hierarchy():
    assert issubclass(DegenerateError, PreconditionError)
    assert issubclass(PreconditionError, RegimeViolation)
    assert issubclass(PreconditionError, ValueError)


class TestNonFiniteValues:
    @pytest.mark.parametrize("field", ["a", "sigma", "gamma", "lam"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_model_params(self, field, bad):
        kw = {"a": 1.0, "sigma": 0.5, field: bad}
        with pytest.raises(ValueError):
            ModelParams(**kw)

    @pytest.mark.parametrize("kind", [LINEAR, RELATIVISTIC, LARSON])
    @pytest.mark.parametrize("field", ["mu", "c", "p"])
    def test_limiter(self, kind, field):
        kw = {"p": 2.5, field: math.inf}
        with pytest.raises(ValueError):
            FluxLimiter(kind, **kw)

    def test_cli_exits_2_and_writes_nothing(self, capsys, tmp_path):
        code, err = run(capsys, "equilibria", "--a", "1", "--sigma", "inf",
                        "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err
        assert list(tmp_path.iterdir()) == []


class TestLaunchSlope:
    @pytest.mark.parametrize("p, v0", [
        (P_REL, 2.5),  # forward launch past the upper flux boundary
        (P_REL, -2.0),  # slow launch past the lower flux boundary
        (P_LIN, math.inf),
        (P_LIN, -math.inf),
        (P_LIN, math.nan),
    ])
    def test_outside_slope_domain(self, no_integration, p, v0):
        with pytest.raises(PreconditionError, match="slope domain"):
            shooting_regime(p, v0)
        with pytest.raises(PreconditionError):
            find_w0_star(p, v0)

    @pytest.mark.parametrize("v0", ["2.5", "inf", "nan"])
    @pytest.mark.parametrize("command", ["shoot", "profile"])
    def test_cli_exits_2(self, capsys, no_integration, command, v0):
        extra = ["--w0", "1"] if command == "profile" else []
        code, err = run(capsys, command, "--a", "1.5", "--sigma", "0.2",
                        "--limiter", "relativistic", "--c", "3", "--v0", v0, *extra)
        assert code == 2
        assert "config error" in err


class TestCliExitsBeforeIntegration:
    """Each parameter-decidable failure exits 2 with no integration."""

    @pytest.mark.parametrize("argv", [
        # degenerate sigma = sigma_star
        ["shoot", "--a", "0.5", "--sigma", "0.5", "--v0", "2"],
        ["profile", "--a", "0.5", "--sigma", "0.5", "--v0", "2", "--w0", "1"],
        # |v0| <= v_star
        ["shoot", "--a", "1", "--sigma", "0.5", "--v0", "0.5"],
        ["profile", "--a", "1", "--sigma", "0.5", "--v0", "0.5", "--w0", "1"],
        # slow launch outside case A
        ["shoot", "--a", "2", "--sigma", "0.5", "--v0=-2"],
        # bad bracket and bad method
        ["shoot", "--a", "1", "--sigma", "0.5", "--v0", "2", "--bracket", "2", "1"],
        ["shoot", "--a", "1", "--sigma", "0.5", "--v0", "2", "--bracket", "1", "inf"],
        # supplied threshold that is not a density
        ["profile", "--a", "1", "--sigma", "0.5", "--v0", "2", "--w0", "1",
         "--w0-star", "-1"],
    ])
    def test_shooting(self, capsys, no_integration, argv):
        code, err = run(capsys, *argv)
        assert code == 2
        assert "config error" in err

    FRONT = ["profile", "--a", "1", "--sigma", "0.5", "--limiter", "relativistic",
             "--c", "1"]

    @pytest.mark.parametrize("argv", [
        # linear flux has no front
        ["profile", "--a", "1", "--sigma", "0.5", "--w0", "5", "--v0", "0.5",
         "--branch", "above"],
        # anchor slope outside the admissible range (-0.5, 1.5)
        FRONT + ["--w0", "5", "--v0", "2", "--branch", "above"],
        # above-branch anchor density not over lambda
        FRONT + ["--w0", "0.5", "--v0", "0.5", "--branch", "above"],
        # below-branch range (-0.5, 1.5) not inside (-v_star, v_star) = (-1, 1)
        FRONT + ["--w0", "0.1", "--v0", "0.5", "--branch", "below"],
        # below-branch anchor density over the balance parabola
        ["profile", "--a", "2", "--sigma", "0.1", "--lambda", "4",
         "--limiter", "relativistic", "--c", "1", "--w0", "5", "--v0", "0.05",
         "--branch", "below"],
    ])
    def test_front_anchor(self, capsys, no_integration, argv):
        code, err = run(capsys, *argv)
        assert code == 2
        assert "config error" in err

    def test_method_from_config(self, capsys, no_integration, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"a": 1, "sigma": 0.5, "v0": 2, "method": "newton"}')
        code, err = run(capsys, "shoot", "--config", str(cfg))
        assert code == 2
        assert "method" in err


def test_front_anchor_checks_raise_before_tracing(no_integration):
    p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC))
    with pytest.raises(PreconditionError, match="lambda"):
        saturated_front(p, v0=0.5, w0=0.5, branch="above")
    with pytest.raises(PreconditionError):
        saturated_front(P_LIN, v0=0.5, w0=5.0)


def test_supplied_threshold_carries_the_real_saddle():
    p = ModelParams(a=1.0, sigma=0.5)
    solved = find_w0_star(p, 2.0)
    given = supplied_threshold(p, 2.0, solved.w0_star)
    assert given.saddle == solved.saddle
    assert given.regime == solved.regime
    assert given.w0_star == solved.w0_star


def test_overflow_is_a_numerical_failure(capsys):
    code, err = run(capsys, "shoot", "--a", "1", "--sigma", "0.5", "--v0", "2",
                    "--rtol", "1e-300")
    assert code == 3
    assert "numerical failure (OverflowError)" in err
