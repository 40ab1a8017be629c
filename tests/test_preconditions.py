"""Preconditions decided from the parameters alone: the library raises
PreconditionError before any integration, and the CLI exits 2 on it."""

from __future__ import annotations

import importlib
import json
import math

import pytest

from kswave import cli
from kswave.errors import DegenerateError, PreconditionError, RegimeViolation
from kswave.flux import LARSON, LINEAR, RELATIVISTIC, FluxLimiter
from kswave.phase import ModelParams
from kswave.profiles import (
    check_anchor,
    predicted_types,
    reconstruct,
    saturated_front,
    sweep,
    wave_trajectory,
)
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
        # a front needs no threshold
        FRONT + ["--w0", "5", "--v0", "0.5", "--branch", "above", "--w0-star", "3"],
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


@pytest.mark.parametrize("kw, word", [
    ({"sigma_factors": [0.5, 1.0 + 1e-10]}, "degenerate"),
    ({"v0_factor": 0.5}, "v0_factor"),
    ({"v0_factor": math.nan}, "v0_factor"),
    ({"v0_factor": math.inf}, "v0_factor"),
    ({"check_samples": -3}, "check_samples"),
], ids=["sigma-factor-one", "v0-factor-half", "v0-factor-nan", "v0-factor-inf",
        "check-samples-negative"])
def test_sweep_ranges_are_checked_before_any_point(no_integration, kw, word):
    # the library validates the whole grid's options, so no point runs; the
    # CLI only maps the error to exit 2
    args = {"a_values": [0.5, 2.0], "sigma_factors": [0.5], **kw}
    with pytest.raises(PreconditionError, match=word):
        sweep(P_LIN, **args)


def test_supplied_threshold_carries_the_real_saddle():
    p = ModelParams(a=1.0, sigma=0.5)
    solved = find_w0_star(p, 2.0)
    given = supplied_threshold(p, 2.0, solved.w0_star)
    assert given.saddle == solved.saddle
    assert given.regime == solved.regime
    assert given.w0_star == solved.w0_star


@pytest.mark.parametrize("rtol", ["1e-300", "1e-60", "2e-14"])
def test_rtol_below_the_floor_is_a_precondition(capsys, tmp_path, no_integration, rtol):
    # under 100 * machine epsilon no step-error norm can be met: decided
    # from the value alone, before any integration, and nothing is written
    code, err = run(capsys, "shoot", "--a", "1", "--sigma", "0.5", "--v0", "2",
                    "--rtol", rtol, "--out", str(tmp_path))
    assert code == 2
    assert "rtol" in err
    assert list(tmp_path.iterdir()) == []


def test_overflow_is_a_numerical_failure(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(cli, "find_w0_star", overflow)
    code, err = run(capsys, "shoot", "--a", "1", "--sigma", "0.5", "--v0", "2")
    assert code == 3
    assert "numerical failure (OverflowError)" in err


class TestNonFiniteRunInputs:
    """Non-finite tolerances and anchors exit 2 before any integration and
    leave no output file behind."""

    BASE = ["--a", "1", "--sigma", "0.5", "--v0", "2"]
    FRONT = ["profile", "--a", "1", "--sigma", "0.5", "--limiter", "relativistic",
             "--c", "1", "--w0", "5", "--v0", "0.5", "--branch", "above"]

    @pytest.mark.parametrize("argv", [
        ["profile", *BASE, "--w0", "nan", "--w0-star", "3"],
        ["profile", *BASE, "--w0", "inf", "--w0-star", "3"],
        ["profile", *BASE, "--w0", "0"],
        ["shoot", *BASE, "--rtol", "nan"],
        ["shoot", *BASE, "--rtol", "inf"],
        ["shoot", *BASE, "--atol", "nan"],
        ["shoot", *BASE, "--atol", "0"],
        ["profile", *BASE, "--w0", "1", "--S0", "inf", "--w0-star", "3"],
        ["profile", *BASE, "--w0", "1", "--S0", "nan"],
        ["profile", *BASE, "--w0", "1", "--S0", "0"],
        ["profile", *BASE, "--w0", "1", "--s0=-inf"],
        ["profile", *BASE, "--w0", "1", "--u0", "nan"],
        FRONT + ["--S0", "inf"],
        FRONT + ["--s0", "nan"],
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5", "--v0-factor", "nan"],
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5", "--v0-factor", "inf"],
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5", "--workers", "0"],
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5", "--workers", "-1"],
        # a relativistic limiter that removes case A's interior saddle
        ["shoot", "--a", "0.3", "--sigma", "0.2", "--limiter", "relativistic",
         "--c", "0.3", "--v0", "1.3"],
        ["shoot", *BASE, "--seed", "-1"],
        ["portrait", "--a", "0.5", "--sigma", "0.75", "--w-grid", "0,1.5", "--v-grid", "1"],
        ["portrait", "--a", "0.5", "--sigma", "0.75", "--w-grid", "1.5,nan", "--v-grid", "1"],
        ["portrait", "--a", "0.5", "--sigma", "0.75", "--w-grid", "1.5,inf", "--v-grid", "1"],
        ["sweep", "--a-values", "0,1", "--sigma-factors", "0.5"],
        ["sweep", "--a-values", "0.5,2", "--sigma-factors=-0.5"],
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5", "--check-samples", "-1"],
    ])
    def test_cli_exits_2(self, capsys, no_integration, tmp_path, argv):
        code, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("controls", [
        '"h_max": 0', '"h_max": -1', '"max_steps": 0', '"max_steps": 2.5',
        '"v_max": -1', '"s_max": -5', '"eq_dwell": 0', '"denom_eps": 0',
    ])
    def test_out_of_range_config_controls(self, capsys, no_integration, tmp_path, controls):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"a": 1, "sigma": 0.5, "v0": 2, "controls": {%s}}' % controls)
        out = tmp_path / "out"
        code, err = run(capsys, "shoot", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert controls.split('"')[1] in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_out_of_range_config_workers(self, capsys, no_integration, tmp_path, workers):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"a_values": [0.5, 2], "sigma_factors": [0.5], "workers": %s}'
                       % json.dumps(workers))
        out = tmp_path / "out"
        code, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "--workers" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, word", [
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "seed": 1.7}', "--seed"),
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "seed": true}', "--seed"),
        ("sweep", '{"a_values": [0.5, 2], "sigma_factors": [0.5], "check_samples": 1.5}',
         "--check-samples"),
        ("shoot", '[1, 0.5, 2]', "JSON object"),
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "controls": 5}', "controls"),
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "controls": {"bogus": 1}}', "bogus"),
        # flux-boundary ends sit on the edge: there is no standoff to set
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "controls": {"boundary_eps_rel": 1e-9}}',
         "boundary_eps_rel"),
        # the graph-denominator floor is a constant of the graph field
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "controls": {"denom_eps": 1e-10}}',
         "denom_eps"),
        ("shoot", '{"a": 1, "sigma": 0.5, "v0": 2, "bracket": [1]}', "--bracket"),
    ], ids=["seed-float", "seed-bool", "check-samples-float", "array", "controls-number",
            "controls-unknown", "controls-boundary-eps-rel", "controls-denom-eps",
            "bracket-one-value"])
    def test_malformed_config(self, capsys, no_integration, tmp_path, command, body, word):
        cfg = tmp_path / "run.json"
        cfg.write_text(body)
        out = tmp_path / "out"
        code, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert word in err
        assert not out.exists()

    def test_nan_in_config_controls(self, capsys, no_integration, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"a": 1, "sigma": 0.5, "v0": 2, "controls": {"eq_tol": NaN}}')
        code, err = run(capsys, "shoot", "--config", str(cfg))
        assert code == 2
        assert "eq_tol" in err

    @pytest.mark.parametrize("kw", [
        {"S0": math.inf}, {"S0": -1.0}, {"S0": math.nan}, {"s0": math.nan},
    ])
    def test_front_normalization(self, no_integration, kw):
        p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC))
        with pytest.raises(PreconditionError):
            saturated_front(p, v0=0.5, w0=5.0, branch="above", **kw)

    @pytest.mark.parametrize("args", [
        (math.nan, 0.0, 1.0, None),
        (-1.0, 0.0, 1.0, None),
        (1.0, math.inf, 1.0, None),
        (1.0, 0.0, 0.0, None),
        (1.0, 0.0, 1.0, -math.inf),
    ])
    def test_check_anchor(self, args):
        with pytest.raises(PreconditionError):
            check_anchor(*args)

    @pytest.mark.parametrize("w0, w0_star, name", [
        (math.nan, 3.0, "w0"), (math.inf, 3.0, "w0"), (0.0, 3.0, "w0"),
        (1.0, 0.0, "w0_star"), (1.0, -1.0, "w0_star"), (1.0, math.nan, "w0_star"),
        (1.0, math.inf, "w0_star"),
    ])
    def test_predicted_types_needs_densities(self, w0, w0_star, name):
        with pytest.raises(PreconditionError, match=f"^{name} must be a positive density"):
            predicted_types(P_LIN, 2.0, w0, w0_star)


@pytest.mark.parametrize("kw", [
    {"S0": math.inf}, {"S0": math.nan}, {"u0": math.nan}, {"s0": math.nan},
])
def test_reconstruct_rejects_non_finite_normalization(kw):
    traj = wave_trajectory(P_LIN, 6.0, 2.0)
    with pytest.raises(PreconditionError):
        reconstruct(P_LIN, traj, **kw)
