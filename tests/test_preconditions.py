"""Preconditions decided from the parameters alone: the library raises
PreconditionError before any integration, and the CLI exits 2 on it."""

from __future__ import annotations

import importlib
import inspect
import json
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kswave
from kswave import cli
from kswave.errors import DegenerateError, PreconditionError, RegimeViolation
from kswave.flux import LARSON, LINEAR, RELATIVISTIC, FluxLimiter
from kswave.integrate import BACKWARD, FORWARD, integrate, integrate_graph_W
from kswave.phase import ModelParams
from kswave.profiles import (
    check_anchor,
    graph_trajectory,
    portrait,
    predicted_types,
    reconstruct,
    saturated_front,
    sweep,
    wave_profile,
    wave_trajectory,
)
from kswave.shooting import (
    classify_trajectory,
    find_w0_star,
    shooting_regime,
    supplied_threshold,
    threshold_trajectory,
)

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
    ({"check_samples": True}, "check_samples"),
    ({"check_samples": 2.5}, "check_samples"),
    ({"check_samples": "3"}, "check_samples"),
], ids=["sigma-factor-one", "v0-factor-half", "v0-factor-nan", "v0-factor-inf",
        "check-samples-negative", "check-samples-bool", "check-samples-float",
        "check-samples-str"])
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

    @pytest.mark.parametrize("w0, w0_star, name", [
        (math.nan, 3.0, "w0"), (math.inf, 3.0, "w0"), (0.0, 3.0, "w0"),
        (1.0, 0.0, "w0_star"), (1.0, -1.0, "w0_star"), (1.0, math.nan, "w0_star"),
        (1.0, math.inf, "w0_star"),
    ])
    def test_predicted_types_needs_densities(self, w0, w0_star, name):
        with pytest.raises(PreconditionError, match=f"^{name} must be a positive density"):
            predicted_types(P_LIN, 2.0, w0, w0_star)


@pytest.mark.parametrize("kw", [
    {"S0": math.inf}, {"S0": math.nan}, {"s0": -math.inf}, {"s0": math.nan},
])
def test_reconstruct_rejects_non_finite_normalization(kw):
    traj = wave_trajectory(P_LIN, 6.0, 2.0)
    with pytest.raises(PreconditionError):
        reconstruct(P_LIN, traj, **kw)


# --------------------------------------------------------------------------
# One refusal rule at every public entry point, as a property
# --------------------------------------------------------------------------

INTEGRATE = importlib.import_module("kswave.integrate")
# relativistic a = 1, sigma = 0.5, c = 1: the slope domain is (-0.5, 1.5)
P_REL_C1 = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))

# What an input must be: a slope in the open slope domain; a graph leg's
# target, in the domain or on a saturated domain's (finite) edge; a density,
# finite and positive; `integrate`'s launch density, finite and nonnegative
# (w0 = 0 is the invariant axis); a launch coordinate, finite; a launch
# density u0, w0*S0 to 1e-9 relative or not given; or one of a tuple of
# choices.
SLOPE, TARGET, DENSITY, AXIS, FINITE, U0 = "slope", "target", "density", "axis", "finite", "u0"


def _inside(p: ModelParams, f: float = 0.5) -> float:
    """The slope at fraction f of the slope domain, or of [-10, 10] for a
    linear limiter."""
    lo, hi = p.slope_domain
    return lo + f * (hi - lo) if p.limiter.saturated else 20.0 * f - 10.0


def anchored(w0, s0, S0, u0):
    """check_anchor with u0 drawn as its relative offset from w0*S0 (None: not given)."""
    check_anchor(w0, s0, S0, None if u0 is None else w0 * S0 * (1.0 + u0))


# Each public entry point that takes a launch, an anchor or seeds: the call,
# from p and keyword inputs, and what each input it is given must be.
ENTRY_POINTS = {
    "check_anchor": (
        lambda p, **kw: anchored(**kw), {"w0": DENSITY, "s0": FINITE, "S0": DENSITY, "u0": U0}
    ),
    "classify_trajectory": (classify_trajectory, {"w0": DENSITY, "v0": SLOPE}),
    "find_w0_star": (find_w0_star, {"v0": SLOPE, "method": ("both", "bisection", "manifold")}),
    "graph_trajectory": (graph_trajectory, {"w0": DENSITY, "v0": SLOPE}),
    "integrate": (integrate, {"w0": AXIS, "v0": SLOPE, "direction": (FORWARD, BACKWARD)}),
    "integrate_graph_W": (
        integrate_graph_W, {"v_anchor": SLOPE, "W_anchor": DENSITY, "v_target": TARGET}
    ),
    # the bad seed comes second: no orbit is traced before every seed is checked
    "portrait": (
        lambda p, w0, v0: portrait(p, [(1.0, _inside(p)), (w0, v0)]),
        {"w0": DENSITY, "v0": SLOPE},
    ),
    "predicted_types": (predicted_types, {"v0": SLOPE, "w0": DENSITY, "w0_star": DENSITY}),
    "saturated_front": (
        saturated_front, {"v0": SLOPE, "w0": DENSITY, "S0": DENSITY, "branch": ("above", "below")}
    ),
    "shooting_regime": (shooting_regime, {"v0": SLOPE}),
    "supplied_threshold": (supplied_threshold, {"v0": SLOPE, "w0_star": DENSITY}),
    "threshold_trajectory": (threshold_trajectory, {"v0": SLOPE, "s0": FINITE}),
    "wave_profile": (
        wave_profile,
        {"w0": DENSITY, "v0": SLOPE, "S0": DENSITY, "w0_star": DENSITY, "branch": (None,)},
    ),
    "wave_trajectory": (wave_trajectory, {"w0": AXIS, "v0": SLOPE, "s0": FINITE}),
}
NON_FINITE = (math.nan, math.inf, -math.inf)
BAD_CHOICES = ("", "sideways", "newton")


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def models(draw):
    kind = draw(st.sampled_from((LINEAR, RELATIVISTIC, LARSON)))
    lim = {"kind": kind}
    if kind != LINEAR:
        lim["c"] = draw(log_uniform(0.2, 5.0))
    if kind == LARSON:
        lim["p"] = draw(st.floats(1.2, 4.0))
    return ModelParams(a=draw(log_uniform(0.2, 5.0)), sigma=draw(log_uniform(0.02, 5.0)),
                       limiter=FluxLimiter(**lim))


def valid(p: ModelParams, rule):
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    if rule == FINITE:
        return st.floats(-2.0, 2.0)
    if rule == U0:
        return st.one_of(st.none(), st.floats(-5e-10, 5e-10))
    if rule in (SLOPE, TARGET):
        inside = st.floats(0.01, 0.99).map(lambda f: _inside(p, f))
        if rule == TARGET and p.limiter.saturated:
            return st.one_of(inside, st.sampled_from(p.slope_domain))
        return inside
    density = log_uniform(1e-3, 1e2)
    return st.one_of(st.just(0.0), density) if rule == AXIS else density


def invalid(p: ModelParams, rule):
    if isinstance(rule, tuple):
        return st.sampled_from(BAD_CHOICES)
    if rule == FINITE:
        return st.sampled_from(NON_FINITE)
    if rule == U0:
        off = log_uniform(2e-9, 1e3)
        return st.one_of(st.sampled_from(NON_FINITE + (-1.0,)), off, off.map(operator.neg))
    if rule in (SLOPE, TARGET):
        bad = st.sampled_from(NON_FINITE)
        if not p.limiter.saturated:
            return bad
        lo, hi = p.slope_domain
        past = log_uniform(1e-9, 10.0).map(lambda d: d * (hi - lo))
        beyond = st.one_of(past.map(lambda d: hi + d), past.map(lambda d: lo - d))
        # a graph leg may end on an edge; nothing else starts on one
        return st.one_of(bad, beyond) if rule == TARGET else st.one_of(
            bad, beyond, st.sampled_from((lo, hi))
        )
    negative = log_uniform(1e-300, 1e300).map(operator.neg)
    zero = () if rule == AXIS else (0.0, -0.0)
    return st.one_of(st.sampled_from(zero + NON_FINITE), negative)


@st.composite
def refusals(draw):
    """p, and per entry point and input a call (name, inputs) with that input
    drawn bad and the others good."""
    p = draw(models())
    return p, [
        (name, {role: draw((invalid if role == bad else valid)(p, rule))
                for role, rule in rules.items()})
        for name, (_, rules) in ENTRY_POINTS.items() for bad in rules
    ]


def no_march(*args, **kwargs):
    raise AssertionError("an orbit or a graph leg marched from a refused input")


def past_edge(v0):
    return [("shooting_regime", {"v0": v0}), ("find_w0_star", {"v0": v0, "method": "both"})]


@settings(max_examples=30, deadline=None, database=None)
@given(case=refusals())
# forward and slow launches past a flux boundary, and non-finite slopes
@example(case=(P_REL, past_edge(2.5)))
@example(case=(P_REL, past_edge(-2.0)))
@example(case=(P_LIN, past_edge(math.inf)))
@example(case=(P_LIN, past_edge(-math.inf)))
@example(case=(P_LIN, past_edge(math.nan)))
# marched, this launch ends ConvergedToEquilibrium forward, a wrong answer,
# and in StepSizeUnderflow backward
@example(case=(P_REL_C1, [("integrate", {"w0": 1.0, "v0": 3.0, "direction": FORWARD})]))
@example(case=(P_REL_C1, [("integrate", {"w0": 1.0, "v0": 3.0, "direction": BACKWARD})]))
# marched, an infinite anchor density gives a leg with W = inf and s = 0
# throughout, and a graph trace that raises AnchorMismatch
@example(case=(P_REL_C1, [
    ("integrate_graph_W", {"v_anchor": 0.5, "W_anchor": math.inf, "v_target": 1.5}),
    ("graph_trajectory", {"w0": math.inf, "v0": 0.5}),
]))
# a linear limiter's edges are infinite, so no graph trace reaches them
@example(case=(P_LIN, [("graph_trajectory", {"w0": 2.0, "v0": 0.5})]))
# integrate takes w0 = 0, the invariant axis; the classifier does not
@example(case=(P_LIN, [("classify_trajectory", {"w0": 0.0, "v0": 2.0})]))
# integrate's launch is finite, s0 too
@example(case=(ModelParams(a=0.5, sigma=0.3), [
    ("integrate", {"w0": w0, "v0": v0, "s0": s0}) for w0, v0, s0 in (
        (math.nan, 0.5, 0.0), (math.inf, 0.5, 0.0), (0.1, math.nan, 0.0), (0.1, -math.inf, 0.0),
        (0.1, 0.5, math.inf),
    )
]))
# an anchor with a bad w0, s0 or S0, or a u0 (its offset from w0*S0 here) that is not finite
@example(case=(P_LIN, [
    ("check_anchor", {"w0": w0, "s0": s0, "S0": S0, "u0": u0}) for w0, s0, S0, u0 in (
        (math.nan, 0.0, 1.0, None), (-1.0, 0.0, 1.0, None), (1.0, math.inf, 1.0, None),
        (1.0, 0.0, 0.0, None), (1.0, 0.0, 1.0, -math.inf),
    )
]))
# a launch past, or on, an edge of the slope domain, not finite, or under the axis
@example(case=(P_REL_C1, [
    (name, {"w0": w0, "v0": v0, **kw})
    for w0, v0 in ((1.0, 1.5), (1.0, -0.5), (1.0, math.nan), (math.inf, 0.5), (-1e-300, 0.5))
    for name, kw in (("integrate", {"direction": FORWARD}), ("integrate", {"direction": BACKWARD}),
                     ("wave_trajectory", {}))
]))
def test_every_entry_point_refuses_a_bad_input_before_any_march(case):
    p, calls = case
    with pytest.MonkeyPatch.context() as mp:
        for attr in ("_march", "_leg_march"):
            mp.setattr(INTEGRATE, attr, no_march)
        for name, inputs in calls:
            with pytest.raises(PreconditionError):
                ENTRY_POINTS[name][0](p, **inputs)


def test_every_public_function_taking_a_launch_is_an_entry_point_of_the_property():
    # functions only: ShotOutcome and ThresholdResult record a launch, they
    # do not take one to compute with
    takes = {"w0", "v0", "v_anchor", "W_anchor", "seeds"}
    public = {
        name for name in kswave.__all__
        if inspect.isfunction(fn := getattr(kswave, name))
        and takes & set(inspect.signature(fn).parameters)
    }
    assert public
    assert public <= set(ENTRY_POINTS)
