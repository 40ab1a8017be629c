"""The graph form W(v): agreement of W, s and I with the s-domain orbit at
random saturated and linear anchors, the boundary substitution, the one
two-leg trace, and the convergence of Larson front edges in rtol."""

from __future__ import annotations

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kswave import cli
from kswave.flux import LARSON, RELATIVISTIC, FluxLimiter
from kswave.errors import DenominatorVanished
from kswave.integrate import (
    BACKWARD,
    FORWARD,
    BoundaryZone,
    Controls,
    EventSpec,
    integrate,
    integrate_graph_W,
)
from kswave.phase import ModelParams
from kswave.profiles import graph_trajectory, saturated_front

GRAPH_SETTINGS = settings(max_examples=40, deadline=timedelta(seconds=5), database=None)


@st.composite
def saturated_anchors(draw):
    """A saturated model and an anchor above lambda inside its slope domain.

    The ranges follow the fronts the benchmark builds: anchors under about
    6 * lam can leave the graph solver without a leg to the boundary.
    """
    kind = draw(st.sampled_from([RELATIVISTIC, LARSON]))
    c = draw(st.floats(0.5, 2.0))
    if kind == RELATIVISTIC:
        lim = FluxLimiter(kind, c=c)
    else:
        lim = FluxLimiter(kind, c=c, p=draw(st.floats(1.5, 4.0)))
    p = ModelParams(
        a=math.exp(draw(st.floats(math.log(0.5), math.log(2.0)))),
        sigma=draw(st.floats(0.1, 0.8)),
        limiter=lim,
    )
    lo, hi = p.slope_domain
    v0 = lo + (hi - lo) * draw(st.floats(0.25, 0.75))
    w0 = p.lam * draw(st.floats(8.0, 20.0))
    return p, v0, w0


@st.composite
def linear_anchors(draw):
    """A linear model and an interior anchor, in W form (under the balance
    parabola) or in Y form (over lambda)."""
    p = ModelParams(
        a=math.exp(draw(st.floats(math.log(0.5), math.log(2.0)))),
        sigma=draw(st.floats(0.2, 0.8)),
    )
    if draw(st.booleans()):
        return p, draw(st.floats(-0.4, 0.4)), draw(st.floats(0.05, 0.5))
    return p, draw(st.floats(-1.0, 1.0)), draw(st.floats(2.0, 20.0))


@GRAPH_SETTINGS
@given(
    anchor=saturated_anchors() | linear_anchors(),
    direction=st.sampled_from([FORWARD, BACKWARD]),
    span=st.floats(0.05, 0.4),
)
def test_graph_leg_matches_s_orbit(anchor, direction, span):
    # The s-run and the graph leg from the same anchor cover the same arc.
    # Above lambda the slope falls along s, so the forward run meets the
    # graph leg to the lower flux boundary (the backward run and the upper
    # boundary likewise); a linear leg spans `span` in v and the s-run
    # stops just short of its end, so the whole run lies on the leg.  W, s
    # and I agree within A9's bound.
    p, v0, w0 = anchor
    lo, hi = p.slope_domain
    falls = w0 > p.lam  # dv/ds = (lam - w - gamma*v^2)/gamma
    down = falls == (direction == FORWARD)
    if p.limiter.saturated:
        target, extra = (lo if down else hi), ()
    else:
        target = v0 - span if down else v0 + span
        stop_v = v0 + 0.99 * (target - v0)
        stop = EventSpec(fn=lambda s, w, v: v - stop_v, kind="Target",
                         direction=-1 if down else 1)
        extra = (stop,)
    try:
        sol = integrate_graph_W(p, v0, w0, target)
    except DenominatorVanished:
        # a W-form leg can run into the fold lam - W - gamma*v^2 = 0
        assume(False)
    assert (sol.boundary is not None) == p.limiter.saturated
    traj = integrate(p, w0, v0, direction=direction, extra_events=extra)
    t = traj.v if sol.boundary is None else sol.boundary.q(traj.v)
    _, s_leg, i_leg = sol.dense(t)
    for got, want in ((sol.W_at(traj.v), traj.w), (s_leg, traj.s), (i_leg, traj.integral)):
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert float(np.max(rel)) <= 1e-6


@pytest.mark.parametrize("side", [1, -1])
def test_boundary_zone_substitution(side):
    b = BoundaryZone(v_edge=0.7, side=side, m=1.5)
    q = np.linspace(0.0, 0.8, 9)
    v = b.v(q)
    assert v[0] == 0.7
    assert np.allclose(b.q(v), q, rtol=1e-14, atol=1e-15)
    h = 1e-6
    fd = (b.v(q[1:] + h) - b.v(q[1:] - h)) / (2.0 * h)
    # dv/dq as the leg reads it; m = 1.5 is a Larson p = 3 limiter's
    leg = b.leg(ModelParams(a=1.0, sigma=0.3, limiter=FluxLimiter(LARSON, c=1.0, p=3.0)))
    assert np.allclose([leg(x)[1] for x in q[1:]], fd, rtol=1e-8)
    # slopes past the edge map onto the edge itself
    assert b.q(0.7 + side * 0.1) == 0.0


def test_front_is_the_graph_trajectory():
    p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))
    front = saturated_front(p, 0.5, 5.0, branch="above", s0=0.25)
    traj = graph_trajectory(p, 5.0, 0.5, s0=0.25)
    assert np.array_equal(front.s, traj.s)
    assert np.array_equal(front.w, traj.w)
    assert np.array_equal(front.v, traj.v)
    assert (front.s_minus, front.s_plus) == (traj.s_minus, traj.s_plus)
    assert np.all(np.diff(traj.s) > 0.0)
    # the legs carry ln W, but the anchor sample is w0 itself
    assert front.w[np.flatnonzero(front.s == 0.25)].tolist() == [5.0]


def test_cli_holds_no_graph_form_name():
    for name in (
        "integrate_graph_W",
        "merge_trajectories",
        "Trajectory",
    ):
        assert not hasattr(cli, name), name


# Larson fronts (limiter exponent p, so s ~ s_edge + C*q^(p/(p-1)) at the
# flux boundary) whose edges once failed to converge monotonically in rtol.
LARSON_ANCHORS = [
    # (a, sigma, c, p, v0, w0)
    (1.4465094745065505, 0.4402398829510947, 0.9335599209713032, 1.6755587488998147,
     0.528027278815433, 12.638162380471215),
    (1.9210007901786632, 0.682046901849243, 0.8192985095136341, 2.1744874429764955,
     0.27151645003176633, 18.61838135298765),
    (1.1089101620773438, 0.7199154006813335, 1.9387020087309694, 2.7093113331563625,
     0.09469915574671783, 9.84962382711273),
]


@pytest.mark.parametrize("a, sigma, c, p_exp, v0, w0", LARSON_ANCHORS)
def test_larson_front_edges_converge_in_rtol(a, sigma, c, p_exp, v0, w0):
    # against a tight reference, the error of the front edges s_minus and
    # s_plus falls strictly as rtol tightens by two decades at a time
    p = ModelParams(a=a, sigma=sigma, limiter=FluxLimiter(LARSON, c=c, p=p_exp))

    def edges(ctr):
        f = saturated_front(p, v0, w0, branch="above", controls=ctr)
        return np.array([f.s_minus, f.s_plus])

    ref = edges(Controls(rtol=1e-13, atol=1e-18))
    errs = [float(np.max(np.abs(edges(Controls(rtol=r)) - ref))) for r in (1e-8, 1e-10, 1e-12)]
    assert errs[0] > errs[1] > errs[2], errs
