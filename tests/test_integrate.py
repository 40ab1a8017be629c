"""Integrator: exact-solution oracles, events, termination taxonomy, graph form."""

from __future__ import annotations

import dataclasses
import importlib
import math
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kswave.errors import (
    AnchorMismatch,
    DenominatorVanished,
    DomainError,
    Inconclusive,
    SignChange,
    StepSizeUnderflow,
)
from kswave.flux import LARSON, LINEAR, RELATIVISTIC, FluxLimiter
from kswave.integrate import (
    BACKWARD,
    BOTH,
    BOUNDED,
    CONVERGED,
    FLUX_BOUNDARY_HIGH,
    FLUX_BOUNDARY_LOW,
    FORWARD,
    GRAPH_END,
    MAX_SPAN,
    V_BLOW_UP_PLUS,
    W_VANISHED,
    Controls,
    EventSpec,
    GraphSolution,
    TerminationEvent,
    Trajectory,
    integrate,
    integrate_graph_W,
    merge_trajectories,
    reconstruct_s_from_v,
)
from kswave.phase import ModelParams, equilibria, make_rhs


def lp(a, sigma, gamma=1.0, lam=1.0):
    return ModelParams(a=a, sigma=sigma, gamma=gamma, lam=lam)


# With w identically zero and gamma = lam = 1, the slope equation is the
# Riccati v' = 1 - v^2, whose blowing-up branch is v(s) = coth(s - s_minus).
COTH_P = lp(0.5, 0.3)


class TestCothOracle:
    def test_backward_blowup_and_edge_extrapolation(self):
        v0 = 1.0 / math.tanh(1.0)
        traj = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0)
        assert traj.termination.kind == V_BLOW_UP_PLUS
        assert traj.termination.v == pytest.approx(1e6, rel=1e-9)
        # the asymptote sits at s = 0; the extrapolation residue acoth(v) - 1/v
        # is O(v^-3), so the error is the integrator's phase error alone
        assert traj.s_minus == pytest.approx(0.0, abs=1e-9)
        assert traj.s_plus is None
        assert traj.direction == BACKWARD
        # samples ascend in s even though integration ran backward
        assert np.all(np.diff(traj.s) > 0)
        # v(s) = coth(s) on every sample; near the asymptote a phase error
        # delta-s inflates the pointwise relative error by |v| * delta-s
        for s, v in zip(traj.s, traj.v):
            assert v == pytest.approx(1.0 / math.tanh(s), rel=1e-8 + 1e-9 * abs(v))

    def test_integral_of_v_closed_form(self):
        # I(s) = ln sinh(s) - ln sinh(1), measured from the anchor s0 = 1
        v0 = 1.0 / math.tanh(1.0)
        traj = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0)
        for s, v, ii in zip(traj.s, traj.v, traj.integral):
            exact = math.log(math.sinh(s)) - math.log(math.sinh(1.0))
            # dI/ds = v, so a phase error delta-s costs |v| * delta-s in I
            assert ii == pytest.approx(exact, rel=1e-8, abs=1e-8 + 1e-9 * abs(v))

    def test_forward_converges_to_axis_equilibrium(self):
        v0 = 1.0 / math.tanh(1.0)
        eqs = equilibria(COTH_P)
        traj = integrate(COTH_P, 0.0, v0, direction=FORWARD, s0=1.0, eq_list=eqs)
        assert traj.termination.kind == CONVERGED
        idx = traj.termination.equilibrium_index
        assert eqs[idx].w == 0.0
        assert eqs[idx].v == pytest.approx(1.0)
        assert traj.s_plus == math.inf
        assert traj.s_minus is None

    def test_custom_event_location(self):
        # start at v = 2 (s0 = 0 means s_minus = -atanh(1/2)); v = 1.2 is hit
        # at s = atanh(1/1.2) - atanh(1/2)
        probe = EventSpec(fn=lambda s, w, v: v - 1.2, kind="Probe", direction=-1)
        traj = integrate(COTH_P, 0.0, 2.0, direction=FORWARD, extra_events=[probe])
        assert traj.termination.kind == "Probe"
        s_exact = math.atanh(1.0 / 1.2) - math.atanh(0.5)
        assert traj.termination.s == pytest.approx(s_exact, abs=1e-9)
        assert traj.termination.v == pytest.approx(1.2, abs=1e-10)
        assert traj.s[-1] == traj.termination.s
        assert traj.v[-1] == traj.termination.v

    def test_tolerance_refinement_stability(self):
        v0 = 1.0 / math.tanh(1.0)
        edges = []
        for rtol in (1e-10, 1e-12):
            traj = integrate(
                COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0,
                controls=Controls(rtol=rtol, atol=1e-14),
            )
            edges.append(traj.s_minus)
        assert abs(edges[0] - edges[1]) <= 1e-10


class TestExponentialW:
    def test_a_equal_one_exact_decay(self):
        # for a = 1 the w-equation is exactly w' = -sigma * w, whatever v does
        p = lp(1.0, 0.8)
        ctr = Controls(s_max=5.0, eq_dwell=math.inf, w_min=0.0)
        traj = integrate(p, 0.5, 0.3, direction=FORWARD, controls=ctr)
        assert traj.termination.kind in (MAX_SPAN, BOUNDED)
        assert traj.s[-1] == pytest.approx(5.0, abs=1e-12)
        for s, w in zip(traj.s, traj.w):
            assert w == pytest.approx(0.5 * math.exp(-0.8 * s), rel=1e-8)
        assert traj.s_minus is None and traj.s_plus is None


class TestTerminationKinds:
    def test_w_vanished(self):
        p = lp(0.5, 1.0)
        ctr = Controls(eq_dwell=math.inf)
        traj = integrate(p, 0.1, 1.3, direction=FORWARD, controls=ctr)
        assert traj.termination.kind == W_VANISHED
        assert traj.termination.w == pytest.approx(1e-12, rel=1e-6)
        assert traj.s_plus == math.inf

    def test_converged_beats_vanishing_when_w_min_disabled(self):
        p = lp(0.5, 1.0)
        eqs = equilibria(p)
        ctr = Controls(w_min=0.0)
        traj = integrate(p, 0.1, 1.3, direction=FORWARD, controls=ctr, eq_list=eqs)
        assert traj.termination.kind == CONVERGED
        e = eqs[traj.termination.equilibrium_index]
        assert (e.w, e.v) == (0.0, pytest.approx(1.0))

    def test_bounded_spiral(self):
        # interior stable focus: the orbit spirals inward, never escaping
        p = lp(2.0, 0.5)
        ctr = Controls(eq_dwell=math.inf, w_min=0.0, s_max=60.0)
        traj = integrate(p, 0.8, 0.45, direction=FORWARD, controls=ctr)
        assert traj.termination.kind == BOUNDED

    def test_flux_boundary_arrival(self):
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        traj = integrate(p, 2.0, 0.5, direction=FORWARD)
        assert traj.termination.kind == FLUX_BOUNDARY_LOW
        lo, hi = p.slope_domain
        eps_v = 1e-9 * p.limiter.c / p.a
        assert traj.termination.v == pytest.approx(lo + eps_v, abs=1e-12)
        assert traj.termination.w > 0.0
        assert traj.s_plus is not None and math.isfinite(traj.s_plus)
        assert traj.s_plus >= traj.s[-1]
        assert np.all(np.diff(traj.v) < 0)  # v runs monotonically to the edge

    def test_step_budget_exhaustion_raises(self):
        with pytest.raises(Inconclusive):
            integrate(COTH_P, 0.0, 2.0, controls=Controls(max_steps=5))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate(COTH_P, -1.0, 0.5)
        with pytest.raises(ValueError):
            integrate(COTH_P, 0.1, 0.5, direction="sideways")


class TestMerge:
    def test_three_way_seam_alignment(self):
        v0 = 1.0 / math.tanh(1.0)
        ctr_b = Controls(s_max=0.5, eq_dwell=math.inf)
        ctr_f = Controls(s_max=2.0, eq_dwell=math.inf)
        back = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0, controls=ctr_b)
        fwd = integrate(COTH_P, 0.0, v0, direction=FORWARD, s0=1.0, controls=ctr_f)
        merged = merge_trajectories([back, fwd])
        assert merged.direction == BOTH
        assert len(merged.s) == len(back.s) + len(fwd.s) - 1
        assert np.all(np.diff(merged.s) > 0)
        assert merged.termination.kind in (MAX_SPAN, BOUNDED)
        assert merged.termination_start.kind in (MAX_SPAN, BOUNDED)
        # I is continuous across the seam and matches the closed form globally
        i_span = merged.integral[-1] - merged.integral[0]
        exact = math.log(math.sinh(3.0)) - math.log(math.sinh(0.5))
        assert i_span == pytest.approx(exact, rel=1e-8)

    def test_arrays_bit_equal_to_list_merge(self):
        # the list-based merge: every sample through a Python list
        def list_merge(pieces):
            s, w, v, ii = (list(getattr(pieces[0], f)) for f in ("s", "w", "v", "integral"))
            for piece in pieces[1:]:
                shift_s, shift_i = s[-1] - piece.s[0], ii[-1] - piece.integral[0]
                s.extend(piece.s[1:] + shift_s)
                w.extend(piece.w[1:])
                v.extend(piece.v[1:])
                ii.extend(piece.integral[1:] + shift_i)
            return [np.asarray(x) for x in (s, w, v, ii)]

        v0 = 1.0 / math.tanh(1.0)
        ctr = Controls(s_max=2.0, eq_dwell=math.inf)
        back = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0, controls=ctr)
        fwd = integrate(COTH_P, 0.0, v0, direction=FORWARD, s0=1.0, controls=ctr)
        # a three-way split of the forward run, with s and I of each piece offset
        k, j = len(fwd.s) // 3, 2 * len(fwd.s) // 3
        cut = [
            dataclasses.replace(fwd, s=fwd.s[a:b] - 1.0, w=fwd.w[a:b], v=fwd.v[a:b],
                                integral=fwd.integral[a:b] + 0.5)
            for a, b in ((0, k + 1), (k, j + 1), (j, len(fwd.s)))
        ]
        for pieces in ([back, fwd], [back, *cut]):
            merged = merge_trajectories(pieces)
            got = [merged.s, merged.w, merged.v, merged.integral]
            for a, b in zip(got, list_merge(pieces)):
                assert a.tobytes() == b.tobytes()

    def test_seam_mismatch_raises(self):
        v0 = 1.0 / math.tanh(1.0)
        ctr = Controls(s_max=0.5, eq_dwell=math.inf)
        back = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0, controls=ctr)
        other = integrate(COTH_P, 0.5, v0, direction=FORWARD, s0=1.0, controls=ctr)
        with pytest.raises(AnchorMismatch):
            merge_trajectories([back, other])


class TestGraphForm:
    def test_constant_W_quadrature_oracle(self):
        # W = lam makes lam - W - gamma v^2 = -v^2: s(2) - s(1) = -1/2 and
        # I(2) - I(1) = -ln 2
        p = lp(1.0, 0.5)
        sol = GraphSolution(v=np.linspace(1.0, 2.0, 101), W=np.full(101, 1.0), mode="W")
        traj = reconstruct_s_from_v(p, sol, s_start=0.0)
        assert traj.s[0] == pytest.approx(-0.5, abs=1e-12)
        assert traj.s[-1] == 0.0
        assert traj.v[0] == pytest.approx(2.0)  # flipped to ascending s
        assert traj.integral[0] - traj.integral[-1] == pytest.approx(
            -math.log(2.0), abs=1e-12
        )

    def test_graph_matches_s_integration_through_boundary(self):
        # the same saturated leg computed in s and as a graph must agree
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        traj = integrate(p, 2.0, 0.5, direction=FORWARD)
        lo, _ = p.slope_domain
        sol = integrate_graph_W(p, v_anchor=0.5, W_anchor=2.0, v_target=lo)
        assert sol.mode == "Y"  # W_anchor > lam forces the reciprocal form
        assert sol.boundary is not None and sol.boundary.side == -1
        wk = sol.W_at(traj.v)
        rel = np.abs(wk - traj.w) / np.maximum(1.0, np.abs(traj.w))
        assert float(np.nanmax(rel)) <= 1e-6
        # W extends continuously to the boundary itself
        assert math.isfinite(float(sol.W_at(lo)))

    def test_reconstructed_s_matches_trajectory(self):
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        traj = integrate(p, 2.0, 0.5, direction=FORWARD)
        lo, _ = p.slope_domain
        sol = integrate_graph_W(p, v_anchor=0.5, W_anchor=2.0, v_target=lo)
        rec = reconstruct_s_from_v(p, sol, s_start=0.0)
        # compare s at actual trajectory samples mid-leg: the dense rec grid
        # keeps its own interpolation error well under the tolerance
        for k in range(len(traj.s)):
            if not -0.7 < traj.v[k] < 0.3:
                continue
            s_rec = float(np.interp(traj.v[k], rec.v[::-1], rec.s[::-1]))
            assert s_rec == pytest.approx(traj.s[k], abs=1e-6)
        # the boundary end is a finite edge of the leg
        assert rec.termination_start.kind == FLUX_BOUNDARY_LOW or (
            rec.termination.kind == FLUX_BOUNDARY_LOW
        )

    def test_w_mode_below_branch(self):
        p = lp(0.5, 0.3)
        sol = integrate_graph_W(p, v_anchor=0.0, W_anchor=0.3, v_target=0.5)
        assert sol.mode == "W"
        assert sol.boundary is None
        assert math.isfinite(float(sol.W_at(0.25)))

    def test_denominator_vanishing_raises(self):
        # past v = v_star the parabola lam - gamma*v^2 turns negative while
        # W stays positive, so lam - W - gamma*v^2 must pinch to zero
        p = lp(1.0, 0.5)
        with pytest.raises(DenominatorVanished):
            integrate_graph_W(p, v_anchor=0.9, W_anchor=0.05, v_target=1.2)

    def test_anchor_validation(self):
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        from kswave.errors import DomainError

        with pytest.raises(DomainError):
            integrate_graph_W(p, v_anchor=-2.0, W_anchor=1.0, v_target=0.0)
        with pytest.raises(ValueError):
            integrate_graph_W(p, v_anchor=0.5, W_anchor=1.0, v_target=0.5)
        with pytest.raises(ValueError):
            integrate_graph_W(p, v_anchor=0.5, W_anchor=0.0, v_target=0.2)


def test_end_events_orientation():
    v0 = 1.0 / math.tanh(1.0)
    back = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0)
    lo_ev, hi_ev = back.end_events()
    assert lo_ev is back.termination and hi_ev is None
    fwd = integrate(COTH_P, 0.0, 2.0, direction=FORWARD, controls=Controls(s_max=1.0, eq_dwell=math.inf))
    lo_ev, hi_ev = fwd.end_events()
    assert lo_ev is None and hi_ev is fwd.termination


# --------------------------------------------------------------------------
# the unrolled DP54 stepper against the generic tableau loop
# --------------------------------------------------------------------------

STEPPER = importlib.import_module("kswave.integrate")._dp54_step

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage row equals b)
REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def reference_dp54_step(f, y, k1, h):
    """The generic tableau loop: the reference the unrolled stepper must match."""
    k = [k1]
    y5 = y
    for i in range(1, 7):
        w, v, ii = y
        for a, kj in zip(REF_A[i], k):
            if a != 0.0:
                w += h * a * kj[0]
                v += h * a * kj[1]
                ii += h * a * kj[2]
        fw, fv = f(w, v)
        k.append((fw, fv, v))
        if i == 6:
            y5 = (w, v, ii)
    # Plain left-to-right sums from the integer 0, as sum() adds floats up to
    # Python 3.11 (3.12's sum() compensates rounding, which would not match).
    err = []
    for c in range(3):
        acc = 0
        for j in range(7):
            acc += REF_E[j] * k[j][c]
        err.append(h * acc)
    return y5, k[6], tuple(err)


STEP_PARAMS = {
    LINEAR: ModelParams(a=1.0, sigma=0.5),
    # slope domain (-1.87, 2.13)
    RELATIVISTIC: ModelParams(a=1.5, sigma=0.2, limiter=FluxLimiter(RELATIVISTIC, c=3.0)),
    # slope domain (-1.42, 1.92)
    LARSON: ModelParams(a=1.2, sigma=0.3, limiter=FluxLimiter(LARSON, c=2.0, p=2.5)),
}


def step_outcome(stepper, f, y, h):
    """Bit patterns of (y5, k7, err), or the name of the error raised."""
    k1 = f(y[0], y[1]) + (y[1],)
    try:
        y5, k7, err = stepper(f, y, k1, h)
    except DomainError:
        return "DomainError"
    return struct.pack("<9d", *y5, *k7, *err)


STEP_SETTINGS = settings(max_examples=150, deadline=timedelta(seconds=2), database=None)


@STEP_SETTINGS
@given(
    kind=st.sampled_from(sorted(STEP_PARAMS)),
    w=st.just(-0.0) | st.floats(0.0, 1e3),
    v_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ii=st.floats(-1e3, 1e3),
    h=st.floats(1e-9, 2.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_stepper_bit_equal_to_reference(kind, w, v_frac, ii, h, sign):
    p = STEP_PARAMS[kind]
    lo, hi = p.slope_domain
    lo, hi = max(lo, -50.0), min(hi, 50.0)
    v = lo + v_frac * (hi - lo)
    assume(lo < v < hi)
    f = make_rhs(p)
    y = (w, v, ii)
    assert step_outcome(STEPPER, f, y, sign * h) == step_outcome(
        reference_dp54_step, f, y, sign * h
    )


@STEP_SETTINGS
@given(
    gap=st.floats(1e-12, 1e-2),
    edge=st.sampled_from([-1, 1]),
    w=st.floats(1e-6, 20.0),
    h=st.floats(1e-9, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_stepper_near_relativistic_boundary(gap, edge, w, h, sign):
    p = STEP_PARAMS[RELATIVISTIC]
    lo, hi = p.slope_domain
    v = hi - gap * (hi - lo) if edge > 0 else lo + gap * (hi - lo)
    assume(lo < v < hi)
    f = make_rhs(p)
    y = (w, v, 0.5)
    assert step_outcome(STEPPER, f, y, sign * h) == step_outcome(
        reference_dp54_step, f, y, sign * h
    )


def test_stepper_domain_error_propagates():
    p = STEP_PARAMS[RELATIVISTIC]
    f = make_rhs(p)
    v = p.slope_domain[1] - 1e-6
    k1 = f(1.0, v) + (v,)
    # a unit step in the direction that raises v leaves the slope domain
    h = math.copysign(1.0, k1[1])
    with pytest.raises(DomainError):
        reference_dp54_step(f, (1.0, v, 0.0), k1, h)
    with pytest.raises(DomainError):
        STEPPER(f, (1.0, v, 0.0), k1, h)


# --------------------------------------------------------------------------
# non-finite tolerances and states fail fast
# --------------------------------------------------------------------------


class TestNonFinite:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Controls)])
    def test_controls_reject_nan_in_any_field(self, name):
        with pytest.raises(ValueError, match=name):
            Controls(**{name: math.nan})

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, 0.0, -1e-10])
    def test_controls_reject_bad_tolerances(self, name, bad):
        with pytest.raises(ValueError, match="tolerances"):
            Controls(**{name: bad})

    def test_controls_accept_disabled_limits(self):
        ctr = Controls(eq_dwell=math.inf, w_min=0.0)
        assert ctr.eq_dwell == math.inf

    @pytest.mark.parametrize("w0, v0, s0", [
        (math.nan, 0.5, 0.0),
        (math.inf, 0.5, 0.0),
        (0.1, math.nan, 0.0),
        (0.1, -math.inf, 0.0),
        (0.1, 0.5, math.inf),
    ])
    def test_integrate_rejects_non_finite_launch(self, monkeypatch, w0, v0, s0):
        mod = importlib.import_module("kswave.integrate")

        def forbidden(p):
            raise AssertionError("integration started with a non-finite launch point")

        monkeypatch.setattr(mod, "make_rhs", forbidden)
        with pytest.raises(ValueError, match="finite"):
            integrate(COTH_P, w0, v0, s0=s0)

    def test_state_turning_nan_mid_run_underflows(self, monkeypatch):
        # A field that is NaN past v = 2: before any event, the run must end
        # in StepSizeUnderflow instead of accepting NaN steps until the step
        # budget runs out.
        mod = importlib.import_module("kswave.integrate")

        def field(p):
            return lambda w, v: (math.nan, math.nan) if v > 2.0 else (0.0, 1.0)

        monkeypatch.setattr(mod, "make_rhs", field)
        with pytest.raises(StepSizeUnderflow):
            integrate(COTH_P, 1.0, 0.0, controls=Controls(s_max=10.0, max_steps=20_000))


# --------------------------------------------------------------------------
# the one-pass graph-leg quadrature against the per-interval loop
# --------------------------------------------------------------------------

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(7)


def reference_reconstruct_s_from_v(p, sol, s_start=0.0):
    """The per-interval loop: the reference the one-pass quadrature must match."""
    gamma, lam = p.gamma, p.lam
    b = sol.boundary
    if b is None:
        x = np.asarray(sol.v, dtype=float)

        def v_of_x(xx):
            return xx

        dv_dx = np.ones_like
    else:
        x = np.asarray(sol.q, dtype=float)
        v_of_x, dv_dx = b.v, b.dv_dq

    interp = sol._interp
    s_vals = [s_start]
    i_vals = [0.0]
    den_sign = 0.0
    for k in range(len(x) - 1):
        xa, xb = x[k], x[k + 1]
        mid = 0.5 * (xa + xb)
        half = 0.5 * (xb - xa)
        nodes = mid + half * GL_NODES
        vv = v_of_x(nodes)
        Wv = interp(np.abs(nodes)) if b is not None else interp(nodes)
        den = lam - Wv - gamma * vv * vv
        if den_sign == 0.0:
            den_sign = math.copysign(1.0, den[0])
        if np.any(den * den_sign <= 0.0):
            raise SignChange("lam - W - gamma*v^2 changes sign along the leg")
        ds_dx = gamma / den * dv_dx(nodes)
        s_vals.append(s_vals[-1] + half * float(np.dot(GL_WEIGHTS, ds_dx)))
        i_vals.append(i_vals[-1] + half * float(np.dot(GL_WEIGHTS, vv * ds_dx)))

    s = np.asarray(s_vals)
    w_arr = np.asarray(interp(np.abs(x)) if b is not None else interp(x), dtype=float)
    v_arr = np.asarray(v_of_x(x), dtype=float)
    ii = np.asarray(i_vals)

    lo_kind = hi_kind = GRAPH_END
    if b is not None:
        edge_kind = FLUX_BOUNDARY_HIGH if b.side > 0 else FLUX_BOUNDARY_LOW
        if x[-1] == 0.0:
            hi_kind = edge_kind
        if x[0] == 0.0:
            lo_kind = edge_kind

    if s[-1] < s[0]:
        s, w_arr, v_arr, ii = s[::-1].copy(), w_arr[::-1].copy(), v_arr[::-1].copy(), ii[::-1].copy()
        lo_kind, hi_kind = hi_kind, lo_kind

    term_lo = TerminationEvent(kind=lo_kind, s=float(s[0]), w=float(w_arr[0]), v=float(v_arr[0]))
    term_hi = TerminationEvent(kind=hi_kind, s=float(s[-1]), w=float(w_arr[-1]), v=float(v_arr[-1]))
    return Trajectory(
        s=s,
        w=w_arr,
        v=v_arr,
        integral=ii,
        direction=BOTH,
        termination=term_hi,
        termination_start=term_lo,
        s_minus=float(s[0]) if lo_kind != GRAPH_END else None,
        s_plus=float(s[-1]) if hi_kind != GRAPH_END else None,
    )


# leg kinds: interior linear legs in W form (anchor under lam) and Y form
# (anchor over lam), and saturated legs that end on the flux boundary
LEG_KINDS = ("linear-W", "linear-Y", RELATIVISTIC, LARSON)


@st.composite
def graph_legs(draw):
    """(params, leg) for a graph leg of one kind, run toward higher or lower v."""
    kind = draw(st.sampled_from(LEG_KINDS))
    up = draw(st.booleans())
    n = draw(st.sampled_from([2, 17, 257, 2049]))
    a = draw(st.floats(0.5, 2.0))
    sigma = draw(st.floats(0.2, 0.8))
    if kind in (RELATIVISTIC, LARSON):
        c = draw(st.floats(0.5, 2.0))
        exponent = draw(st.floats(1.5, 4.0)) if kind == LARSON else None
        p = ModelParams(a=a, sigma=sigma, limiter=FluxLimiter(kind, c=c, p=exponent))
        lo, hi = p.slope_domain
        v_anchor = lo + (hi - lo) * draw(st.floats(0.25, 0.75))
        W_anchor = p.lam * draw(st.floats(8.0, 20.0))
        v_target = hi if up else lo
    else:
        p = ModelParams(a=a, sigma=sigma)
        if kind == "linear-W":
            v_anchor = draw(st.floats(-0.4, 0.4))
            W_anchor = draw(st.floats(0.05, 0.5))
            span = draw(st.floats(0.05, 0.4))
        else:
            v_anchor = draw(st.floats(-1.0, 1.0))
            W_anchor = draw(st.floats(2.0, 20.0))
            span = draw(st.floats(0.05, 1.0))
        v_target = v_anchor + span if up else v_anchor - span
    try:
        leg = integrate_graph_W(p, v_anchor, W_anchor, v_target, n_samples=n)
    except (DenominatorVanished, Inconclusive):
        # a W-form leg that runs into the pinch lam - W - gamma*v^2 = 0 ends
        # in one of these (under 1 % of draws); there is no leg to integrate
        assume(False)
    return p, leg


def quadrature_outcome(fn, p, leg, s_start):
    try:
        return fn(p, leg, s_start=s_start)
    except SignChange:
        return "SignChange"


QUAD_SETTINGS = settings(max_examples=60, deadline=timedelta(seconds=5), database=None)


@QUAD_SETTINGS
@given(pl=graph_legs(), s_start=st.just(0.0) | st.floats(-1.0, 1.0))
def test_quadrature_matches_per_interval_loop(pl, s_start):
    p, leg = pl
    got = quadrature_outcome(reconstruct_s_from_v, p, leg, s_start)
    ref = quadrature_outcome(reference_reconstruct_s_from_v, p, leg, s_start)
    if isinstance(ref, str):
        assert got == ref
        return
    # Only the 7-term weighted sum per interval changes its rounding order.
    for name in ("s", "integral"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * np.ptp(b)
    for name in ("w", "v"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    for ev_got, ev_ref in ((got.termination, ref.termination),
                           (got.termination_start, ref.termination_start)):
        assert ev_got.kind == ev_ref.kind
        assert (ev_got.w, ev_got.v) == (ev_ref.w, ev_ref.v)
    assert (got.s_minus is None) == (ref.s_minus is None)
    assert (got.s_plus is None) == (ref.s_plus is None)
    assert got.direction == ref.direction == BOTH


class TestQuadratureSignChange:
    # On v in [0.5, 0.9] the interpolant keeps W near its sample maximum 0.7
    # at v = 0.5 while v^2 grows: lam - W - v^2 is positive at every sample
    # and at both outer nodes of the last interval, and negative between.
    V = np.array([0.0, 0.2, 0.4, 0.5, 0.9])
    P = lp(1.0, 0.5)

    def den_at_nodes(self, sol):
        mid = 0.5 * (self.V[:-1] + self.V[1:])
        half = 0.5 * (self.V[1:] - self.V[:-1])
        nodes = mid[:, None] + half[:, None] * GL_NODES
        return 1.0 - sol.W_at(nodes) - nodes * nodes

    def test_sign_change_at_interior_nodes_of_last_interval(self):
        W = np.array([0.1, 0.1, 0.2, 0.7, 0.1])
        sol = GraphSolution(v=self.V, W=W, mode="W")
        assert np.all(1.0 - W - self.V**2 > 0.0)
        den = self.den_at_nodes(sol)
        assert np.all(den[:-1] > 0.0)
        assert den[-1, 0] > 0.0 and den[-1, -1] > 0.0 and np.any(den[-1] < 0.0)
        with pytest.raises(SignChange):
            reconstruct_s_from_v(self.P, sol)
        with pytest.raises(SignChange):
            reference_reconstruct_s_from_v(self.P, sol)
        # the same leg walked from the other end
        rev = GraphSolution(v=self.V[::-1].copy(), W=W[::-1].copy(), mode="W")
        with pytest.raises(SignChange):
            reconstruct_s_from_v(self.P, rev)

    def test_one_signed_leg_passes(self):
        W = np.array([0.1, 0.1, 0.2, 0.5, 0.1])
        sol = GraphSolution(v=self.V, W=W, mode="W")
        assert np.all(self.den_at_nodes(sol) > 0.0)
        traj = reconstruct_s_from_v(self.P, sol, s_start=0.25)
        assert len(traj.s) == len(self.V)
        assert traj.s[0] == 0.25 and np.all(np.diff(traj.s) > 0.0)
        assert traj.termination.kind == traj.termination_start.kind == GRAPH_END
