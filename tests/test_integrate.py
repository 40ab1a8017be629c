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
    MAX_SPAN,
    V_BLOW_UP_PLUS,
    W_VANISHED,
    Controls,
    EventSpec,
    TerminationEvent,
    built_with_arrays,
    integrate,
    integrate_graph_W,
    merge_trajectories,
    sample_list,
)
from kswave.phase import ModelParams, equilibria, make_rhs
from kswave.profiles import graph_trajectory

SAMPLES = ("s", "w", "v", "integral")  # the sample fields of a Trajectory


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
        traj = integrate(COTH_P, 0.0, v0, direction=FORWARD, s0=1.0)
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

    def test_edge_converges_strictly_in_rtol(self):
        # the exact edge is 0: each tighter tolerance must bring it closer
        v0 = 1.0 / math.tanh(1.0)
        errors = [
            abs(integrate(
                COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0,
                controls=Controls(rtol=rtol, atol=rtol / 100.0),
            ).s_minus)
            for rtol in (1e-6, 1e-8, 1e-10, 1e-12)
        ]
        assert all(tight < loose for loose, tight in zip(errors, errors[1:])), errors


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
        traj = integrate(p, 0.1, 1.3, direction=FORWARD, controls=ctr)
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
            want = list_merge(pieces)
            # orbits store lists and are joined as lists, graph legs arrays
            for stored in (list, np.ndarray):
                as_stored = [
                    dataclasses.replace(piece, **{
                        f: getattr(piece, f).tolist() if stored is list else getattr(piece, f)
                        for f in ("s", "w", "v", "integral")
                    })
                    for piece in pieces
                ]
                merged = merge_trajectories(as_stored)
                assert built_with_arrays([merged], SAMPLES) == (stored is np.ndarray)
                got = [merged.s, merged.w, merged.v, merged.integral]
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()

    def test_reading_a_field_changes_no_merge(self):
        # orbits store lists; reading a field (as sorting pieces by s[0]
        # does) builds an array beside the list and leaves what is stored
        v0 = 1.0 / math.tanh(1.0)
        ctr = Controls(s_max=2.0, eq_dwell=math.inf)

        def pieces():
            back = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0, controls=ctr)
            fwd = integrate(COTH_P, 0.0, v0, direction=FORWARD, s0=1.0, controls=ctr)
            # s and I of the second piece start off the seam, so both shift
            cols = {name: sample_list(fwd, name) for name in SAMPLES}
            cols["s"] = [x + 0.25 for x in cols["s"]]
            cols["integral"] = [x - 0.75 for x in cols["integral"]]
            return back, dataclasses.replace(fwd, **cols)

        want = merge_trajectories(pieces())
        for read in (("s",), ("s", "integral"), SAMPLES):
            both = pieces()
            for piece in both:
                for name in read:
                    getattr(piece, name)
                assert not built_with_arrays([piece], SAMPLES)
            got = merge_trajectories(both)
            assert not built_with_arrays([got], SAMPLES)
            for name in SAMPLES:
                assert sample_list(got, name) == sample_list(want, name)
        # a piece that stores one column as an array is joined as lists
        back, fwd = pieces()
        fwd = dataclasses.replace(fwd, **{name: sample_list(fwd, name) for name in SAMPLES[:3]})
        assert isinstance(fwd.integral, np.ndarray) and not built_with_arrays([fwd], SAMPLES)
        got = merge_trajectories([back, fwd])
        for name in SAMPLES:
            assert sample_list(got, name) == sample_list(want, name)

    def test_seam_mismatch_raises(self):
        v0 = 1.0 / math.tanh(1.0)
        ctr = Controls(s_max=0.5, eq_dwell=math.inf)
        back = integrate(COTH_P, 0.0, v0, direction=BACKWARD, s0=1.0, controls=ctr)
        other = integrate(COTH_P, 0.5, v0, direction=FORWARD, s0=1.0, controls=ctr)
        with pytest.raises(AnchorMismatch):
            merge_trajectories([back, other])


class TestAssemble:
    """A sample within float noise of the next one is dropped from a run."""

    @staticmethod
    def assemble(ss, direction):
        n = len(ss)
        ws, vs, iis = ([c + k for k in range(n)] for c in (1.0, 2.0, 3.0))
        term = TerminationEvent(kind=MAX_SPAN, s=ss[-1], w=ws[-1], v=vs[-1])
        traj = INTEGRATE._assemble(COTH_P, None, ss, ws, vs, iis, direction, term, Controls())
        return [sample_list(traj, name) for name in ("s", "w", "v", "integral")]

    @pytest.mark.parametrize("tip", [1.0, 1e6])
    def test_noise_gap_drops_the_lower_sample(self, tip):
        # the last gap is one ulp, far under 16 eps * |s|
        fwd = [0.0, 0.5 * tip, tip, math.nextafter(tip, math.inf)]
        s, w, v, ii = self.assemble(fwd, FORWARD)
        assert s == [fwd[0], fwd[1], fwd[3]]
        assert (w, v, ii) == ([1.0, 2.0, 4.0], [2.0, 3.0, 5.0], [3.0, 4.0, 6.0])
        # a backward run is reversed first, so its tip comes first
        s, w, v, ii = self.assemble([-x for x in fwd], BACKWARD)
        assert s == [-fwd[2], -fwd[1], -fwd[0]]
        assert w == [3.0, 2.0, 1.0]

    def test_gaps_over_their_own_floor_are_kept(self):
        # 1e-14 is under the floor at |s| = 1e6 but over the one at s = 0
        ss = [0.0, 1e-14, 1.0, 1e6]
        assert self.assemble(ss, FORWARD)[0] == ss


class TestGraphForm:
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
        rec = sol.trajectory()
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

    def test_fold_stall_is_denominator_vanished(self):
        # W's slope diverges at the fold lam - W - gamma*v^2 = 0 near
        # v = -0.4035, so the solver's step underflows with the denominator
        # near 3e-8, long before it reaches the event floor of 1e-10
        p = lp(1.2687, 0.7964)
        with pytest.raises(DenominatorVanished, match="fold"):
            integrate_graph_W(p, v_anchor=-0.1476, W_anchor=0.3995, v_target=-0.4233)

    @pytest.mark.parametrize("limiter", [LINEAR, RELATIVISTIC])
    def test_W_at_is_nan_off_the_leg(self, limiter):
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(limiter))
        lo = p.slope_domain[0] if limiter == RELATIVISTIC else -0.5
        sol = integrate_graph_W(p, v_anchor=0.5, W_anchor=2.0, v_target=lo)
        assert (sol.boundary is None) == (limiter == LINEAR)
        inside = sol.W_at(np.array([lo, 0.0, 0.5]))
        assert np.all(np.isfinite(inside))
        assert inside[-1] == pytest.approx(2.0, rel=1e-14)
        assert np.isnan(sol.W_at(0.5 + 1e-3))
        assert np.isnan(sol.W_at(np.array([0.6, 0.9]))).all()
        if limiter == LINEAR:
            assert np.isnan(sol.W_at(lo - 1e-3))

    def test_anchor_validation(self):
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        from kswave.errors import DomainError

        with pytest.raises(DomainError):
            integrate_graph_W(p, v_anchor=-2.0, W_anchor=1.0, v_target=0.0)
        with pytest.raises(ValueError):
            integrate_graph_W(p, v_anchor=0.5, W_anchor=1.0, v_target=0.5)
        with pytest.raises(ValueError):
            integrate_graph_W(p, v_anchor=0.5, W_anchor=0.0, v_target=0.2)

    @pytest.mark.parametrize("trace", [
        # the linear slope domain is (-inf, inf), and a graph trace runs one
        # leg to each edge: +inf first, in Y form here and in W form next
        lambda: graph_trajectory(COTH_P, 2.0, 0.5),
        lambda: graph_trajectory(COTH_P, 0.3, 0.0),
        lambda: integrate_graph_W(COTH_P, v_anchor=0.0, W_anchor=0.3, v_target=-math.inf),
        lambda: integrate_graph_W(COTH_P, v_anchor=0.0, W_anchor=0.3, v_target=math.nan),
    ], ids=["trace-Y-form", "trace-W-form", "minus-inf", "nan"])
    def test_non_finite_target_is_outside_the_slope_domain(self, monkeypatch, trace):
        def forbidden(*args, **kwargs):
            raise AssertionError("graph leg stepped toward a non-finite target")

        monkeypatch.setattr(INTEGRATE, "_rk_step", forbidden)
        with pytest.raises(DomainError, match="v_target"):
            trace()

    def test_step_budget_exhaustion_raises(self):
        p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))
        lo, _ = p.slope_domain
        integrate_graph_W(p, v_anchor=0.5, W_anchor=5.0, v_target=lo)
        with pytest.raises(Inconclusive, match="budget"):
            integrate_graph_W(
                p, v_anchor=0.5, W_anchor=5.0, v_target=lo, controls=Controls(max_steps=3)
            )


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

INTEGRATE = importlib.import_module("kswave.integrate")
STEPPER = INTEGRATE._dp54_step


def generic_step(f, y, k1, h):
    """The generic tableau loop on the orbit slopes (f(w, v), v): the
    reference the unrolled stepper must match."""
    y5, k, err = INTEGRATE._rk_step(lambda t, y: f(y[0], y[1]) + (y[1],), 0.0, y, k1, h)
    return y5, k[6], err


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
        generic_step, f, y, sign * h
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
        generic_step, f, y, sign * h
    )


def test_stepper_domain_error_propagates():
    p = STEP_PARAMS[RELATIVISTIC]
    f = make_rhs(p)
    v = p.slope_domain[1] - 1e-6
    k1 = f(1.0, v) + (v,)
    # a unit step in the direction that raises v leaves the slope domain
    h = math.copysign(1.0, k1[1])
    with pytest.raises(DomainError):
        generic_step(f, (1.0, v, 0.0), k1, h)
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

    def test_controls_rtol_floor(self):
        floor = 100.0 * np.finfo(float).eps
        assert Controls(rtol=floor).rtol == floor
        for bad in (np.nextafter(floor, 0.0), 1e-60, 1e-300):
            with pytest.raises(ValueError, match="machine epsilon"):
                Controls(rtol=bad)
        # atol has no floor: it is an absolute scale
        assert Controls(atol=1e-300).atol == 1e-300

    def test_controls_accept_disabled_limits(self):
        ctr = Controls(eq_dwell=math.inf, w_min=0.0)
        assert ctr.eq_dwell == math.inf

    def test_controls_accept_the_ends_of_their_ranges(self):
        ctr = Controls(h_max=math.inf, max_steps=1, v_max=math.inf, eq_tol=0.0)
        assert (ctr.h_max, ctr.max_steps, ctr.v_max, ctr.eq_tol) == (math.inf, 1, math.inf, 0.0)

    @pytest.mark.parametrize("name, bad", [
        ("h_max", 0.0), ("h_max", -1.0), ("h_max", -math.inf),
        ("s_max", 0.0), ("s_max", -5.0), ("s_max", math.inf),
        ("max_steps", 0), ("max_steps", -1), ("max_steps", 2.5), ("max_steps", 10.0),
        ("max_steps", True),
        ("v_max", 0.0), ("v_max", -1.0),
        ("w_min", -1e-12), ("w_min", -math.inf),
        ("eq_tol", -1e-9),
        ("eq_dwell", 0.0), ("eq_dwell", -5.0),
        ("boundary_eps_rel", 0.0), ("boundary_eps_rel", -1e-9),
        ("denom_eps", 0.0), ("denom_eps", -1e-10),
    ])
    def test_controls_reject_out_of_range_fields(self, name, bad):
        with pytest.raises(ValueError, match=name):
            Controls(**{name: bad})

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

    def test_underflow_at_the_domain_wall_is_flux_boundary_arrival(self, monkeypatch):
        # A field that leaves its domain 1e-7 short of the flux boundary,
        # inside the 1e-6 arrival zone but before the event level: steps
        # that keep raising DomainError there have arrived.  The same wall
        # made of NaN is no arrival, only an underflow.
        mod = importlib.import_module("kswave.integrate")
        p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))
        wall = p.slope_domain[1] - 1e-7

        def field_raising(exc):
            def field(w, v):
                if v < wall:
                    return 0.0, 1.0
                if exc is None:
                    return math.nan, math.nan
                raise exc("past the wall")
            return lambda p: field

        monkeypatch.setattr(mod, "make_rhs", field_raising(DomainError))
        traj = integrate(p, 1.0, 0.0)
        assert traj.termination.kind == FLUX_BOUNDARY_HIGH
        assert wall - 1e-9 < traj.v[-1] < wall
        monkeypatch.setattr(mod, "make_rhs", field_raising(None))
        with pytest.raises(StepSizeUnderflow):
            integrate(p, 1.0, 0.0)
