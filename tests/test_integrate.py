"""Integrator: exact-solution oracles, events, termination taxonomy, graph form."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kswave.errors import (
    AnchorMismatch,
    DenominatorVanished,
    DomainError,
    Inconclusive,
    KswaveError,
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
    V_BLOW_UP_MINUS,
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
from kswave.phase import ModelParams, equilibria, make_log_rhs
from kswave.profiles import graph_trajectory, saturated_front

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
        # the flux-boundary leg ends on the edge itself
        assert traj.termination.v == lo == traj.v[-1]
        assert traj.termination.w > 0.0
        assert traj.s_plus == traj.termination.s == traj.s[-1]
        assert np.all(np.diff(traj.v) < 0)  # v runs monotonically to the edge

    def test_turn_next_to_the_flux_boundary(self):
        # Launched 8e-10 from its lower edge, this Larson orbit (p = 1.3)
        # turns 6.8e-12 short of it, where g(a*v - sigma) computed from v
        # has lost its digits to cancellation: the march in q stalls at the
        # turn, and the leg in ln w takes the orbit through it
        lim = FluxLimiter(LARSON, c=1.1745660630038286, p=1.3)
        p = ModelParams(a=1.1745660630038286, sigma=0.9240120051523087, limiter=lim)
        lo, _ = p.slope_domain
        for rtol in (1e-10, 1e-12, 1e-13):
            traj = integrate(p, 1.1745660630038286, -0.21331627467245304, controls=Controls(rtol=rtol))
            assert traj.termination.kind == CONVERGED
            assert 0.0 < min(traj.v) - lo < 1e-11

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
        traj = INTEGRATE._assemble(ss, ws, vs, iis, direction, term)
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

    def test_forward_launch_stays_in_place_of_the_next_sample(self):
        # the launch is where merge_trajectories joins the runs of an orbit,
        # also when it is the run's only other sample
        s, w, v, ii = self.assemble([1.0, math.nextafter(1.0, 2.0), 1.5, 2.0], FORWARD)
        assert (s, w) == ([1.0, 1.5, 2.0], [1.0, 3.0, 4.0])
        s, w, v, ii = self.assemble([1.0, math.nextafter(1.0, 2.0)], FORWARD)
        assert (s, w) == ([1.0], [1.0])

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
        assert sol.boundary is None
        assert math.isfinite(float(sol.W_at(0.25)))

    def test_denominator_vanishing_raises(self):
        # past v = v_star the parabola lam - gamma*v^2 turns negative while
        # W stays positive, so lam - W - gamma*v^2 must pinch to zero
        p = lp(1.0, 0.5)
        with pytest.raises(DenominatorVanished):
            integrate_graph_W(p, v_anchor=0.9, W_anchor=0.05, v_target=1.2)

    def test_anchor_at_the_floor_is_denominator_vanished(self):
        # lam - W - gamma*v^2 is 1e-11 at the anchor, under the floor 1e-10
        p = lp(1.0, 0.5)
        with pytest.raises(DenominatorVanished, match="anchor"):
            integrate_graph_W(p, v_anchor=0.5, W_anchor=0.75 - 1e-11, v_target=0.2)

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
        # past a boundary leg's edge q clamps to 0, which is on the leg
        assert np.isnan(sol.W_at(lo - 1e-3))
        assert np.isnan(sol.W_at(np.array([lo - 1e-3, lo - 5.0]))).all()

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

        monkeypatch.setattr(INTEGRATE, "_graph_step", forbidden)
        with pytest.raises(DomainError, match="v_target"):
            trace()

    @pytest.mark.parametrize("n_samples", [0, 1, 2.5, True])
    @pytest.mark.parametrize("trace", [
        lambda n: integrate_graph_W(COTH_P, v_anchor=0.0, W_anchor=0.3, v_target=0.5,
                                    n_samples=n),
        lambda n: graph_trajectory(COTH_P, 0.3, 0.0, n_samples=n),
        lambda n: saturated_front(
            ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0)),
            0.5, 5.0, branch="above", n_samples=n,
        ),
    ], ids=["leg", "graph-trajectory", "front"])
    def test_sample_count_is_an_int_of_at_least_two(self, monkeypatch, trace, n_samples):
        def forbidden(*args, **kwargs):
            raise AssertionError("graph leg marched before its sample count was checked")

        monkeypatch.setattr(INTEGRATE, "_leg_march", forbidden)
        with pytest.raises(ValueError, match="n_samples"):
            trace(n_samples)

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
# the unrolled DOP853 orbit stepper against the generic tableau loop
# --------------------------------------------------------------------------

INTEGRATE = importlib.import_module("kswave.integrate")


def nonzero(row):
    return [(j, a) for j, a in enumerate(row) if a != 0.0]


def generic_rk_step(f, t, y, k1, h):
    """One DP54 step of size h from (t, y) with cached k1 = f(t, y), for any
    f(t, y) -> slopes, as a generic tableau loop: the reference the unrolled
    steps must match.  Returns the 5th-order result, the seven stage slopes
    (the last is f at the result, FSAL) and the embedded error estimate per
    component.  Each sum runs left to right over the nonzero coefficients,
    each error sum from 0.0."""
    k = [k1]
    for i in range(1, 7):
        yi = []
        for c, u in enumerate(y):
            for j, a in nonzero(INTEGRATE._A[i]):
                u += (h * a) * k[j][c]
            yi.append(u)
        k.append(f(t + INTEGRATE._C[i] * h, yi))
    err = []
    for c in range(len(y)):
        acc = 0.0
        for j, e in nonzero(INTEGRATE._E):
            acc += e * k[j][c]
        err.append(h * acc)
    return tuple(yi), k, tuple(err)


def generic_dop853_step(f, t, y, k1, h):
    """The generic DOP853 tableau loop on the orbit slopes (f(ln w, v), v)."""
    return generic_dop853_loop(lambda t, y: f(y[0], y[1]) + (y[1],), t, y, k1, h)


def generic_dop853_loop(slopes, t, y, k1, h):
    """The generic DOP853 tableau loop on slopes(t, y).

    Row i of the tableau makes stage i + 1, at t + _C8[i] * h, and the last
    row the result; each sum runs left to right over the nonzero
    coefficients, each error sum from 0.0, in explicit loops (Python 3.12's
    sum() compensates rounding)."""
    k = [k1]
    for i, row in enumerate(INTEGRATE._A8[1:], start=1):
        yi = []
        for c, u in enumerate(y):
            for j, a in nonzero(row):
                u += (h * a) * k[j][c]
            yi.append(u)
        k.append(slopes(t + INTEGRATE._C8[i] * h, yi))
    errs = []
    for e_row in (INTEGRATE._E8_5, INTEGRATE._E8_3):
        err = []
        for c in range(len(y)):
            acc = 0.0
            for j, e in nonzero(e_row):
                acc += e * k[j][c]
            err.append(h * acc)
        errs.append(tuple(err))
    # k[12] is the slope at the result: the next step's first (FSAL)
    return tuple(yi), k[12], tuple(errs)


STEP_PARAMS = {
    LINEAR: ModelParams(a=1.0, sigma=0.5),
    # mu, gamma and lam other than 1: with 1, x/mu and x*(1/mu) agree
    "linear-mu0.7-gamma0.8-lam1.3": ModelParams(
        a=1.0, sigma=0.5, gamma=0.8, lam=1.3, limiter=FluxLimiter(LINEAR, mu=0.7)
    ),
    # slope domain (-1.87, 2.13)
    RELATIVISTIC: ModelParams(a=1.5, sigma=0.2, limiter=FluxLimiter(RELATIVISTIC, c=3.0)),
    # slope domain (-1.42, 1.92)
    LARSON: ModelParams(a=1.2, sigma=0.3, limiter=FluxLimiter(LARSON, c=2.0, p=2.5)),
}


def flat(x):
    return [z for part in x for z in flat(part)] if isinstance(x, tuple) else [x]


def step_outcome(stepper, field, f, y, h):
    """Bit patterns of (y1, k_new, error estimates) of stepper(field, 0, y,
    k1, h), k1 the slopes (f(ln w, v), v) at y, or the name of the error raised."""
    k1 = f(y[0], y[1]) + (y[1],)
    try:
        out = flat(stepper(field, 0.0, y, k1, h))
    except (DomainError, OverflowError) as exc:
        return type(exc).__name__
    return struct.pack(f"<{len(out)}d", *out)


def kernel_against_reference(p, y, h):
    """The outcomes of the orbit kernel on p and of the generic loop on
    make_log_rhs(p), from y with a step of size h."""
    f = make_log_rhs(p)
    return (
        step_outcome(INTEGRATE._dop853_step, INTEGRATE._orbit_field(p), f, y, h),
        step_outcome(generic_dop853_step, f, f, y, h),
    )


STEP_SETTINGS = settings(max_examples=300, deadline=timedelta(seconds=2), database=None)


@STEP_SETTINGS
@given(
    kind=st.sampled_from(sorted(STEP_PARAMS)),
    lw=st.just(-math.inf) | st.floats(-50.0, math.log(1e3)),
    v_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ii=st.floats(-1e3, 1e3),
    h=st.floats(1e-9, 2.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_stepper_bit_equal_to_reference(kind, lw, v_frac, ii, h, sign):
    # ln w = -inf is the axis w = 0
    p = STEP_PARAMS[kind]
    lo, hi = p.slope_domain
    lo, hi = max(lo, -50.0), min(hi, 50.0)
    v = lo + v_frac * (hi - lo)
    assume(lo < v < hi)
    kernel, reference = kernel_against_reference(p, (lw, v, ii), sign * h)
    assert kernel == reference


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
    kernel, reference = kernel_against_reference(p, (math.log(w), v, 0.5), sign * h)
    assert kernel == reference


class _TailCaught(Exception):
    pass


def tail_field(p, v):
    """(f, kernel) of the blow-up tail of p that starts at slope v: the
    field f(tau, ln w) its march starts on and its kernel (step,
    constants, order), caught at the march's call."""
    caught = {}

    def catch(field, state, t, y, t_end, ends, ctr, samples, kind, kernel=None):
        caught.update(f=field, kernel=kernel)
        raise _TailCaught

    with pytest.MonkeyPatch.context() as m:
        m.setattr(INTEGRATE, "_march_to_end", catch)
        with pytest.raises(_TailCaught):
            INTEGRATE._blow_up_tail(p, 0.0, (0.0, v, 0.0), [], Controls(), ([], [], [], []))
    return caught["f"], caught["kernel"]


@STEP_SETTINGS
@given(
    kind=st.sampled_from([k for k in sorted(STEP_PARAMS) if k.startswith(LINEAR)]),
    vsign=st.sampled_from([1.0, -1.0]),
    tau_frac=st.floats(0.0, 1.0, exclude_max=True),
    lw=st.just(-math.inf) | st.floats(-60.0, math.log(1e3)),
    r=st.floats(-1e3, 1e3),
    ii=st.floats(-1e3, 1e3),
    h_frac=st.floats(1e-9, 1.0),
)
def test_tail_kernel_bit_equal_to_reference(kind, vsign, tau_frac, lw, r, ii, h_frac):
    # the tail's DOP853 kernel evaluates the tail field inline: it gives what
    # the generic time-dependent tableau loop gives on the field closure the
    # tail's march starts on, to the bit, from past a switch level up to
    # v_max; ln w = -inf is the axis w = 0
    p = STEP_PARAMS[kind]
    v_sw = 10.0 * max(p.v_star, 2.0)
    f, (step, consts, order) = tail_field(p, vsign * v_sw)
    assert (step, order) == (INTEGRATE._tail_step, 8)
    t0, t1 = math.log(v_sw), math.log(1e6)
    t = t0 + tau_frac * (t1 - t0)
    h = h_frac * (t1 - t)
    assume(h != 0.0)
    y = (lw, r, ii)
    k1 = f(t, lw)
    kernel = graph_step_outcome(step, consts, t, y, k1, h)
    reference = graph_step_outcome(
        lambda f, t, y, k1, h: generic_dop853_loop(lambda t, y: f(t, y[0]), t, y, k1, h),
        f, t, y, k1, h,
    )
    assert kernel == reference


def left_sum(terms):
    """sum() as Python 3.11 computes it: from 0, left to right (3.12's
    sum() compensates rounding)."""
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def generic_initial_h(f, t, y, k1, sgn, ctr, span, order=5):
    """`_initial_h` written for a state of any length: the reference the
    unrolled 3-component version must match."""
    n = len(y)
    sc = tuple(ctr.atol + ctr.rtol * abs(c) for c in y)
    d0 = math.sqrt(left_sum((y[c] / sc[c]) ** 2 for c in range(n)) / n)
    d1 = math.sqrt(left_sum((k1[c] / sc[c]) ** 2 for c in range(n)) / n)
    h0 = 0.01 * d0 / d1 if (d0 >= 1e-5 and d1 >= 1e-5) else 1e-6
    h0 = min(h0, ctr.h_max, span)
    if h0 == 0.0:
        raise StepSizeUnderflow(f"no initial step: slopes {list(k1)} at state {list(y)}")
    f1 = None
    for _ in range(80):
        try:
            f1 = f(t + sgn * h0, tuple(y[c] + sgn * h0 * k1[c] for c in range(n)))
            break
        except (DomainError, ZeroDivisionError, OverflowError):
            h0 *= 0.25
    if f1 is None:
        raise StepSizeUnderflow("cannot take even an initial trial step")
    d2 = math.sqrt(left_sum(((f1[c] - k1[c]) / sc[c]) ** 2 for c in range(n)) / n) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** (1.0 / order) if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return max(min(100.0 * h0, h1, ctr.h_max, span), 1e3 * INTEGRATE._h_floor(0.0))


@STEP_SETTINGS
@given(
    kind=st.sampled_from(sorted(STEP_PARAMS)),
    lw=st.just(-math.inf) | st.floats(-50.0, math.log(1e3)),
    v_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ii=st.floats(-1e3, 1e3),
    sign=st.sampled_from([1.0, -1.0]),
    rtol=st.sampled_from([1e-13, 1e-10, 1e-6]),
    h_max=st.sampled_from([1e-3, 10.0]),
    span=st.floats(1e-6, 1e3),
    order=st.sampled_from([5, 8]),
    raises=st.sampled_from([0, 1, 3, 80]),
)
def test_initial_h_bit_equal_to_reference(kind, lw, v_frac, ii, sign, rtol, h_max, span, order,
                                          raises):
    # ln w = -inf is the axis w = 0, whose norms are NaN; the first `raises`
    # trial steps raise, each quartering the trial step, and 80 leave none
    p = STEP_PARAMS[kind]
    lo, hi = p.slope_domain
    lo, hi = max(lo, -50.0), min(hi, 50.0)
    v = lo + v_frac * (hi - lo)
    assume(lo < v < hi)
    f = make_log_rhs(p)
    y = (lw, v, ii)
    k1 = f(lw, v) + (v,)
    ctr = Controls(rtol=rtol, h_max=h_max)

    def outcome(initial_h):
        calls = []

        def trial(t, y):
            calls.append(t)
            if len(calls) <= raises:
                raise DomainError("forced in the trial step")
            return f(y[0], y[1]) + (y[1],)

        try:
            h = initial_h(trial, 0.5, y, k1, sign, ctr, span, order)
        except StepSizeUnderflow as exc:
            return str(exc), calls
        return struct.pack("<d", h), calls

    assert outcome(INTEGRATE._initial_h) == outcome(generic_initial_h)


def test_stepper_domain_error_propagates():
    p = STEP_PARAMS[RELATIVISTIC]
    f = make_log_rhs(p)
    v = p.slope_domain[1] - 1e-6
    k1 = f(0.0, v) + (v,)
    # a unit step in the direction that raises v leaves the slope domain
    h = math.copysign(1.0, k1[1])
    with pytest.raises(DomainError):
        generic_dop853_step(f, 0.0, (0.0, v, 0.0), k1, h)
    with pytest.raises(DomainError):
        INTEGRATE._dop853_step(INTEGRATE._orbit_field(p), 0.0, (0.0, v, 0.0), k1, h)


def test_dop853_constants_match_scipy():
    # the tableau was copied from Hairer's dop853.f, as SciPy's was
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A8 = INTEGRATE._A8
    assert len(A8) == ref.N_STAGES + 1
    for i, row in enumerate(A8):
        assert list(row) == ref.A[i, :i].tolist()
    assert list(INTEGRATE._E8_5) == ref.E5[:ref.N_STAGES].tolist()
    # the nodes of the 12 stages and of the slope at the result
    assert list(INTEGRATE._C8) == ref.C[:ref.N_STAGES + 1].tolist()
    assert list(INTEGRATE._E8_3) == ref.E3[:ref.N_STAGES].tolist()
    assert not ref.E5[ref.N_STAGES] and not ref.E3[ref.N_STAGES]
    # the stage nodes are the row sums, to rounding
    for i, row in enumerate(A8[1:], start=1):
        assert math.fsum(row) == pytest.approx(ref.C[i], rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("kind", sorted(STEP_PARAMS))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_continuous_extension_order(kind, sign):
    # Against exact partial steps, the midpoint quintic's error falls like
    # h^6 and that of the cubic Hermite interpolant, taken when the half step
    # raises, like h^4 (2^6 = 64 and 2^4 = 16 per halving); both meet the
    # step's ends.
    p = STEP_PARAMS[kind]
    f, field = make_log_rhs(p), INTEGRATE._orbit_field(p)
    step = INTEGRATE._dop853_step
    y = (math.log(0.7), 0.8, 0.25)
    k1 = f(y[0], y[1]) + (y[1],)

    def raising(*args):
        raise DomainError("forced in the half step")

    def dense(coeffs, theta):
        return tuple(INTEGRATE._quintic_at(c, theta) for c in coeffs)

    errors = []
    for h in (0.2 * sign, 0.1 * sign):
        y1, k13, _ = step(field, 0.0, y, k1, h)
        quintic = INTEGRATE._step_quintic((step, field, 8), 0.0, y, k1, h, y1, k13)
        cubic = INTEGRATE._step_quintic((raising, field, 8), 0.0, y, k1, h, y1, k13)
        for part in (quintic, cubic):
            assert dense(part, 0.0) == y
            assert dense(part, 1.0) == pytest.approx(y1, rel=1e-15, abs=1e-16)
        err = [0.0, 0.0]
        for theta in (0.1, 0.37, 0.5, 0.8, 0.95):
            exact = step(field, 0.0, y, k1, theta * h)[0]
            for j, part in enumerate((quintic, cubic)):
                err[j] = max(err[j], *(abs(a - b) for a, b in zip(dense(part, theta), exact)))
        errors.append(err)
    (quintic_h, cubic_h), (quintic_h2, cubic_h2) = errors
    assert quintic_h2 < 1e-9 and quintic_h / quintic_h2 > 32.0
    assert quintic_h2 < 1e-3 * cubic_h2 and cubic_h / cubic_h2 > 12.0


def orbit_outcome(p, w0, v0, direction, events):
    """An orbit's samples as bit patterns, with its end events and edges,
    or the type and message of the error it raised."""
    try:
        traj = integrate(
            p, w0, v0, direction=direction, controls=Controls(s_max=50.0), extra_events=events
        )
    except KswaveError as exc:
        return type(exc).__name__, str(exc)
    samples = [sample_list(traj, name) for name in SAMPLES]
    bits = [struct.pack(f"<{len(x)}d", *x) for x in samples]
    return bits, traj.termination, traj.termination_start, traj.s_minus, traj.s_plus


@settings(max_examples=12, deadline=timedelta(seconds=10), database=None)
@given(
    kind=st.sampled_from(sorted(STEP_PARAMS)),
    w0=st.floats(1e-3, 5.0),
    v_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    direction=st.sampled_from([FORWARD, BACKWARD]),
    level_frac=st.none() | st.floats(0.0, 1.0),
)
def test_orbit_bit_equal_to_reference(kind, w0, v_frac, direction, level_frac):
    # Whole orbits, event location and the march's error norm included: the
    # kernel gives what the generic loop on make_log_rhs gives, to the bit.
    # An optional extra event, a level of v, is located on the extension.
    p = STEP_PARAMS[kind]
    lo, hi = p.slope_domain
    lo, hi = max(lo, -5.0), min(hi, 5.0)
    v0 = lo + v_frac * (hi - lo)
    assume(lo < v0 < hi)
    events = []
    if level_frac is not None:
        level = lo + level_frac * (hi - lo)
        events.append(EventSpec(fn=lambda s, w, v: v - level, kind="Level"))
    kernel = orbit_outcome(p, w0, v0, direction, events)
    f = make_log_rhs(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            INTEGRATE, "_dop853_step", lambda _, t, y, k1, h: generic_dop853_step(f, t, y, k1, h)
        )
        reference = orbit_outcome(p, w0, v0, direction, events)
    assert kernel == reference


# --------------------------------------------------------------------------
# graph legs: the unrolled step against the generic loop, on Python floats
# --------------------------------------------------------------------------

GRAPH_LEGS = {
    # (params, v_anchor, W_anchor, v_target); v_target "upper" or "lower": that
    # flux boundary, so the leg runs in the boundary coordinate q
    "plain-W": (lp(0.5, 0.3), 0.0, 0.3, 0.5),
    "plain-Y": (lp(1.0, 0.5), 0.5, 3.0, -1.5),
    "boundary-q-Y": (STEP_PARAMS[RELATIVISTIC], 0.3, 5.0, "upper"),
    # slope domain (-0.25, 0.75), inside (-v_star, v_star): a below-branch leg
    "boundary-q-W": (
        ModelParams(a=1.2, sigma=0.3, limiter=FluxLimiter(LARSON, c=0.6, p=2.5)), 0.2, 0.05,
        "upper",
    ),
    "boundary-q-low": (STEP_PARAMS[RELATIVISTIC], 0.3, 5.0, "lower"),
    "boundary-q-larson-low": (STEP_PARAMS[LARSON], -0.2, 6.0, "lower"),
}
BOUNDARY_LEGS = sorted(name for name, leg in GRAPH_LEGS.items() if isinstance(leg[3], str))


def graph_leg(name):
    """(params, v_anchor, W_anchor, v_target) of GRAPH_LEGS[name], a flux
    boundary's v_target as its slope."""
    p, v_anchor, W_anchor, v_target = GRAPH_LEGS[name]
    if isinstance(v_target, str):
        v_target = p.slope_domain[v_target == "upper"]
    return p, v_anchor, W_anchor, v_target


class _FieldCaught(Exception):
    pass


@functools.lru_cache(maxsize=None)
def graph_leg_field(name):
    """(f, t0, t1, y0, kernel) of a graph leg: the field f(t, x) its march
    starts on, caught at the march's call, with the leg's ends, starting
    state and inline-field kernel (step, constants, order), None for an
    interior leg, which steps on f itself."""
    p, v_anchor, W_anchor, v_target = graph_leg(name)
    caught = {}

    def catch(f, t, y, t_end, ctr, kernel=None):
        caught.update(f=f, t0=t, t1=t_end, y0=y, kernel=kernel)
        raise _FieldCaught

    with pytest.MonkeyPatch.context() as m:
        m.setattr(INTEGRATE, "_leg_march", catch)
        with pytest.raises(_FieldCaught):
            integrate_graph_W(p, v_anchor, W_anchor, v_target)
    return caught["f"], caught["t0"], caught["t1"], caught["y0"], caught["kernel"]


def graph_step_outcome(step, f, t, y, k1, h):
    """Bit patterns of (y1, stage slopes, error estimate), or the error raised."""
    try:
        out = flat(tuple(map(tuple, step(f, t, y, k1, h))))
    except (DomainError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__
    return struct.pack(f"<{len(out)}d", *out)


@settings(max_examples=200, deadline=timedelta(seconds=2), database=None)
@given(
    name=st.sampled_from(sorted(GRAPH_LEGS)),
    t_frac=st.floats(0.0, 1.0, exclude_max=True),
    h_frac=st.floats(1e-9, 1.0),
    x_scale=st.floats(0.5, 2.0),
    s=st.floats(-1e3, 1e3),
    ii=st.floats(-1e3, 1e3),
)
def test_graph_step_bit_equal_to_reference(name, t_frac, h_frac, x_scale, s, ii):
    f, t0, t1, y0, _ = graph_leg_field(name)
    # a step from t toward the leg's end, never past it, as the march steps
    t = t0 + t_frac * (t1 - t0)
    h = h_frac * (t1 - t)
    assume(h != 0.0)
    y = (x_scale * y0[0], s, ii)
    try:
        k1 = f(t, y[0])
    except (DomainError, ZeroDivisionError):
        assume(False)
    unrolled = graph_step_outcome(INTEGRATE._graph_step, f, t, y, (k1,), h)

    def generic(f, t, y, k1, h):
        return generic_rk_step(lambda t, y: f(t, y[0]), t, y, k1[0], h)

    assert unrolled == graph_step_outcome(generic, f, t, y, (k1,), h)


@settings(max_examples=300, deadline=timedelta(seconds=2), database=None)
@given(
    name=st.sampled_from(BOUNDARY_LEGS),
    t_frac=st.floats(0.0, 1.0, exclude_max=True),
    h_frac=st.floats(1e-9, 1.0),
    x_scale=st.floats(0.5, 2.0) | st.floats(-30.0, 30.0),
    s=st.floats(-1e3, 1e3),
    ii=st.floats(-1e3, 1e3),
)
# one step from the anchor onto the edge: its stages meet each branch of
# the boundary factor (x = a*q^m/c above 0.5, in (1e-32, 0.5], and 0 at q = 0)
@example(name="boundary-q-Y", t_frac=0.0, h_frac=1.0, x_scale=1.0, s=0.0, ii=0.0)
def test_boundary_kernel_bit_equal_to_graph_step(name, t_frac, h_frac, x_scale, s, ii):
    # the boundary leg's kernel evaluates the boundary factor and the graph
    # field inline: its results, and which error a stage raises, are
    # _graph_step's on the field closure the march starts on, to the bit,
    # over relativistic and Larson legs to both edges (a ln W far off the
    # anchor's reaches the denominator's floor)
    f, t0, t1, y0, (step, consts, order) = graph_leg_field(name)
    assert (step, order) == (INTEGRATE._boundary_step, 5)
    t = t0 + t_frac * (t1 - t0)
    h = h_frac * (t1 - t)
    assume(h != 0.0)
    y = (x_scale * y0[0], s, ii)
    try:
        k1 = f(t, y[0])
    except (DomainError, ZeroDivisionError):
        assume(False)
    kernel = graph_step_outcome(step, consts, t, y, (k1,), h)
    assert kernel == graph_step_outcome(INTEGRATE._graph_step, f, t, y, (k1,), h)


@pytest.mark.parametrize("name", sorted(GRAPH_LEGS))
@pytest.mark.parametrize("box", [float, np.float64], ids=["float", "numpy"])
def test_graph_leg_marches_on_python_floats(monkeypatch, name, box):
    # numpy scalars give the same numbers several times slower: the
    # independent variable and the state must stay Python floats, also when
    # the anchor comes in as a numpy scalar or the leg runs in q
    p, v_anchor, W_anchor, v_target = graph_leg(name)
    march, seen = INTEGRATE._march, []

    def spy(*args, **kwargs):
        for item in march(*args, **kwargs):
            t, y, _, h, t1, y1, _ = item
            seen.extend((t, h, t1, *y, *y1))
            yield item

    monkeypatch.setattr(INTEGRATE, "_march", spy)
    integrate_graph_W(p, box(v_anchor), box(W_anchor), box(v_target))
    assert seen
    assert {type(x) for x in seen} == {float}


@pytest.mark.parametrize("name", sorted(GRAPH_LEGS))
def test_dense_output_reproduces_the_march(monkeypatch, name):
    # the leg's dense output (Horner on per-step coefficients with h folded
    # in) gives the anchor state exactly and every accepted step's end
    # state to rounding; the legs run in v both ways and in q to both kinds
    # of saturated edge
    p, v_anchor, W_anchor, v_target = graph_leg(name)
    march, ends = INTEGRATE._march, []

    def spy(*args, **kwargs):
        for item in march(*args, **kwargs):
            _, _, _, _, t1, y1, _ = item
            ends.append((t1, *y1))
            yield item

    monkeypatch.setattr(INTEGRATE, "_march", spy)
    sol = integrate_graph_W(p, v_anchor, W_anchor, v_target, s_start=0.25)
    t0 = v_anchor if sol.boundary is None else float(sol.boundary.q(v_anchor))
    assert sol.dense(np.array([t0]))[:, 0].tolist() == [math.log(W_anchor), 0.25, 0.0]
    t, *want = np.array(ends).T
    assert len(t) > 5
    got = sol.dense(t)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 1e-15)


# Launches on or beyond a termination level, or inside an equilibrium ball:
# the orbit loop skips the level scan and the ball test while no step can
# trigger them.  (params, w0, v0, controls) -> per direction the termination
# kind, its s and the sample count, or the error raised.  The two backward
# default-v_max blow-ups end on a blow-up tail (marched in ln|v| with DOP853,
# from the end of the step that crosses its switch level).  The
# "standoff" launches start within 1e-9 * c/a of the flux boundary, far past
# the switch level of its leg: toward it, they end on it in that leg's one
# step; away from it, the leg takes them out of the band in ln w.
EDGE_CTR = Controls(v_max=50.0, s_max=20.0)
_REL = STEP_PARAMS[RELATIVISTIC]
_EPS_V = 1e-9 * _REL.limiter.c / _REL.a
EDGE_LAUNCHES = {
    "v0=+v_max": ((lp(1.0, 0.5), 1.0, 50.0, EDGE_CTR),
                  (BOUNDED, 20.0, 96), "StepSizeUnderflow"),
    "v0=-v_max": ((lp(1.0, 0.5), 1.0, -50.0, EDGE_CTR),
                  "StepSizeUnderflow", (V_BLOW_UP_PLUS, -2.840360670900356, 79)),
    "v0>v_max": ((lp(1.0, 0.5), 1.0, 60.0, EDGE_CTR),
                 (BOUNDED, 20.0, 98), "StepSizeUnderflow"),
    "v0<-v_max": ((lp(1.0, 0.5), 1.0, -60.0, EDGE_CTR),
                  "StepSizeUnderflow", (V_BLOW_UP_PLUS, -2.841277572549723, 81)),
    "w0=w_min": ((lp(1.0, 0.5), 1e-12, 2.0, Controls(s_max=20.0)),
                 (CONVERGED, 17.892201414101862, 36), (V_BLOW_UP_PLUS, -0.5493051443445055, 33)),
    "standoff-high": ((_REL, 5.0, _REL.slope_domain[1] - 0.5 * _EPS_V, Controls(s_max=20.0)),
                      (FLUX_BOUNDARY_LOW, 0.5441315178540849, 60),
                      (FLUX_BOUNDARY_HIGH, -1.1694438238854738e-10, 2)),
    "standoff-low": ((_REL, 5.0, _REL.slope_domain[0] + 0.5 * _EPS_V, Controls(s_max=20.0)),
                     (FLUX_BOUNDARY_LOW, 1.336112166488532e-10, 2),
                     (FLUX_BOUNDARY_HIGH, -0.487786364759458, 59)),
    "on-standoff-level": ((_REL, 5.0, _REL.slope_domain[1] - _EPS_V, Controls(s_max=20.0)),
                          (FLUX_BOUNDARY_LOW, 0.5441353806668733, 60),
                          (FLUX_BOUNDARY_HIGH, -2.338891837962728e-10, 2)),
    "in-eq-ball": ((lp(1.0, 0.5), 0.3e-10, 1.0 + 0.2e-10, Controls(s_max=20.0)),
                   (CONVERGED, 6.543515120210078, 6),
                   (V_BLOW_UP_PLUS, -12.326384343160925, 53)),
    # launched on v_max, the forward orbit rises off it, which triggers
    # nothing; the backward one falls off it and spirals out until it
    # crosses v_max upward
    "on-v_max": ((lp(2.0, 0.5), 0.3, 0.7, Controls(v_max=0.7, s_max=60.0)),
                 (CONVERGED, 51.208880406733606, 49), (V_BLOW_UP_PLUS, -4.181590687606426, 24)),
    # the backward orbit leaves v > v_max downward, which triggers nothing,
    # and spirals out until it crosses v_max upward
    "re-entry": ((lp(2.0, 0.5), 0.3, 0.76, Controls(v_max=0.7, s_max=60.0)),
                 (CONVERGED, 49.121509979310744, 48), (V_BLOW_UP_PLUS, -4.512574722958946, 26)),
}


@pytest.mark.parametrize("name", sorted(EDGE_LAUNCHES))
@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_edge_launch_terminations(name, direction):
    (p, w0, v0, ctr), *want = EDGE_LAUNCHES[name]
    want = want[0] if direction == FORWARD else want[1]
    if isinstance(want, str):
        with pytest.raises(getattr(importlib.import_module("kswave.errors"), want)):
            integrate(p, w0, v0, direction=direction, controls=ctr)
        return
    kind, s_end, n = want
    traj = integrate(p, w0, v0, direction=direction, controls=ctr)
    assert traj.termination.kind == kind
    assert traj.termination.s == pytest.approx(s_end, rel=1e-12, abs=1e-20)
    assert len(traj.s) == n


def located_events(monkeypatch) -> list:
    """Spy on `_first_event`: the list it fills, per located event, with
    (step kernel, event, located (s, w, v))."""
    first_event, located = INTEGRATE._first_event, []

    def spy(kernel, t, y, k1, h, y1, k_end, fired, start, state):
        ev, theta, y_ev = first_event(kernel, t, y, k1, h, y1, k_end, fired, start, state)
        located.append((kernel[0], ev, state(t + h * theta, y_ev)))
        return ev, theta, y_ev

    monkeypatch.setattr(INTEGRATE, "_first_event", spy)
    return located


@pytest.mark.parametrize("name", ["standoff-high", "standoff-low"])
def test_leg_out_event_lands_on_its_level(monkeypatch, name):
    # launched in a flux-boundary band and heading out, the orbit leaves the
    # band in ln w (DP54 on the field closure) at the out level 2e-3 of the
    # slope domain's width from the edge, located on the step's quintic
    (p, w0, v0, ctr), *_ = EDGE_LAUNCHES[name]
    lo, hi = p.slope_domain
    side = 1 if name == "standoff-high" else -1
    v_out = hi - 2e-3 * (hi - lo) if side > 0 else lo + 2e-3 * (hi - lo)
    located = located_events(monkeypatch)
    traj = integrate(p, w0, v0, direction=FORWARD if side > 0 else BACKWARD, controls=ctr)
    outs = [(s, w, v) for step, ev, (s, w, v) in located if step is INTEGRATE._graph_step]
    assert len(outs) == 1
    s, w, v = outs[0]
    assert v == pytest.approx(v_out, rel=1e-13)
    # the hand-back to the march in s starts from the located state
    k = sample_list(traj, "s").index(s)
    assert (sample_list(traj, "w")[k], sample_list(traj, "v")[k]) == (w, v)


@pytest.mark.parametrize("name", ["standoff-high", "standoff-low"])
@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_hermite_fallback_locates_the_flux_boundary(monkeypatch, name, direction):
    # a half step of event location that leaves the field's domain drops the
    # interpolant to the cubic Hermite one of the step's ends, on an orbit's
    # DOP853 step and on a flux-boundary leg's DP54 step alike; the Newton
    # correction on the exact partial step still puts the switch level of
    # the flux-boundary leg, and the leg's way out of its band, where they
    # were, and the leg ends on the edge
    forced = []
    quintic = INTEGRATE._step_quintic

    def raising(*args):
        raise DomainError("forced in the half step")

    def cubic(kernel, *args):
        _, consts, order = kernel
        forced.append(order)
        return quintic((raising, consts, order), *args)

    monkeypatch.setattr(INTEGRATE, "_step_quintic", cubic)
    test_edge_launch_terminations(name, direction)
    (p, w0, v0, ctr), *_ = EDGE_LAUNCHES[name]
    traj = integrate(p, w0, v0, direction=direction, controls=ctr)
    lo, hi = p.slope_domain
    edge = {FLUX_BOUNDARY_LOW: lo, FLUX_BOUNDARY_HIGH: hi}
    kind = traj.termination.kind
    assert traj.termination.v == edge[kind]
    # a far end is reached by leaving the launch's band in ln w (DP54) and
    # crossing the far switch level (DOP853), both located
    assert sorted(set(forced)) == ([5, 8] if abs(v0 - edge[kind]) > _EPS_V else [])


def test_extra_events_win_ties_against_levels():
    # an extra event on the same level as the V_BLOW_UP_PLUS level of
    # v_max = 5 fires with it at the same theta and wins; one a little
    # beyond the level fires later and loses
    p, ctr = lp(1.0, 0.5), Controls(v_max=5.0)
    for offset, kind in ((0.0, "Tie"), (1e-6, V_BLOW_UP_PLUS)):
        ev = EventSpec(fn=lambda s, w, v, x=5.0 + offset: v - x, kind="Tie", direction=1)
        traj = integrate(p, 1.0, -2.0, direction=BACKWARD, controls=ctr, extra_events=[ev])
        assert traj.termination.kind == kind
        assert traj.termination.v == pytest.approx(5.0, rel=1e-15)


def test_huge_launch_density_underflows():
    # v' = (lam - gamma*v^2 - w)/gamma is -1e300 there, whose scaled norm
    # overflows: no initial step can be sized
    with pytest.raises(StepSizeUnderflow, match="no initial step"):
        integrate(lp(0.5, 1.0), 1e300, 0.5)


# --------------------------------------------------------------------------
# non-finite tolerances and states fail fast
# --------------------------------------------------------------------------


def inject_field(monkeypatch, field):
    """Make `integrate` march its orbits on field(ln w, v) in place of the
    model's: the orbit kernel is the generic DOP853 loop on field, and
    make_log_rhs, which starts the march and locates events, returns it."""
    monkeypatch.setattr(INTEGRATE, "make_log_rhs", lambda p: field)
    monkeypatch.setattr(
        INTEGRATE, "_dop853_step", lambda _, t, y, k1, h: generic_dop853_step(field, t, y, k1, h)
    )


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

        monkeypatch.setattr(mod, "make_log_rhs", forbidden)
        with pytest.raises(ValueError, match="finite"):
            integrate(COTH_P, w0, v0, s0=s0)

    def test_state_turning_nan_mid_run_underflows(self, monkeypatch):
        # A field that is NaN past v = 2: before any event, the run must end
        # in StepSizeUnderflow instead of accepting NaN steps until the step
        # budget runs out.
        inject_field(monkeypatch, lambda w, v: (math.nan, math.nan) if v > 2.0 else (0.0, 1.0))
        with pytest.raises(StepSizeUnderflow):
            integrate(COTH_P, 1.0, 0.0, controls=Controls(s_max=10.0, max_steps=20_000))

    def test_underflow_at_a_domain_wall_is_no_arrival(self, monkeypatch):
        # A field that leaves its domain short of the switch level of the
        # flux-boundary leg: steps that keep raising DomainError there have
        # not arrived anywhere, and neither have steps that turn NaN.
        p = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))
        lo, hi = p.slope_domain
        wall = hi - 2e-3 * (hi - lo)  # the switch level is 1e-3 * (hi - lo) short

        def field_raising(exc):
            def field(w, v):
                if v < wall:
                    return 0.0, 1.0
                if exc is None:
                    return math.nan, math.nan
                raise exc("past the wall")
            return field

        for exc in (DomainError, None):
            inject_field(monkeypatch, field_raising(exc))
            with pytest.raises(StepSizeUnderflow):
                integrate(p, 1.0, 0.0)


# --------------------------------------------------------------------------
# blow-up tails: past |v| = 10 * max(v_star, |v0|) an orbit is marched in ln|v|
# --------------------------------------------------------------------------

# the four bench bases (a, sigma, v0) with their w0_star
TAIL_BASES = [
    (1.0, 0.5, 2.0, 2.897565419045996),
    (0.5, 0.2, 1.8, 2.588111067298377),
    (0.5, 0.2, -2.0, 1.3051282641965867),
    (2.0, 1.5, 2.5, 4.382081492452661),
]


class TestBlowUpTail:
    @pytest.mark.parametrize("base", TAIL_BASES)
    @pytest.mark.parametrize("m", [0.3, 0.9, 1.1, 3.0])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_tail_only_appends(self, base, m, direction):
        # every sample strictly below the switch is the one a run that stops
        # there takes.  The run that stops there ends on an event located
        # on the switch level, within rounding of it either side; the full
        # run steps past the level without locating it
        a, sigma, v0, w0_star = base
        p, ctr = lp(a, sigma), Controls()
        v_sw = 10.0 * max(p.v_star, abs(v0))
        full = integrate(p, m * w0_star, v0, direction=direction, controls=ctr)
        cut = integrate(
            p, m * w0_star, v0, direction=direction, controls=dataclasses.replace(ctr, v_max=v_sw)
        )
        assert full.termination.kind == cut.termination.kind
        blow_up = full.termination.kind.startswith("VBlowUp")
        end = -1 if direction == FORWARD else 0
        below = [
            [x for x, v in zip(sample_list(full, name), sample_list(full, "v")) if abs(v) < v_sw]
            for name in SAMPLES
        ]
        cut_samples = [sample_list(cut, name) for name in SAMPLES]
        if blow_up:
            assert abs(cut.termination.v) == pytest.approx(v_sw, rel=1e-13)
            cut_samples = [x[:-1] if end else x[1:] for x in cut_samples]
        assert below == cut_samples
        if blow_up:
            assert len(full.s) > len(below[0])
            assert abs(full.termination.v) == ctr.v_max
        else:
            assert len(full.s) == len(below[0])

    @pytest.mark.parametrize(
        "limiter", [FluxLimiter(RELATIVISTIC, c=50.0), FluxLimiter(LARSON, c=50.0, p=2.5)]
    )
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_saturated_orbit_takes_no_tail(self, monkeypatch, limiter, direction):
        # the slope domain (-49.5, 50.5) reaches past |v| = 10 * max(v_star, |v0|)
        def no_tail(*args, **kwargs):
            raise AssertionError("a saturated-limiter orbit took a blow-up tail")

        monkeypatch.setattr(INTEGRATE, "_blow_up_tail", no_tail)
        p = ModelParams(a=1.0, sigma=0.5, limiter=limiter)
        traj = integrate(p, 5.0, 0.5, direction=direction)
        assert traj.termination.kind in (FLUX_BOUNDARY_LOW, FLUX_BOUNDARY_HIGH)
        assert max(abs(v) for v in sample_list(traj, "v")) > 10.0 * max(p.v_star, 0.5)

    # Terminations that fire past the switch level: (params, w0, v0, controls,
    # extra events, direction) -> the kind and s of the run that marches the
    # whole orbit in s, pinned before the tail existed.  The w_min cases
    # fall under w_min = 1e-12 inside the tail, which does not end it: their
    # ends are those of the same runs with Controls(w_min=0).
    PROBE = EventSpec(fn=lambda s, w, v: v + 100.0, kind="Probe", direction=-1)
    IN_TAIL = {
        "event": ((lp(1.0, 0.5), 3.0 * 2.897565419045996, 2.0, Controls(), [PROBE], FORWARD),
                  "Probe", 0.8696623826596132),
        "w_min-forward": ((lp(4.0, 0.5), 1.0, 2.0, Controls(), [], FORWARD),
                          V_BLOW_UP_MINUS, 1.99271452813148),
        "w_min-backward": ((lp(4.0, 0.5), 1.0, 2.0, Controls(), [], BACKWARD),
                           V_BLOW_UP_PLUS, -0.521943198719865),
        "s_max": ((lp(1.0, 0.5), 3.0 * 2.897565419045996, 2.0, Controls(s_max=0.8796), [],
                   FORWARD), MAX_SPAN, 0.8796),
        # the march in s lands on s_max with the step that crosses the switch
        # (at s = 0.8286 to 0.8347 without the span): the tail must start
        # short of s_max, or its span event could not fire
        "s_max-on-crossing-step": ((lp(1.0, 0.5), 3.0 * 2.897565419045996, 2.0,
                                    Controls(s_max=0.8346091476490679), [], FORWARD),
                                   MAX_SPAN, 0.8346091476490679),
    }

    def test_w_min_does_not_cut_a_super_critical_tail_short(self):
        # a = 2.8: w falls like |v|^-(a - 1) toward the blow-up edge (mu = 1), under
        # w_min = 1e-12 at v = -7.6e5, short of v_max = 1e6; the launch is
        # above w0_star = 2.428342280940199
        p = lp(2.8158724325231, 1.27111070276617)
        w0, v0 = 2.6757642240620965, 2.4355170329948788
        full, ref = (
            integrate(p, w0, v0, controls=ctr) for ctr in (Controls(), Controls(w_min=0.0))
        )
        assert full.termination.kind == ref.termination.kind == V_BLOW_UP_MINUS
        assert full.s_plus == pytest.approx(ref.s_plus, abs=1e-9)
        assert ref.s_plus == pytest.approx(2.5847650, abs=1e-7)

    @pytest.mark.parametrize("name", ["event", "s_max-on-crossing-step"])
    def test_tail_events_are_located_on_the_quintic(self, monkeypatch, name):
        # an extra event and the span, both past the switch level, are
        # located on the tail step's quintic and corrected on its exact
        # partial step, to 1e-12 of an rtol-1e-13 run.  The run takes rtol
        # 1e-12: at the default rtol, the v of a span end near blow-up
        # carries the edge's integration error (2.5e-11)
        (p, w0, v0, ctr, events, direction), kind, _ = self.IN_TAIL[name]

        def end(rtol):
            return integrate(p, w0, v0, direction=direction, extra_events=events,
                             controls=dataclasses.replace(ctr, rtol=rtol)).termination

        ref = end(1e-13)
        located = located_events(monkeypatch)
        term = end(1e-12)
        step, ev, at = located[-1]
        assert (step, ev.kind, at) == (INTEGRATE._tail_step, kind, (term.s, term.w, term.v))
        assert term.s == pytest.approx(ref.s, rel=1e-12)
        assert term.v == pytest.approx(ref.v, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(IN_TAIL))
    def test_terminations_inside_the_tail(self, name):
        (p, w0, v0, ctr, events, direction), kind, s_end = self.IN_TAIL[name]
        traj = integrate(p, w0, v0, direction=direction, controls=ctr, extra_events=events)
        term = traj.termination
        assert abs(term.v) > 10.0 * max(p.v_star, abs(v0))  # past the switch
        assert term.kind == kind
        assert term.s == pytest.approx(s_end, rel=1e-9)
        # the end event is the run's last sample
        end = 0 if direction == BACKWARD else -1
        assert (traj.s[end], traj.w[end], traj.v[end]) == (term.s, term.w, term.v)
