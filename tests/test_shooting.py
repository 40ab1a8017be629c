"""Tests for the shooting classifier, threshold search, and critical orbit."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from datetime import timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kswave.errors import (
    DegenerateError,
    Inconclusive,
    NoDichotomy,
    PreconditionError,
    RegimeViolation,
    SeedEscaped,
)
from kswave.flux import LINEAR, RELATIVISTIC, FluxLimiter
from kswave.integrate import (
    BACKWARD,
    CONVERGED,
    FORWARD,
    V_BLOW_UP_MINUS,
    V_BLOW_UP_PLUS,
    Controls,
    EventSpec,
    integrate,
    sample_list,
)
from kswave.phase import SADDLE, ModelParams, equilibria, equilibrium_points, regime_case
from kswave import shooting
from kswave.shooting import (
    CONVERGES_TO,
    ENTERS_PARABOLA,
    ESCAPES_ABOVE,
    ESCAPES_BELOW,
    REGIME_BACKWARD,
    REGIME_FORWARD,
    ShotOutcome,
    classify_trajectory,
    find_w0_star,
    is_subcritical,
    supplied_threshold,
    threshold_trajectory,
    trace_stable_manifold,
)


def lp(a: float, sigma: float, **kw) -> ModelParams:
    return ModelParams(a=a, sigma=sigma, **kw)


# Fixed parameter sets, one per linear regime case.
P_A = lp(0.5, 0.3)  # interior saddle at positive density
P_B = lp(0.5, 0.75)
P_C = lp(1.0, 0.5)
P_D = lp(2.0, 0.5)
P_E = lp(2.0, 1.5)


@pytest.fixture(scope="module")
def thr_c():
    return find_w0_star(P_C, 2.0)


@pytest.fixture(scope="module")
def thr_a_fwd():
    return find_w0_star(P_A, 2.0)


@pytest.fixture(scope="module")
def thr_a_back():
    return find_w0_star(P_A, -2.0)


class TestClassify:
    def test_sub_critical_enters_parabola(self):
        out = classify_trajectory(P_C, 0.01, 2.0)
        assert out.cls == ENTERS_PARABOLA
        assert out.w0 == 0.01 and out.v0 == 2.0
        # Deciding event sits where the orbit dips just under the parabola.
        term = out.trajectory.termination
        p_val = P_C.lam - P_C.gamma * term.v**2
        assert term.w < p_val
        assert term.w == pytest.approx(p_val, abs=1e-4)

    def test_super_critical_escapes_below(self):
        out = classify_trajectory(P_C, 10.0, 2.0)
        assert out.cls == ESCAPES_BELOW
        assert out.trajectory.termination.v == pytest.approx(
            -P_C.v_star - 1e-4 * (1 + P_C.v_star), abs=1e-9
        )

    def test_no_stop_at_parabola_converges(self):
        out = classify_trajectory(P_C, 0.01, 2.0, stop_at_parabola=False)
        assert out.cls == CONVERGES_TO
        assert out.equilibrium_index is not None
        term = out.trajectory.termination
        assert math.hypot(term.w, term.v - P_C.v_star) < 1e-6

    def test_backward_regime_classes(self):
        out_lo = classify_trajectory(P_A, 0.05, -2.0)
        assert out_lo.cls in (ENTERS_PARABOLA, CONVERGES_TO)
        out_hi = classify_trajectory(P_A, 20.0, -2.0)
        assert out_hi.cls == ESCAPES_ABOVE
        assert out_hi.trajectory.direction == BACKWARD

    def test_regime_violations(self):
        with pytest.raises(RegimeViolation):
            classify_trajectory(P_C, 1.0, 0.5)  # |v0| <= v_star
        with pytest.raises(RegimeViolation):
            classify_trajectory(P_B, 1.0, -2.0)  # backward needs case A
        with pytest.raises(ValueError):
            classify_trajectory(P_C, -1.0, 2.0)  # w0 must be positive

    def test_degenerate_sigma(self):
        p = lp(0.5, 0.5)  # sigma == sigma_star for a = 0.5
        with pytest.raises(DegenerateError):
            classify_trajectory(p, 1.0, 2.0)

    @pytest.mark.parametrize("p, w0, v0, controls, outcome", [
        # a is so near 1 that the orbit neither escapes nor dips under the
        # parabola within the span
        (lp(1.0023, 0.0016), 0.1, 2.0, None, Inconclusive),
        # the orbit runs into the flux boundary first
        (lp(1.0, 0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.2)), 5.0, 1.5, None,
         RegimeViolation),
        # v_max under the escape level: the blow-up stop fires first
        (P_C, 5.0, 2.0, Controls(v_max=0.5), ESCAPES_BELOW),
    ], ids=["span-limit", "flux-boundary", "blow-up-fallback"])
    def test_undecided_and_fallback_ends(self, p, w0, v0, controls, outcome):
        if not isinstance(outcome, str):
            with pytest.raises(outcome):
                classify_trajectory(p, w0, v0, controls=controls)
            return
        out = classify_trajectory(p, w0, v0, controls=controls)
        assert out.cls == outcome
        assert out.trajectory.termination.kind == V_BLOW_UP_MINUS


class TestManifold:
    def test_stable_manifold_reaches_v0(self):
        man = trace_stable_manifold(P_C, equilibria(P_C)[0], v_stop=2.0)
        assert man.direction == BACKWARD
        assert np.all(np.diff(man.s) > 0)
        term = man.termination
        assert term.v == pytest.approx(2.0, abs=1e-9)
        assert term.w > 0
        # The seed end sits 1e-4 * (1 + |saddle|) off the saddle, to second order.
        seed_offset = math.hypot(man.w[-1], man.v[-1] + P_C.v_star)
        assert seed_offset == pytest.approx(1e-4 * (1.0 + P_C.v_star), rel=1e-3)

    def test_unstable_manifold_forward(self):
        saddle = [e for e in equilibria(P_A) if e.w > 0][0]
        man = trace_stable_manifold(P_A, saddle, v_stop=-2.0, manifold="unstable")
        assert man.direction == FORWARD
        assert man.termination.v == pytest.approx(-2.0, abs=1e-9)
        seed_offset = math.hypot(man.w[0] - saddle.w, man.v[0] - saddle.v)
        assert seed_offset == pytest.approx(1e-4 * (1.0 + math.hypot(saddle.w, saddle.v)), rel=1e-3)

    def test_branch_heading_for_v_stop_is_traced_first(self, monkeypatch):
        # Of the two unstable branches of the case-A interior saddle, only
        # the one whose seed moves v toward v_stop reaches it (the other is
        # captured by an equilibrium), and it is integrated first, alone.
        p = lp(0.5, 0.2)
        saddle = [e for e in equilibria(p) if e.w > 0][0]
        ends = []
        original = shooting.integrate

        def counted(*args, **kwargs):
            traj = original(*args, **kwargs)
            ends.append(traj.termination.kind)
            return traj

        monkeypatch.setattr(shooting, "integrate", counted)
        man = trace_stable_manifold(p, saddle, v_stop=-2.0, manifold="unstable")
        assert man.termination.v == pytest.approx(-2.0, abs=1e-9)
        assert len(ends) == 1

    def test_seed_scale_refinement(self, thr_c):
        """Halving-by-ten the seed offset moves the crossing by O(seed**2)."""
        saddle = equilibria(P_C)[0]
        w_coarse = trace_stable_manifold(
            P_C, saddle, v_stop=2.0, seed_scale=1e-6
        ).termination.w
        w_fine = trace_stable_manifold(
            P_C, saddle, v_stop=2.0, seed_scale=1e-7
        ).termination.w
        assert abs(w_coarse - w_fine) < 1e-8 * thr_c.w0_star
        assert abs(w_fine - thr_c.w0_star) < 1e-6 * thr_c.w0_star

    def test_seed_escaped_when_unreachable(self):
        # The stable manifold of (0, -v_star) climbs toward large v; it
        # never reaches v = -5 on either branch.
        with pytest.raises(SeedEscaped, match=r"sign [+-]1: .*; sign [+-]1: "):
            trace_stable_manifold(P_C, equilibria(P_C)[0], v_stop=-5.0)

    def test_v_stop_inside_the_seed_offset_is_traced(self):
        # A stop level between the saddle and the default seed is behind
        # that seed, so the trace starts from a nearer one; it crosses the
        # stop where the trace from a seed 1e-7 off does at rtol 1e-13 (at
        # the default rtol that trace misses by 1e-7 relative this close to
        # the saddle).
        saddle = equilibria(P_C)[0]
        v_stop = saddle.v + 1e-5
        man = trace_stable_manifold(P_C, saddle, v_stop=v_stop)
        near = trace_stable_manifold(P_C, saddle, v_stop=v_stop, controls=TIGHT, seed_scale=1e-7)
        assert man.termination.v == pytest.approx(v_stop, abs=1e-12)
        assert man.termination.w == pytest.approx(near.termination.w, rel=1e-8)

    def test_v_stop_at_the_saddle_is_a_precondition(self, monkeypatch):
        # no seed lies beyond the saddle's own v: refused before any integration
        saddle = equilibria(P_C)[0]
        monkeypatch.setattr(shooting, "integrate", None)
        with pytest.raises(PreconditionError, match="saddle's v"):
            trace_stable_manifold(P_C, saddle, v_stop=saddle.v)

    @pytest.mark.parametrize("v_stop", [math.nan, math.inf, -math.inf])
    def test_v_stop_that_is_not_finite_is_a_precondition(self, monkeypatch, v_stop):
        monkeypatch.setattr(shooting, "integrate", None)
        with pytest.raises(PreconditionError, match="v_stop must be finite"):
            trace_stable_manifold(P_C, equilibria(P_C)[0], v_stop=v_stop)

    def test_launch_inside_the_seed_offset_traces_from_the_near_seed(self):
        # Just below sigma_star the case-A interior saddle sits 1e-5 above
        # v = -v_star, and a backward launch 1e-5 below it lies inside the
        # default seed's offset: the estimate is traced from a nearer seed,
        # and agrees with the trace from a seed 1e-7 off.
        p = lp(0.5, 0.5 * (1.0 - 1e-5))
        v0 = -(1.0 + 1e-5)
        saddle = shooting._threshold_saddle(p, REGIME_BACKWARD)
        near = trace_stable_manifold(p, saddle, v0, "unstable", seed_scale=1e-7)
        r = find_w0_star(p, v0)
        assert r.method == "Both"
        assert r.manifold_estimate == pytest.approx(near.termination.w, rel=1e-12)

    def test_rejects_non_saddle(self):
        node = [e for e in equilibria(P_C) if e.v > 0][0]
        with pytest.raises(ValueError):
            trace_stable_manifold(P_C, node, v_stop=2.0)
        with pytest.raises(ValueError):
            trace_stable_manifold(P_C, equilibria(P_C)[0], v_stop=2.0, manifold="bogus")


class TestFindThreshold:
    def test_case_c_cross_validated(self, thr_c):
        r = thr_c
        assert r.method == "Both"
        assert r.regime == REGIME_FORWARD
        assert r.saddle == (0.0, -P_C.v_star)
        assert r.classifier_tol <= 2e-10
        assert r.bracket[0] <= r.w0_star <= r.bracket[1]
        assert r.manifold_estimate is not None
        assert abs(r.w0_star - r.manifold_estimate) <= 1e-6 * r.w0_star

    def test_forward_case_a_uses_interior_saddle(self, thr_a_fwd):
        r = thr_a_fwd
        assert r.method == "Both"
        assert r.saddle[0] > 0  # interior saddle, not the axis
        assert abs(r.w0_star - r.manifold_estimate) <= 1e-6 * r.w0_star

    def test_backward_case_a(self, thr_a_back):
        r = thr_a_back
        assert r.regime == REGIME_BACKWARD
        assert r.method == "Both"
        assert r.saddle[0] > 0
        assert abs(r.w0_star - r.manifold_estimate) <= 1e-6 * r.w0_star

    @pytest.mark.parametrize("p", [P_B, P_D, P_E], ids=["B", "D", "E"])
    def test_other_cases_cross_validated(self, p):
        r = find_w0_star(p, 2.0 * p.v_star)
        assert r.method == "Both"
        assert r.saddle == (0.0, -p.v_star)
        assert abs(r.w0_star - r.manifold_estimate) <= 1e-6 * r.w0_star

    def test_sides_classify_correctly(self, thr_c):
        rng = np.random.default_rng(7)
        w0s = thr_c.w0_star * np.exp(rng.uniform(-np.log(50), np.log(50), size=20))
        for w0 in w0s:
            if abs(w0 - thr_c.w0_star) < 1e-8 * thr_c.w0_star:
                continue
            out = classify_trajectory(P_C, float(w0), 2.0)
            if w0 < thr_c.w0_star:
                assert out.cls in (ENTERS_PARABOLA, CONVERGES_TO), w0
            else:
                assert out.cls == ESCAPES_BELOW, w0

    def test_near_threshold_sides(self, thr_c):
        w = thr_c.w0_star
        assert classify_trajectory(P_C, w * (1 - 1e-6), 2.0).cls == ENTERS_PARABOLA
        assert classify_trajectory(P_C, w * (1 + 1e-6), 2.0).cls == ESCAPES_BELOW

    def test_method_variants(self, thr_c):
        rb = find_w0_star(P_C, 2.0, method="bisection")
        assert rb.method == "Bisection" and rb.manifold_estimate is None
        assert abs(rb.w0_star - thr_c.w0_star) <= 1e-9 * thr_c.w0_star
        rm = find_w0_star(P_C, 2.0, method="manifold")
        assert rm.method == "Manifold" and rm.classifier_tol == 0.0
        assert abs(rm.w0_star - thr_c.w0_star) <= 1e-6 * thr_c.w0_star
        with pytest.raises(ValueError):
            find_w0_star(P_C, 2.0, method="newton")

    def test_bracket_hint(self, thr_c):
        w = thr_c.w0_star
        r = find_w0_star(P_C, 2.0, bracket_hint=(0.9 * w, 1.1 * w), method="bisection")
        assert abs(r.w0_star - w) <= 1e-9 * w
        with pytest.raises(ValueError):
            find_w0_star(P_C, 2.0, bracket_hint=(2.0, 1.0))

    def test_bisection_walk_starts_at_default_hint(self, monkeypatch, thr_c):
        calls = TestSeededBisection.counting_classifier(monkeypatch)
        r = find_w0_star(P_C, 2.0, method="bisection")
        assert calls[:2] == [0.5 * P_C.lam, 2.0 * P_C.lam]
        assert abs(r.w0_star - thr_c.w0_star) <= 1e-9 * thr_c.w0_star

    def test_no_dichotomy(self, monkeypatch):
        for method, cls in itertools.product(("bisection", "both"),
                                             (ENTERS_PARABOLA, ESCAPES_BELOW)):
            calls = []

            def fake(*a, **k):
                calls.append(a[1])
                return SimpleNamespace(cls=cls)

            monkeypatch.setattr(shooting, "classify_trajectory", fake)
            with pytest.raises(NoDichotomy):
                find_w0_star(P_C, 2.0, method=method)
            assert len(calls) <= 33
            assert all(w > 0.0 for w in calls)

    def test_degenerate_and_regime_errors(self):
        with pytest.raises(DegenerateError):
            find_w0_star(lp(0.5, 0.5), 2.0)
        with pytest.raises(RegimeViolation):
            find_w0_star(P_B, -2.0)  # backward shooting outside case A
        with pytest.raises(RegimeViolation):
            find_w0_star(P_C, 0.3)  # v0 inside the slow strip


class TestThresholdTrajectory:
    def test_forward_merge_shape(self, thr_c):
        traj = threshold_trajectory(P_C, 2.0, result=thr_c)
        assert traj.termination_start.kind == V_BLOW_UP_PLUS
        assert traj.termination.kind == CONVERGED
        assert np.all(np.diff(traj.s) > 0)
        assert np.isfinite(traj.s_minus) and traj.s_plus == math.inf
        assert np.all(traj.w > 0)
        # v decreases monotonically along the critical orbit (tiny dwell
        # wobble near the saddle allowed).
        assert np.all(np.diff(traj.v) < 1e-8)
        # The launch state appears as a seam sample.
        i0 = int(np.argmin(np.abs(traj.s)))
        assert traj.v[i0] == pytest.approx(2.0, abs=1e-12)
        assert traj.w[i0] == pytest.approx(thr_c.w0_star, rel=1e-12)
        # Tail settles onto the saddle.
        assert math.hypot(traj.w[-1], traj.v[-1] + P_C.v_star) < 1e-5

    def test_forward_case_a_tail_at_interior_saddle(self, thr_a_fwd):
        traj = threshold_trajectory(P_A, 2.0, result=thr_a_fwd)
        assert traj.termination.kind == CONVERGED
        sw, sv = thr_a_fwd.saddle
        assert math.hypot(traj.w[-1] - sw, traj.v[-1] - sv) < 1e-5

    def test_backward_merge_shape(self, thr_a_back):
        traj = threshold_trajectory(P_A, -2.0, result=thr_a_back)
        assert traj.termination_start.kind == CONVERGED
        assert traj.termination.kind == V_BLOW_UP_MINUS
        assert traj.s_minus == -math.inf and np.isfinite(traj.s_plus)
        assert np.all(np.diff(traj.s) > 0)
        # The launch state sits at s = 0, as in the forward regime.
        i0 = int(np.argmin(np.abs(traj.s)))
        assert traj.s[i0] == 0.0
        assert traj.v[i0] == pytest.approx(-2.0, abs=1e-12)
        assert traj.w[i0] == pytest.approx(thr_a_back.w0_star, rel=1e-9)
        sw, sv = thr_a_back.saddle
        assert math.hypot(traj.w[0] - sw, traj.v[0] - sv) < 1e-5

    @pytest.mark.parametrize("s0", [-0.2, 0.3, 1.0])
    def test_launch_at_s0(self, thr_c, thr_a_back, s0):
        for p, v0, thr in ((P_C, 2.0, thr_c), (P_A, -2.0, thr_a_back)):
            ref = threshold_trajectory(p, v0, result=thr)
            traj = threshold_trajectory(p, v0, result=thr, s0=s0)
            i0 = int(np.argmin(np.abs(traj.s - s0)))
            assert traj.s[i0] == pytest.approx(s0, abs=1e-12)
            assert traj.v[i0] == pytest.approx(v0, abs=1e-12)
            assert traj.w[i0] == pytest.approx(thr.w0_star, rel=1e-9)
            # the blow-up edge moves with the launch
            for edge, ref_edge in ((traj.s_minus, ref.s_minus), (traj.s_plus, ref.s_plus)):
                assert edge == pytest.approx(ref_edge + s0, abs=1e-9)

    def test_non_finite_s0_is_refused_before_the_threshold_solve(self, monkeypatch):
        monkeypatch.setattr(shooting, "find_w0_star", None)  # any call would fail
        with pytest.raises(PreconditionError, match="s0"):
            threshold_trajectory(P_C, 2.0, s0=math.nan)

    def test_computes_result_when_omitted(self):
        traj = threshold_trajectory(P_C, 2.0)
        assert traj.termination.kind == CONVERGED

    def test_zero_capture_ball(self, thr_c):
        # with no capture ball the piece into the saddle samples down to the
        # float floor
        traj = threshold_trajectory(P_C, 2.0, result=thr_c, controls=Controls(eq_tol=0.0))
        end = traj.termination
        assert end.kind == CONVERGED
        assert end.w <= 5e-324 and end.v == -P_C.v_star
        assert np.all(np.diff(traj.s) > 0)

    def test_small_contracting_eigenvalue(self):
        # The saddle's contracting eigenvalue is -0.0076: from a seed 1e-7
        # off the saddle the manifold trace would run out of span before v0.
        p = lp(0.4641970312564978, 0.4578890094305824,
               limiter=FluxLimiter(RELATIVISTIC, c=2.49338270690497))
        v0 = 2.956811292294422
        r = find_w0_star(p, v0)
        traj = threshold_trajectory(p, v0, result=r)
        end = traj.termination
        assert end.kind == CONVERGED and traj.s_plus == math.inf
        assert equilibrium_points(p)[end.equilibrium_index] == r.saddle
        sw, sv = r.saddle
        assert math.hypot(end.w - sw, end.v - sv) <= 1e-9 * (1.0 + math.hypot(sw, sv))
        assert np.all(np.diff(traj.s) > 0)
        i0 = int(np.argmin(np.abs(traj.s)))
        assert traj.s[i0] == 0.0
        assert traj.v[i0] == pytest.approx(v0, abs=1e-12)
        assert traj.w[i0] == pytest.approx(r.w0_star, rel=1e-12)


class TestSeededBisection:
    """Under method "both" the bisection starts from the manifold estimate."""

    # half-width of the tight seed m*(1 -/+ DELTA), relative
    DELTA = 0.49 * 1e-10

    @staticmethod
    def counting_classifier(monkeypatch):
        calls = []
        original = shooting.classify_trajectory

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(shooting, "classify_trajectory", counted)
        return calls

    @pytest.mark.parametrize("p, v0", [(P_C, 2.0), (P_A, 2.0), (P_A, -2.0)],
                             ids=["C", "A-forward", "A-backward"])
    def test_few_classifications_and_same_threshold(self, monkeypatch, p, v0):
        reference = find_w0_star(p, v0, method="bisection")
        calls = self.counting_classifier(monkeypatch)
        r = find_w0_star(p, v0)
        # the tight seed straddles the threshold here, so no halving runs
        assert len(calls) == 2
        assert r.method == "Both"
        assert r.classifier_tol <= 2e-10
        assert r.bracket[0] <= r.w0_star <= r.bracket[1]
        assert abs(r.w0_star - reference.w0_star) <= 1e-9 * reference.w0_star
        # the classifier decided both ends of the seed bracket
        m = r.manifold_estimate
        assert calls == [m * (1.0 - self.DELTA), m * (1.0 + self.DELTA)]
        assert r.bracket == tuple(calls)

    def test_estimate_off_falls_back_to_expansion(self, monkeypatch, thr_c):
        original = shooting.trace_stable_manifold

        def off_by_one_percent(*args, **kwargs):
            traj = original(*args, **kwargs)
            term = traj.termination
            return replace(traj, termination=replace(term, w=1.01 * term.w))

        monkeypatch.setattr(shooting, "trace_stable_manifold", off_by_one_percent)
        calls = self.counting_classifier(monkeypatch)
        r = find_w0_star(P_C, 2.0)
        assert r.method == "Bisection"
        assert r.manifold_estimate == pytest.approx(1.01 * thr_c.manifold_estimate, rel=1e-15)
        assert abs(r.w0_star - thr_c.w0_star) <= 1e-9 * thr_c.w0_star
        assert r.classifier_tol <= 2e-10
        # the tight seed ends were tried and both are super-critical, so the
        # lower end walks down through m*(1 - 3 * delta) and then
        # m*(1 - 4**k * delta), k >= 2, until it turns sub-critical;
        # halvings follow
        m = r.manifold_estimate
        walk, delta = [], self.DELTA
        while delta < 0.01:
            delta *= 4.0
            walk.append(m * (1.0 - (delta if walk else 0.75 * delta)))
        assert calls[:2 + len(walk)] == [m * (1.0 - self.DELTA), m * (1.0 + self.DELTA), *walk]
        assert r.bracket[0] >= walk[-1]
        assert len(calls) <= 43

    def test_tight_seed_in_wrong_order(self, monkeypatch, thr_c):
        # a classifier that calls the lower tight end super-critical and the
        # upper one sub-critical: the walk moves on and still brackets m
        original = shooting.classify_trajectory
        answers = iter([ESCAPES_BELOW, ENTERS_PARABOLA])
        calls = []

        def flipped(*args, **kwargs):
            calls.append(args[1])
            out = original(*args, **kwargs)
            return replace(out, cls=next(answers, out.cls))

        monkeypatch.setattr(shooting, "classify_trajectory", flipped)
        r = find_w0_star(P_C, 2.0)
        assert r.method == "Both"
        assert abs(r.w0_star - thr_c.w0_star) <= 1e-9 * thr_c.w0_star
        assert len(calls) <= 6

    @pytest.mark.parametrize("shift", [-2e-9, 2e-9], ids=["estimate-low", "estimate-high"])
    def test_estimate_slightly_off_gallops(self, monkeypatch, thr_c, shift):
        original_trace = shooting.trace_stable_manifold

        def shifted(*args, **kwargs):
            traj = original_trace(*args, **kwargs)
            term = traj.termination
            return replace(traj, termination=replace(term, w=(1.0 + shift) * term.w))

        monkeypatch.setattr(shooting, "trace_stable_manifold", shifted)
        original = shooting.classify_trajectory
        shots = []

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            shots.append((args[1], is_subcritical(out.cls)))
            return out

        monkeypatch.setattr(shooting, "classify_trajectory", recorded)
        r = find_w0_star(P_C, 2.0)
        assert r.method == "Both"
        assert abs(r.w0_star - thr_c.w0_star) <= 1e-9 * thr_c.w0_star
        assert r.classifier_tol <= 2e-10
        assert len(shots) <= 20
        # both tight ends fall on the side of the estimate ...
        m, sub = r.manifold_estimate, shift < 0.0
        assert shots[:2] == [(m * (1.0 - self.DELTA), sub), (m * (1.0 + self.DELTA), sub)]
        # ... so the far end walks away from it, to 3 * DELTA first and then
        # to 4**k * DELTA, until the class changes ...
        sign, delta, k = (1.0 if sub else -1.0), self.DELTA, 2
        while shots[k][1] == sub:
            delta *= 4.0
            assert shots[k][0] == m * (1.0 + sign * (delta if k > 2 else 0.75 * delta))
            k += 1
        assert shots[k][0] == m * (1.0 + sign * 4.0 * delta)
        # ... and bisection starts between the last two walk points
        assert k >= 3
        assert shots[k + 1][0] == 0.5 * (shots[k - 1][0] + shots[k][0])


def test_missing_saddle_is_a_precondition(monkeypatch):
    # A relativistic limiter can remove the interior saddle of case A; that
    # is known from the equilibria, before any orbit is integrated.
    p = ModelParams(a=0.3, sigma=0.2, limiter=FluxLimiter(RELATIVISTIC, c=0.3))

    def forbidden(*args, **kwargs):
        raise AssertionError("integration started before the saddle check")

    monkeypatch.setattr(shooting, "integrate", forbidden)
    with pytest.raises(PreconditionError, match="no interior saddle"):
        find_w0_star(p, 1.3)
    with pytest.raises(PreconditionError, match="no interior saddle"):
        supplied_threshold(p, 1.3, 1.0)


@pytest.mark.parametrize("p, v0", [(P_C, 2.0), (lp(0.5, 0.2), 1.8), (lp(0.5, 0.2), -2.0),
                                   (P_E, 2.5)],
                         ids=["C", "A-forward", "A-backward", "E"])
def test_threshold_converges_as_tolerance_tightens(p, v0):
    # The base points of the profile benchmark: tightening rtol from 1e-8
    # through 1e-10 to 1e-12 must bring w0_star closer to its tightest value.
    r = {rtol: find_w0_star(p, v0, controls=Controls(rtol=rtol)) for rtol in (1e-8, 1e-10, 1e-12)}
    assert [x.method for x in r.values()] == ["Both"] * 3
    w = {rtol: x.w0_star for rtol, x in r.items()}
    assert abs(w[1e-10] - w[1e-12]) < abs(w[1e-8] - w[1e-12])


# One fixed point per shooting situation: case A forward and backward, cases
# C, D and E, and a case-D relativistic limiter (slope domain (-1.87, 2.13)).
PAIR_POINTS = {
    "A-forward": (lp(0.5, 0.2), 1.8),
    "A-backward": (lp(0.5, 0.2), -2.0),
    "C": (P_C, 2.0),
    "D": (P_D, 2.0),
    "E": (P_E, 2.5),
    "relativistic": (lp(1.5, 0.2, limiter=FluxLimiter(RELATIVISTIC, c=3.0)), 1.8),
}


@pytest.fixture(scope="module", params=sorted(PAIR_POINTS))
def pair_point(request):
    p, v0 = PAIR_POINTS[request.param]
    return p, v0, find_w0_star(p, v0)


def test_threshold_converged_at_default_controls(pair_point):
    # at the default tolerances w0_star already agrees with its value at
    # rtol 1e-13 to the bisection width
    p, v0, r = pair_point
    tight = find_w0_star(p, v0, controls=Controls(rtol=1e-13, atol=1e-15))
    assert r.method == tight.method == "Both"
    assert abs(r.w0_star - tight.w0_star) <= 1e-10 * tight.w0_star


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-8 * max(1.0, abs(b))


TIGHT = Controls(rtol=1e-13)


@pytest.mark.parametrize("m", [0.5, 0.9, 1.1, 2.0])
def test_decision_orbit_pairs_agree(pair_point, m):
    # the classifier's orbit at the default tolerance and the same orbit at
    # rtol 1e-13 end on the same event at the same point
    p, v0, r = pair_point
    w0 = m * r.w0_star
    default = classify_trajectory(p, w0, v0)
    tight = classify_trajectory(p, w0, v0, controls=TIGHT)
    a, b = default.trajectory.termination, tight.trajectory.termination
    assert default.cls == tight.cls
    assert a.kind == b.kind
    assert close(a.s, b.s) and close(a.w, b.w) and close(a.v, b.v), (a, b)


def test_manifold_trace_pairs_agree(pair_point):
    # the trace's end state is what find_w0_star reads; it agrees with the
    # same trace at rtol 1e-13.  The span s it takes to leave the saddle
    # from its seed, 1e-4 * (1 + |saddle|) away, is set by errors relative
    # to the state, not to that distance, and is not compared
    p, v0, r = pair_point
    kind = "stable" if r.regime == REGIME_FORWARD else "unstable"
    a, b = (
        trace_stable_manifold(p, r.saddle, v_stop=v0, manifold=kind, controls=ctr).termination
        for ctr in (None, TIGHT)
    )
    assert a.kind == b.kind
    assert close(a.w, b.w) and close(a.v, b.v), (a, b)
    assert a.w == r.manifold_estimate


def test_manifold_stop_lands_on_v_stop(pair_point):
    # the trace's stop is located on a step's continuous extension and
    # corrected by one Newton step on the exact partial step
    p, v0, r = pair_point
    kind = "stable" if r.regime == REGIME_FORWARD else "unstable"
    traj = trace_stable_manifold(p, r.saddle, v_stop=v0, manifold=kind)
    assert abs(traj.termination.v - v0) <= 4e-15 * abs(v0)


# Backward case-A points (a, sigma, v0) where classifier orbits are captured
# in the threshold saddle's dwell ball within 1e-9 of the threshold.
CAPTURE_POINTS = [
    (0.6422097342797956, 0.2504531860041431, -2.5577583813319045),
    (0.6601402802795403, 0.23790180380432177, -1.6533407371650723),
    (0.4655489304902045, 0.3741157486568568, -2.2636011796004563),
    (0.7788374973713592, 0.15481375184004853, -1.5384595226003235),
]


@pytest.fixture(scope="module", params=CAPTURE_POINTS, ids=lambda x: f"a={x[0]:.3f}")
def capture_point(request):
    a, sigma, v0 = request.param
    p = lp(a, sigma)
    # the separatrix's crossing of v = v0 at rtol 1e-13; the capture bias
    # does not shrink with rtol, so a tight find_w0_star would share it
    m = find_w0_star(p, v0, method="manifold", controls=Controls(rtol=1e-13)).w0_star
    return p, v0, m


def test_w0_star_within_bracket_of_the_separatrix(capture_point):
    p, v0, m = capture_point
    r = find_w0_star(p, v0)
    assert abs(r.w0_star - m) <= 1e-10 * m


def test_captures_are_classified_by_their_side():
    # Orbits captured in the threshold saddle's ball are classified by the
    # side of its separatrix they sit on: at the last capture point both
    # launches 5e-10 off the separatrix are captured.  A capture at any
    # other equilibrium stays ConvergesTo.
    a, sigma, v0 = CAPTURE_POINTS[-1]
    p = lp(a, sigma)
    m = find_w0_star(p, v0, method="manifold", controls=Controls(rtol=1e-13)).w0_star
    saddle = shooting._threshold_saddle(p, REGIME_BACKWARD)
    for rel, cls in ((5e-10, ESCAPES_ABOVE), (-5e-10, CONVERGES_TO)):
        out = classify_trajectory(p, m * (1.0 + rel), v0)
        assert out.trajectory.termination.kind == CONVERGED
        eq = equilibria(p)[out.equilibrium_index]
        assert (eq.w, eq.v) == (saddle.w, saddle.v)
        assert out.cls == cls
    # kept past the parabola, a sub-critical orbit settles on the node (0, v_star)
    out = classify_trajectory(P_C, 0.01, 2.0, stop_at_parabola=False)
    eq = equilibria(P_C)[out.equilibrium_index]
    assert (eq.w, eq.v) == (0.0, P_C.v_star)
    assert out.cls == CONVERGES_TO


# (a range, sigma / sigma_star range) of each case, drawn as the threshold
# benchmark draws them: a in (0.8, 1.25) is left out, where the classifier's
# span runs out before a deciding event.  Case C is a = 1, where sigma_star
# vanishes and sigma is drawn against v_star instead.
CASE_DRAWS = {
    "A": ((0.3, 0.8), (0.3, 0.9)),
    "B": ((0.3, 0.8), (1.1, 2.0)),
    "C": ((1.0, 1.0), (0.3, 2.0)),
    "D": ((1.25, 3.0), (0.3, 0.9)),
    "E": ((1.25, 3.0), (1.1, 2.0)),
}


CASE_REGIMES = [("A", False), ("A", True), ("B", False), ("C", False), ("D", False),
                ("E", False)]
CASE_REGIME_IDS = ["A-forward", "A-backward", "B", "C", "D", "E"]


class Draws:
    """The draws of one `draw_launch` call, to replay in order: an explicit
    example for a test that draws its launch from st.data().  Under any other
    case and direction than its own, the example rejects itself."""

    def __init__(self, case: str, backward: bool, *values):
        self.regime, self.values = (case, backward), values

    def __repr__(self) -> str:
        return f"Draws{(*self.regime, *self.values)!r}"


def draw_launch(data, case: str, backward: bool, relativistic: bool) -> tuple[ModelParams, float]:
    """A launch (p, v0) of `case`, with a linear or, if `relativistic`
    allows it, a relativistic limiter, drawn from `data`, or replayed from
    `Draws`."""
    if isinstance(data, Draws):
        assume(data.regime == (case, backward))
        values = iter(data.values)

        def draw(strategy):
            return next(values)

    else:
        draw = data.draw
    (a_lo, a_hi), (f_lo, f_hi) = CASE_DRAWS[case]
    a = math.exp(draw(st.floats(math.log(a_lo), math.log(a_hi))))
    probe = lp(a, 1.0)
    sigma = draw(st.floats(f_lo, f_hi)) * (probe.v_star if case == "C" else probe.sigma_star)
    v0 = draw(st.floats(1.5, 3.0)) * probe.v_star * (-1.0 if backward else 1.0)
    limiter = FluxLimiter(LINEAR)
    if relativistic and draw(st.sampled_from([RELATIVISTIC, LINEAR])) == RELATIVISTIC:
        # the slope domain ((sigma - c)/a, (sigma + c)/a) must hold -v_star and v0
        need = max(sigma + a * probe.v_star, a * v0 - sigma, sigma - a * v0)
        limiter = FluxLimiter(RELATIVISTIC, c=need * draw(st.floats(1.5, 3.0)))
    p = ModelParams(a=a, sigma=sigma, limiter=limiter)
    assert regime_case(p) == case
    return p, v0


def filtered_threshold_saddle(p: ModelParams, regime: str):
    """The threshold saddle picked by filtering every one of equilibria(p):
    the reference `shooting._threshold_saddle` must match."""
    case = regime_case(p)
    eqs = equilibria(p)
    interior = [e for e in eqs if e.label == SADDLE and e.w > 0.0]
    axis_low = [e for e in eqs if e.label == SADDLE and e.w == 0.0 and e.v < 0.0]
    if regime == REGIME_BACKWARD or case == "A":
        if not interior:
            raise PreconditionError("no interior saddle")
        return interior[0]
    if not axis_low:
        raise PreconditionError("no saddle at (0, -v_star)")
    return axis_low[0]


@pytest.mark.parametrize("case", sorted(CASE_DRAWS))
@pytest.mark.parametrize("regime", [REGIME_FORWARD, REGIME_BACKWARD])
@settings(max_examples=5, deadline=timedelta(seconds=5), database=None)
@given(data=st.data())
def test_threshold_saddle_is_the_filtered_one(case, regime, data):
    # equal position, eigenvalues, eigenvectors and label, or both raise;
    # a relativistic limiter can remove the interior saddle
    p, _ = draw_launch(data, case, regime == REGIME_BACKWARD, relativistic=True)

    def pick(select):
        try:
            return select(p, regime)
        except PreconditionError:
            return PreconditionError

    assert pick(shooting._threshold_saddle) == pick(filtered_threshold_saddle)


@pytest.mark.parametrize("case, backward", CASE_REGIMES, ids=CASE_REGIME_IDS)
@settings(max_examples=2, deadline=timedelta(seconds=5), database=None)
@given(data=st.data())
def test_threshold_separates_sub_and_super_critical(case, backward, data):
    # A relativistic limiter can remove the interior saddle case A needs.
    p, v0 = draw_launch(data, case, backward, relativistic=case != "A")
    r = find_w0_star(p, v0)
    assert r.method == "Both"
    below = classify_trajectory(p, r.w0_star * (1.0 - 1e-6), v0).cls
    above = classify_trajectory(p, r.w0_star * (1.0 + 1e-6), v0).cls
    assert is_subcritical(below) and not is_subcritical(above)


@pytest.mark.parametrize("case, backward", CASE_REGIMES, ids=CASE_REGIME_IDS)
@settings(max_examples=2, deadline=timedelta(seconds=5), database=None)
@given(data=st.data())
def test_quadratic_seed_lies_on_the_manifold(case, backward, data):
    # At rtol 1e-13 the trace from the default seed, 1e-4 * (1 + |saddle|)
    # off the saddle on the manifold's quadratic expansion, crosses v = v0
    # where the trace from a seed 1e-7 off does.  A seed 1e-4 off on the
    # eigenvector alone misses by up to 1e-9.
    p, v0 = draw_launch(data, case, backward, relativistic=True)
    regime = REGIME_BACKWARD if backward else REGIME_FORWARD
    kind = "unstable" if backward else "stable"
    try:
        saddle = shooting._threshold_saddle(p, regime)
        near = trace_stable_manifold(p, saddle, v0, kind, TIGHT, seed_scale=1e-7)
    except (PreconditionError, SeedEscaped):
        # a relativistic limiter removed the interior saddle, or turned its
        # manifold away from v0
        assume(False)
    far = trace_stable_manifold(p, saddle, v0, kind, TIGHT)
    assert abs(far.termination.w - near.termination.w) <= 1e-12 * near.termination.w


@pytest.mark.parametrize("case, backward", CASE_REGIMES, ids=CASE_REGIME_IDS)
@settings(max_examples=2, deadline=timedelta(seconds=10), database=None)
@given(data=st.data())
# ln a, sigma / sigma_star, v0 / v_star, limiter, c / the width needed: with s
# and I of the piece to second order in xi alone, I missed by 1.1e-10 here
@example(data=Draws("A", False, -0.5, 0.625, 2.0, RELATIVISTIC, 2.0))
def test_sampled_critical_piece_retraces_to_the_seed(case, backward, data):
    # The critical orbit's piece from the manifold seed into the saddle is
    # sampled on the manifold's expansion.  Each sample, traced back at
    # rtol 1e-13 to the seed's s, lands on the seed, with the piece's I.
    # Only the 8 samples after the seed are retraced: from deeper ones the
    # retrace's own error, controlled against the O(1) state, grows by the
    # seed's distance over the sample's on the way back (to 4e-9 at the
    # last samples of case A).
    p, v0 = draw_launch(data, case, backward, relativistic=True)
    try:
        r = find_w0_star(p, v0, method="manifold")
    except (PreconditionError, SeedEscaped):
        # a relativistic limiter removed the interior saddle, or turned its
        # manifold away from v0
        assume(False)
    pieces = []
    merge = shooting.merge_trajectories

    def spy(parts):
        pieces[:] = parts
        return merge(parts)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(shooting, "merge_trajectories", spy)
        threshold_trajectory(p, v0, result=r)
    piece = pieces[0] if backward else pieces[-1]
    s, w, v, ii = (sample_list(piece, name) for name in ("s", "w", "v", "integral"))
    if backward:  # the seed is the piece's last sample in s
        s, w, v, ii = s[::-1], w[::-1], v[::-1], ii[::-1]
    at_seed = EventSpec(fn=lambda t, w_, v_: t - s[0], kind="AtSeed",
                        direction=1 if backward else -1)
    retrace = Controls(rtol=1e-13, s_max=1e4, w_min=0.0)
    scale = 1.0 + math.hypot(*r.saddle)
    for k in range(1, min(9, len(s))):
        back = integrate(p, w[k], v[k], FORWARD if backward else BACKWARD, retrace, s0=s[k],
                         extra_events=[at_seed])
        end = back.termination
        assert end.kind == "AtSeed"
        assert math.hypot(end.w - w[0], end.v - v[0]) <= 1e-10 * scale, k
        i_end = sample_list(back, "integral")[-1 if backward else 0]
        assert abs(i_end - (ii[0] - ii[k])) <= 1e-10, k
