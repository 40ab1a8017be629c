"""Tests for the shooting classifier, threshold search, and critical orbit."""

from __future__ import annotations

import math
from dataclasses import replace
from datetime import timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kswave.errors import (
    DegenerateError,
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
)
from kswave.phase import ModelParams, equilibria, regime_case
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


class TestManifold:
    def test_stable_manifold_reaches_v0(self):
        man = trace_stable_manifold(P_C, equilibria(P_C)[0], v_stop=2.0)
        assert man.direction == BACKWARD
        assert np.all(np.diff(man.s) > 0)
        term = man.termination
        assert term.v == pytest.approx(2.0, abs=1e-9)
        assert term.w > 0
        # Seed end hugs the saddle.
        assert math.hypot(man.w[-1], man.v[-1] + P_C.v_star) < 1e-6

    def test_unstable_manifold_forward(self):
        saddle = [e for e in equilibria(P_A) if e.w > 0][0]
        man = trace_stable_manifold(P_A, saddle, v_stop=-2.0, manifold="unstable")
        assert man.direction == FORWARD
        assert man.termination.v == pytest.approx(-2.0, abs=1e-9)
        assert math.hypot(man.w[0] - saddle.w, man.v[0] - saddle.v) < 1e-6

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
        with pytest.raises(SeedEscaped):
            trace_stable_manifold(P_C, equilibria(P_C)[0], v_stop=-5.0)

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

    def test_no_dichotomy(self, monkeypatch):
        fake_sub = lambda *a, **k: SimpleNamespace(cls=ENTERS_PARABOLA)
        monkeypatch.setattr(shooting, "classify_trajectory", fake_sub)
        with pytest.raises(NoDichotomy):
            find_w0_star(P_C, 2.0, method="bisection")
        fake_super = lambda *a, **k: SimpleNamespace(cls=ESCAPES_BELOW)
        monkeypatch.setattr(shooting, "classify_trajectory", fake_super)
        with pytest.raises(NoDichotomy):
            find_w0_star(P_C, 2.0, method="bisection")

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
        sw, sv = thr_a_back.saddle
        assert math.hypot(traj.w[0] - sw, traj.v[0] - sv) < 1e-5

    def test_computes_result_when_omitted(self):
        traj = threshold_trajectory(P_C, 2.0)
        assert traj.termination.kind == CONVERGED


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
        # the tight seed ends were tried and both are super-critical; the
        # lower one galloped down to m*(1 - 1e-6), and the expansion started
        # from that decided super-critical end: one step down found the
        # sub-critical end, and 33 halvings followed
        m = r.manifold_estimate
        offsets, delta = [], self.DELTA
        while delta < 1e-6:
            delta = min(4.0 * delta, 1e-6)
            offsets.append(delta)
        gallop = [m * (1.0 - d) for d in offsets]
        assert calls[:2 + len(gallop)] == [m * (1.0 - self.DELTA), m * (1.0 + self.DELTA), *gallop]
        assert calls[2 + len(gallop)] == gallop[-1] / 4.0
        assert len(calls) <= 44

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
        # ... so the far end gallops away from it until the class changes ...
        sign, delta, k = (1.0 if sub else -1.0), self.DELTA, 2
        while shots[k][1] == sub:
            delta *= 4.0
            assert shots[k][0] == m * (1.0 + sign * delta)
            k += 1
        assert shots[k][0] == m * (1.0 + sign * 4.0 * delta)
        # ... and bisection starts between the last two gallop points
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


@pytest.mark.parametrize("case, backward", [("A", False), ("A", True), ("B", False),
                                            ("C", False), ("D", False), ("E", False)],
                         ids=["A-forward", "A-backward", "B", "C", "D", "E"])
@settings(max_examples=2, deadline=timedelta(seconds=5), database=None)
@given(data=st.data())
def test_threshold_separates_sub_and_super_critical(case, backward, data):
    (a_lo, a_hi), (f_lo, f_hi) = CASE_DRAWS[case]
    a = math.exp(data.draw(st.floats(math.log(a_lo), math.log(a_hi))))
    probe = lp(a, 1.0)
    sigma = data.draw(st.floats(f_lo, f_hi)) * (probe.v_star if case == "C" else probe.sigma_star)
    v0 = data.draw(st.floats(1.5, 3.0)) * probe.v_star * (-1.0 if backward else 1.0)
    limiter = FluxLimiter(LINEAR)
    # A relativistic limiter can remove the interior saddle case A needs.
    if case != "A" and data.draw(st.sampled_from([RELATIVISTIC, LINEAR])) == RELATIVISTIC:
        # the slope domain ((sigma - c)/a, (sigma + c)/a) must hold -v_star and v0
        need = max(sigma + a * probe.v_star, a * v0 - sigma, sigma - a * v0)
        limiter = FluxLimiter(RELATIVISTIC, c=need * data.draw(st.floats(1.5, 3.0)))
    p = ModelParams(a=a, sigma=sigma, limiter=limiter)
    assert regime_case(p) == case
    r = find_w0_star(p, v0)
    assert r.method == "Both"
    below = classify_trajectory(p, r.w0_star * (1.0 - 1e-6), v0).cls
    above = classify_trajectory(p, r.w0_star * (1.0 + 1e-6), v0).cls
    assert is_subcritical(below) and not is_subcritical(above)
