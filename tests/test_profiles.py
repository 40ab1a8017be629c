"""Tests for profile reconstruction, taxonomy labels, and saturated fronts."""

from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np
import pytest

from kswave.errors import (
    DegenerateError,
    DenominatorVanished,
    PreconditionError,
    RegimeViolation,
)
from kswave.flux import LINEAR, RELATIVISTIC, FluxLimiter, g_inverse
from kswave.integrate import (
    CONVERGED,
    V_BLOW_UP_MINUS,
    V_BLOW_UP_PLUS,
    W_VANISHED,
    Controls,
    sample_list,
)
from kswave.phase import ModelParams
from kswave.profiles import (
    SATURATED_FRONT_CONCAVE,
    SATURATED_FRONT_CONVEX,
    SLOPE_FINITE_NEG,
    SLOPE_FINITE_POS,
    SLOPE_MINUS_INF,
    SLOPE_PLUS_INF,
    SLOPE_ZERO,
    TYPE_A1,
    TYPE_A2,
    TYPE_A3,
    TYPE_A4,
    TYPE_UNCLASSIFIED,
    WaveProfile,
    check_anchor,
    classify_profile,
    endpoint_slopes,
    farfield_coefficients,
    graph_trajectory,
    reconstruct,
    saturated_front,
    wave_profile,
    wave_trajectory,
)
from kswave.shooting import find_w0_star, threshold_trajectory


def lp(a, sigma, **kw):
    return ModelParams(a=a, sigma=sigma, **kw)


P_C = lp(1.0, 0.5)  # two-equilibria regime, fast-launch tail grows
P_B = lp(0.5, 1.0)  # fast-launch tail decays (a*v_star < sigma)
P_A = lp(0.5, 0.3)  # three equilibria; slow launches admissible
P_B_SLOW = lp(0.6, 0.7)  # case B; the fast-launch tail decays slowly


@pytest.fixture(scope="module")
def thr_c():
    return find_w0_star(P_C, 2.0)


@pytest.fixture(scope="module")
def thr_b():
    return find_w0_star(P_B, 2.0)


@pytest.fixture(scope="module")
def thr_b_slow():
    return find_w0_star(P_B_SLOW, 2.0)


@pytest.fixture(scope="module")
def thr_a_back():
    return find_w0_star(P_A, -2.0)


class TestReconstruct:
    def test_anchoring(self, thr_c):
        traj = wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0)
        prof = reconstruct(P_C, traj, s0=0.1, S0=3.0)
        # S is exponential between samples, so anchor checks interpolate
        # in log space where the normalization is exact.
        s_interp = math.exp(float(np.interp(0.1, prof.s, np.log(prof.S))))
        assert s_interp == pytest.approx(3.0, rel=1e-9)
        np.testing.assert_allclose(prof.u, prof.w * prof.S, rtol=1e-12)
        assert prof.anchors["s0"] == 0.1
        assert prof.anchors["S0"] == 3.0
        w_at = float(np.interp(0.1, traj.s, traj.w))
        assert prof.anchors["u0"] == pytest.approx(3.0 * w_at, rel=1e-12)

    # reconstruct takes no u0: a profile launches at s0, where its density
    # is w0*S0 by definition, and check_anchor holds a given u0 to that
    def test_consistent_u0_accepted(self, thr_c):
        w0 = 2.0 * thr_c.w0_star
        for rel in (0.0, 9e-10, -9e-10):
            prof, _ = wave_profile(P_C, w0, 2.0, s0=0.1, S0=2.0, u0=2.0 * w0 * (1.0 + rel),
                                   w0_star=thr_c.w0_star)
            assert prof.anchors == {"s0": 0.1, "S0": 2.0,
                                    "u0": pytest.approx(2.0 * w0, rel=1e-15)}

    def test_inconsistent_u0_rejected(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a profile marched from an anchor that check_anchor refuses")

        integrate_module = importlib.import_module("kswave.integrate")
        monkeypatch.setattr(integrate_module, "_march", forbidden)
        for module in (integrate_module, importlib.import_module("kswave.profiles")):
            monkeypatch.setattr(module, "integrate", forbidden)
            monkeypatch.setattr(module, "integrate_graph_W", forbidden)
        for u0 in (5.0 * (1.0 + 2e-9), 5.0 * (1.0 - 2e-9), 7.5, 0.0, -5.0,
                   math.nan, math.inf, -math.inf):
            with pytest.raises(PreconditionError, match=r"u0 must equal w0\*S0"):
                check_anchor(5.0, 0.3, 1.0, u0)
            with pytest.raises(PreconditionError, match=r"u0 must equal w0\*S0"):
                wave_profile(P_C, 5.0, 2.0, s0=0.3, u0=u0, w0_star=3.0)
            for call in (wave_profile, saturated_front):
                with pytest.raises(PreconditionError, match=r"u0 must equal w0\*S0"):
                    call(P_ABOVE, v0=0.5, w0=5.0, s0=0.3, u0=u0, branch="above")

    def test_anchor_outside_span(self, thr_c):
        traj = wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0)
        with pytest.raises(ValueError):
            reconstruct(P_C, traj, s0=traj.s[-1] + 1.0)

    def test_bad_s0_value(self, thr_c):
        traj = wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0)
        with pytest.raises(ValueError):
            reconstruct(P_C, traj, S0=-1.0)

    # the four linear base points (a, sigma, v0) of the benchmark's profiles
    @pytest.mark.parametrize(
        "a,sigma,v0", [(1.0, 0.5, 2.0), (0.5, 0.2, 1.8), (0.5, 0.2, -2.0), (2.0, 1.5, 2.5)]
    )
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_signal_is_numpy_exp_to_two_ulp(self, a, sigma, v0, m):
        p = lp(a, sigma)
        traj = wave_trajectory(p, m * find_w0_star(p, v0).w0_star, v0)
        s0 = 0.5 * traj.s[traj.s > 0.0][0]  # between the launch sample and the next
        prof = reconstruct(p, traj, s0=s0, S0=1.5)
        # the anchor is interpolated as numpy.interp does it, to the bit
        assert prof.anchors["u0"] == np.interp(s0, traj.s, traj.w) * 1.5
        i0 = np.interp(s0, traj.s, traj.integral)
        ref = 1.5 * np.exp(traj.integral - i0)
        assert np.all(np.abs(prof.S - ref) <= 2.0 * np.spacing(ref))

    def test_signal_overflow_names_its_s(self):
        # an A3 tail whose log-signal grows past the float range
        p = lp(1.6024980396940909, 0.5864232362323301)
        traj = wave_trajectory(p, 0.7271359580227734, 1.7270358029895085)
        with pytest.raises(OverflowError, match=r"float range at s = 7\d\d\.") as from_lists:
            reconstruct(p, traj)
        # the same samples stored as arrays, as a graph leg stores them
        as_arrays = dataclasses.replace(traj)
        with pytest.raises(OverflowError) as from_arrays:
            reconstruct(p, as_arrays)
        assert str(from_arrays.value) == str(from_lists.value)

    def test_reading_a_field_changes_no_profile(self, thr_c):
        # an orbit stores lists: reading its fields builds arrays beside them
        # and leaves the path, and the bits, of reconstruct as they were
        traj = wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0)
        want = reconstruct(P_C, traj)
        assert isinstance(traj.s, np.ndarray) and isinstance(traj.integral, np.ndarray)
        got = reconstruct(P_C, traj)
        for name in ("s", "u", "S", "w", "v"):
            assert sample_list(got, name) == sample_list(want, name)
        assert got.end_limits == want.end_limits

    def test_graph_samples_reconstruct_as_orbit_samples(self):
        # a front's graph legs store arrays; the same samples as lists
        traj = graph_trajectory(P_ABOVE, 5.0, 0.5)
        as_lists = dataclasses.replace(traj, **{
            f: getattr(traj, f).tolist() for f in ("s", "w", "v", "integral")
        })
        s0 = 0.5 * traj.s[traj.s > 0.0][0]
        ref = reconstruct(P_ABOVE, traj, s0=s0, S0=2.0)
        prof = reconstruct(P_ABOVE, as_lists, s0=s0, S0=2.0)
        assert prof.anchors == ref.anchors
        assert np.all(np.abs(prof.S - ref.S) <= 2.0 * np.spacing(ref.S))
        assert np.all(np.abs(prof.u - ref.u) <= 3.0 * np.spacing(ref.u))

    def test_end_limits_reported_at_finite_edges(self, thr_c):
        traj = wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0)
        prof = reconstruct(P_C, traj)
        assert set(prof.end_limits) == {
            "u_at_s_minus",
            "S_at_s_minus",
            "u_at_s_plus",
            "S_at_s_plus",
        }
        traj2 = wave_trajectory(P_C, 0.5 * thr_c.w0_star, 2.0)
        prof2 = reconstruct(P_C, traj2)
        assert "u_at_s_plus" not in prof2.end_limits  # right end is infinite

    @pytest.mark.parametrize("p", [P_C, P_A])
    def test_density_signal_flux_relation(self, p):
        # u * S0^a * exp(sigma*(s-s0)) == u0 * S^a along any orbit of the
        # linear model; with general mu the exponents scale by 1/mu.
        thr = find_w0_star(p, 2.0)
        traj = wave_trajectory(p, 0.7 * thr.w0_star, 2.0)
        prof = reconstruct(p, traj, s0=0.0, S0=1.0)
        u0 = prof.anchors["u0"]
        mu = p.limiter.mu
        ratio = (
            prof.u
            * np.exp(p.sigma * prof.s / mu)
            / (u0 * prof.S ** (p.a / mu))
        )
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-6)


class TestWaveTrajectory:
    def test_super_critical_has_two_finite_edges(self, thr_c):
        traj = wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0)
        kinds = {e.kind for e in traj.end_events()}
        assert kinds == {V_BLOW_UP_PLUS, V_BLOW_UP_MINUS}
        assert math.isfinite(traj.s_minus) and math.isfinite(traj.s_plus)

    def test_sub_critical_extends_forever_forward(self, thr_c):
        traj = wave_trajectory(P_C, 0.5 * thr_c.w0_star, 2.0)
        assert math.isfinite(traj.s_minus)
        assert traj.s_plus == math.inf
        kinds = {e.kind for e in traj.end_events()}
        assert kinds & {CONVERGED, W_VANISHED}


class TestClassifyProfile:
    def _profile(self, p, w0, v0):
        return reconstruct(p, wave_trajectory(p, w0, v0))

    def test_fast_super_critical(self, thr_c):
        prof = self._profile(P_C, 2.0 * thr_c.w0_star, 2.0)
        assert classify_profile(prof, P_C, thr_c.w0_star) == (TYPE_A1, TYPE_A1)

    def test_fast_critical(self, thr_c):
        traj = threshold_trajectory(P_C, 2.0, result=thr_c)
        prof = reconstruct(P_C, traj)
        assert classify_profile(prof, P_C, thr_c.w0_star) == (TYPE_A2, TYPE_A2)

    def test_fast_sub_critical_growing_tail(self, thr_c):
        # a*v_star - sigma = 0.5 > 0: both components grow down the tail.
        prof = self._profile(P_C, 0.5 * thr_c.w0_star, 2.0)
        assert classify_profile(prof, P_C, thr_c.w0_star) == (TYPE_A3, TYPE_A3)

    def test_fast_sub_critical_decaying_density(self, thr_b):
        # a*v_star - sigma = -0.5 < 0: u decays while S still grows.
        prof = self._profile(P_B, 0.5 * thr_b.w0_star, 2.0)
        assert classify_profile(prof, P_B, thr_b.w0_star) == (TYPE_A2, TYPE_A3)

    @pytest.mark.parametrize("m, want", [
        (0.3, (TYPE_A2, TYPE_A3)),
        (0.6, (TYPE_A2, TYPE_A3)),
        (0.9, (TYPE_A2, TYPE_A3)),
        (1.5, (TYPE_A1, TYPE_A1)),
        (3.0, (TYPE_A1, TYPE_A1)),
    ])
    def test_slow_decay_judged_by_its_limit_rate(self, thr_b_slow, m, want):
        # rate a*v_star - sigma = -0.1: at m = 0.3 the dwell stop cuts the
        # decaying tail while u is still 8 % of its maximum, above the 5 %
        # vanish line; the end converged on (0, v_star), where u'/u -> -0.1
        w0_star = thr_b_slow.w0_star
        prof = self._profile(P_B_SLOW, m * w0_star, 2.0)
        assert classify_profile(prof, P_B_SLOW, w0_star) == want

    def test_limit_rate_can_contradict_a_label(self, thr_c):
        # Claim the sub-critical orbit is critical: predicted (A2, A2), but
        # its end converged on (0, v_star), where u and S both grow.
        w0 = 0.5 * thr_c.w0_star
        prof = self._profile(P_C, w0, 2.0)
        assert prof.end_events[1].kind == CONVERGED
        assert classify_profile(prof, P_C, w0) == (TYPE_UNCLASSIFIED, TYPE_UNCLASSIFIED)

    def test_interior_saddle_sub_critical(self):
        # a = 0.5, sigma = 0.3: rate = 0.2 > 0, three-equilibria regime.
        thr = find_w0_star(P_A, 2.0)
        prof = self._profile(P_A, 0.5 * thr.w0_star, 2.0)
        assert classify_profile(prof, P_A, thr.w0_star) == (TYPE_A3, TYPE_A3)

    def test_slow_super_critical(self, thr_a_back):
        prof = self._profile(P_A, 2.0 * thr_a_back.w0_star, -2.0)
        assert classify_profile(prof, P_A, thr_a_back.w0_star) == (TYPE_A1, TYPE_A1)

    def test_slow_sub_critical(self, thr_a_back):
        prof = self._profile(P_A, 0.5 * thr_a_back.w0_star, -2.0)
        assert classify_profile(prof, P_A, thr_a_back.w0_star) == (TYPE_A4, TYPE_A4)

    def test_slow_critical(self, thr_a_back):
        traj = threshold_trajectory(P_A, -2.0, result=thr_a_back)
        prof = reconstruct(P_A, traj)
        assert classify_profile(prof, P_A, thr_a_back.w0_star) == (TYPE_A4, TYPE_A4)

    def test_degenerate_tail_rate(self):
        # a*v_star == sigma leaves the sub-critical tail type undetermined.
        p = lp(0.6, 0.6)
        prof = self._profile(p, 1.0, 2.0)
        with pytest.raises(DegenerateError):
            classify_profile(prof, p, 10.0)

    def test_contradicted_label_flagged_unclassified(self, thr_c):
        # Claim the super-critical profile is critical: predicted (A2, A2)
        # contradicts the measured finite right edge -> Unclassified.
        w0 = 2.0 * thr_c.w0_star
        prof = self._profile(P_C, w0, 2.0)
        assert classify_profile(prof, P_C, w0) == (
            TYPE_UNCLASSIFIED,
            TYPE_UNCLASSIFIED,
        )

    def test_slow_launch_needs_interior_saddle_regime(self, thr_c):
        prof = self._profile(P_C, 1.0, 2.0)
        bad = WaveProfile(
            s=prof.s,
            u=prof.u,
            S=prof.S,
            w=prof.w,
            v=-prof.v,  # fake a slow launch in a two-equilibria regime
            s_minus=prof.s_minus,
            s_plus=prof.s_plus,
            anchors=prof.anchors,
        )
        with pytest.raises(RegimeViolation):
            classify_profile(bad, P_C, thr_c.w0_star)

    def test_anchor_slope_between_wave_speeds_rejected(self):
        traj = wave_trajectory(P_C, 0.2, 0.5, controls=Controls(s_max=5.0))
        prof = reconstruct(P_C, traj)
        with pytest.raises(RegimeViolation):
            classify_profile(prof, P_C, 1.0)

    def test_missing_anchors_rejected(self, thr_c):
        prof = self._profile(P_C, 1.0, 2.0)
        prof.anchors = None
        with pytest.raises(ValueError):
            classify_profile(prof, P_C, thr_c.w0_star)


class TestEndpointSlopes:
    @pytest.mark.parametrize(
        "a,sigma,cat_minus,cat_plus",
        [
            (0.5, 1.0, SLOPE_PLUS_INF, SLOPE_MINUS_INF),
            (1.0, 0.5, SLOPE_FINITE_POS, SLOPE_FINITE_NEG),
            (2.0, 0.5, SLOPE_ZERO, SLOPE_ZERO),
        ],
    )
    def test_soliton_edge_categories(self, a, sigma, cat_minus, cat_plus):
        p = lp(a, sigma)
        thr = find_w0_star(p, 2.0 * p.v_star)
        prof = reconstruct(p, wave_trajectory(p, 10.0 * thr.w0_star, 2.0 * p.v_star))
        es = endpoint_slopes(prof, p)
        assert es["u_prime_at_s_minus"] == cat_minus
        assert es["u_prime_at_s_plus"] == cat_plus
        # The contact exponent equals the sensitivity a for linear flux.
        assert es["rho_minus"] == pytest.approx(a, abs=0.05)
        assert es["rho_plus"] == pytest.approx(a, abs=0.05)
        # Signal rises off the left edge and falls into the right edge.
        assert es["S_prime_at_s_minus"] > 0.0
        assert es["S_prime_at_s_plus"] < 0.0

    @staticmethod
    def dense_profile(a, sigma):
        # h_max = 0.01 caps the blow-up tail's step in ln|v|: about 230
        # samples per decade of approach
        p = lp(a, sigma)
        thr = find_w0_star(p, 2.0 * p.v_star)
        traj = wave_trajectory(p, 10.0 * thr.w0_star, 2.0 * p.v_star, Controls(h_max=0.01))
        return p, reconstruct(p, traj)

    @staticmethod
    def polyfit_rhos(prof):
        rhos = {}
        for key, d in (("rho_minus", prof.s - prof.s_minus), ("rho_plus", prof.s_plus - prof.s)):
            window = d <= 10.0 * d.min()
            rhos[key] = np.polyfit(np.log(d[window]), np.log(prof.u[window]), 1)[0]
        return rhos

    @pytest.mark.parametrize("a,sigma", [(0.5, 1.0), (1.0, 0.5), (2.0, 0.5)])
    def test_event_rho_matches_the_dense_fit(self, a, sigma):
        # a blow-up end's rho is read at its end event: g(a*v - sigma) *
        # (s - edge) at |v| = v_max, a/mu -/+ sigma/(mu*v_max) for linear flux
        p, prof = self.dense_profile(a, sigma)
        assert [ev.kind for ev in prof.end_events] == [V_BLOW_UP_PLUS, V_BLOW_UP_MINUS]
        es = endpoint_slopes(prof, p)
        v_max = Controls().v_max
        assert es["rho_minus"] == pytest.approx(a - sigma / v_max, rel=1e-12)
        assert es["rho_plus"] == pytest.approx(a + sigma / v_max, rel=1e-12)
        for key, ref in self.polyfit_rhos(prof).items():
            assert abs(es[key] - ref) <= 1e-4

    def test_default_tail_is_too_sparse_to_fit(self, thr_c):
        # the event reading is what decides a blow-up edge at default controls
        prof = reconstruct(P_C, wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0))
        assert endpoint_slopes(prof, P_C)["u_prime_at_s_plus"] == SLOPE_FINITE_NEG

    def test_edge_without_an_end_event_rejected(self, thr_c):
        prof = reconstruct(P_C, wave_trajectory(P_C, 2.0 * thr_c.w0_star, 2.0))
        prof.end_events = None
        with pytest.raises(ValueError, match="end event"):
            endpoint_slopes(prof, P_C)

    def test_infinite_edge_rejected(self, thr_c):
        traj = threshold_trajectory(P_C, 2.0, result=thr_c)
        prof = reconstruct(P_C, traj)
        with pytest.raises(ValueError):
            endpoint_slopes(prof, P_C)



class TestFarfield:
    def test_exponential_coefficients_reproduce_signal(self):
        p = P_C  # v_star = 1
        A, B, s_b = 0.3, 1.7, 2.0
        S_b = A * math.exp(s_b) + B * math.exp(-s_b)
        Sp_b = A * math.exp(s_b) - B * math.exp(-s_b)
        coef = farfield_coefficients(p, S_b, Sp_b, s_b)
        assert coef["kind"] == "exponential"
        assert coef["rate"] == pytest.approx(1.0)
        assert coef["growing"] == pytest.approx(A, rel=1e-12)
        assert coef["decaying"] == pytest.approx(B, rel=1e-12)

    def test_linear_when_no_signal_decay(self):
        p = lp(1.0, 0.5, lam=0.0)
        coef = farfield_coefficients(p, 2.0, -0.5, 4.0)
        assert coef["kind"] == "linear"
        assert coef["a0"] + coef["a1"] * 4.0 == pytest.approx(2.0)
        assert coef["a1"] == pytest.approx(-0.5)

    def test_critical_tail_is_decay_dominated(self, thr_c):
        traj = threshold_trajectory(P_C, 2.0, result=thr_c)
        prof = reconstruct(P_C, traj)
        j = -1  # far end of the sampled tail
        s_b, S_b = float(prof.s[j]), float(prof.S[j])
        coef = farfield_coefficients(P_C, S_b, S_b * float(prof.v[j]), s_b)
        k = coef["rate"]
        grow_part = abs(coef["growing"]) * math.exp(k * s_b)
        decay_part = abs(coef["decaying"]) * math.exp(-k * s_b)
        assert grow_part < 1e-3 * decay_part


REL = FluxLimiter(kind=RELATIVISTIC, mu=1.0, c=1.0)
P_ABOVE = lp(1.0, 0.5, limiter=REL)  # slope range (-0.5, 1.5)
P_BELOW = lp(2.0, 0.1, lam=4.0, limiter=REL)  # range (-0.45, 0.55) in (-2, 2)


@pytest.fixture(scope="module")
def front_above():
    return saturated_front(P_ABOVE, v0=0.5, w0=5.0, branch="above")


@pytest.fixture(scope="module")
def front_below():
    return saturated_front(P_BELOW, v0=0.05, w0=0.05, branch="below")


class TestSaturatedFront:
    def test_above_shape(self, front_above):
        f = front_above
        assert f.u_type == f.S_type == SATURATED_FRONT_CONCAVE
        lo, hi = P_ABOVE.slope_domain
        assert f.v[0] == pytest.approx(hi, abs=1e-9)
        assert f.v[-1] == pytest.approx(lo, abs=1e-9)
        assert np.all(np.diff(f.v) < 0.0)
        assert math.isfinite(f.s_minus) and math.isfinite(f.s_plus)
        assert f.s_minus < f.s_plus
        assert np.all(f.w > P_ABOVE.lam)
        assert f.w[0] > 0.0 and f.w[-1] > 0.0

    def test_below_shape(self, front_below):
        f = front_below
        assert f.u_type == f.S_type == SATURATED_FRONT_CONVEX
        lo, hi = P_BELOW.slope_domain
        assert f.v[0] == pytest.approx(lo, abs=1e-9)
        assert f.v[-1] == pytest.approx(hi, abs=1e-9)
        assert np.all(np.diff(f.v) > 0.0)
        assert math.isfinite(f.s_minus) and math.isfinite(f.s_plus)
        parab = P_BELOW.lam - P_BELOW.gamma * f.v**2
        assert np.all(f.w < parab)

    def test_log_signal_curvature_signs(self, front_above, front_below):
        for f, sign in ((front_above, -1.0), (front_below, 1.0)):
            d2 = np.gradient(np.gradient(np.log(f.S), f.s), f.s)
            n = len(f.s)
            core = d2[n // 10 : -n // 10]
            assert np.all(np.sign(core) == sign)

    def test_anchor_honored(self):
        f = saturated_front(P_ABOVE, v0=0.5, w0=5.0, branch="above", s0=1.0, S0=2.0)
        j = int(np.argmin(np.abs(f.s - 1.0)))  # seam sample sits at s0
        assert f.s[j] == pytest.approx(1.0, abs=1e-12)
        assert f.S[j] == pytest.approx(2.0, rel=1e-9)
        assert f.w[j] == pytest.approx(5.0, rel=1e-9)

    def test_density_slope_diverges_at_edges(self, front_above):
        f = front_above
        lim = P_ABOVE.limiter
        # w' = w * (g(a v - sigma) - v) along the orbit; skip the exact
        # boundary sample where g has no finite value.
        wp0 = f.w[1] * (g_inverse(lim, P_ABOVE.a * f.v[1] - P_ABOVE.sigma) - f.v[1])
        wp1 = f.w[-2] * (g_inverse(lim, P_ABOVE.a * f.v[-2] - P_ABOVE.sigma) - f.v[-2])
        assert abs(wp0) > 1e3 and abs(wp1) > 1e3

    def test_refinement_stability_of_end_densities(self):
        f1 = saturated_front(P_ABOVE, v0=0.5, w0=5.0, n_samples=2049)
        f2 = saturated_front(P_ABOVE, v0=0.5, w0=5.0, n_samples=4097)
        assert f1.w[0] == pytest.approx(f2.w[0], rel=1e-6)
        assert f1.w[-1] == pytest.approx(f2.w[-1], rel=1e-6)

    def test_linear_flux_rejected(self):
        with pytest.raises(RegimeViolation):
            saturated_front(P_C, v0=0.5, w0=5.0)

    def test_anchor_outside_slope_range(self):
        with pytest.raises(RegimeViolation):
            saturated_front(P_ABOVE, v0=2.0, w0=5.0)

    def test_above_needs_density_over_lam(self):
        with pytest.raises(RegimeViolation):
            saturated_front(P_ABOVE, v0=0.5, w0=0.5, branch="above")

    def test_above_anchor_whose_graph_dips_is_rejected(self):
        # Valid at the anchor but the traced density dips below lam.
        p = lp(1.0, 0.1, limiter=REL)
        with pytest.raises(RegimeViolation):
            saturated_front(p, v0=0.1, w0=1.5, branch="above")

    def test_above_anchor_whose_leg_stalls_at_a_fold_is_rejected(self):
        # a leg of this front stalls at a fold short of its edge: the graph
        # trace's DenominatorVanished is raised again as the branch's
        # RegimeViolation
        p = ModelParams(a=0.3760974328780512, sigma=1.4815300025234466, lam=0.3,
                        limiter=FluxLimiter(RELATIVISTIC, c=2.264328305292525))
        with pytest.raises(RegimeViolation, match="stalled at a fold or pinch") as info:
            saturated_front(p, v0=9.230820831193, w0=0.788981951293463, branch="above")
        assert type(info.value.__cause__) is DenominatorVanished

    def test_below_needs_range_inside_wave_speeds(self):
        p = lp(2.0, 0.1, lam=0.09, limiter=REL)  # v_star = 0.3 < range edges
        with pytest.raises(RegimeViolation):
            saturated_front(p, v0=0.05, w0=0.05, branch="below")

    def test_below_needs_density_under_parabola(self):
        with pytest.raises(RegimeViolation):
            saturated_front(P_BELOW, v0=0.05, w0=5.0, branch="below")

    def test_bad_branch_name(self):
        with pytest.raises(ValueError):
            saturated_front(P_ABOVE, v0=0.5, w0=5.0, branch="sideways")
