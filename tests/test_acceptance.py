"""Acceptance checks: one test per contract item, at the stated tolerances.

Each test is self-contained end-to-end behavior of the public API; pytest -v
prints one pass/fail line per item.  Shared thresholds are cached at module
scope so the whole suite stays well under a minute per item.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from kswave import (
    CONVERGES_TO,
    ENTERS_PARABOLA,
    Controls,
    FluxLimiter,
    LINEAR,
    RELATIVISTIC,
    SADDLE,
    SATURATED_FRONT_CONCAVE,
    SATURATED_FRONT_CONVEX,
    SLOPE_FINITE_NEG,
    SLOPE_FINITE_POS,
    SLOPE_MINUS_INF,
    SLOPE_PLUS_INF,
    SLOPE_ZERO,
    STABLE_FOCUS,
    STABLE_NODE,
    UNSTABLE_NODE,
    ModelParams,
    classify_profile,
    classify_trajectory,
    endpoint_slopes,
    equilibria,
    find_w0_star,
    g_inverse,
    integrate,
    integrate_graph_W,
    reconstruct,
    rhs,
    saturated_front,
    threshold_trajectory,
    wave_trajectory,
)
from kswave.integrate import FORWARD

REL = FluxLimiter(RELATIVISTIC, mu=1.0, c=1.0)


def lp(a, sigma, gamma=1.0, lam=1.0, limiter=None):
    return ModelParams(a=a, sigma=sigma, gamma=gamma, lam=lam,
                       limiter=limiter or FluxLimiter(LINEAR))


_THRESHOLDS: dict = {}


def thr(a, sigma, v0):
    key = (a, sigma, v0)
    if key not in _THRESHOLDS:
        _THRESHOLDS[key] = find_w0_star(lp(a, sigma), v0)
    return _THRESHOLDS[key]


def test_a1_equilibrium_table_and_axis_eigenvalues():
    """12-parameter grid: residuals vanish, labels and eigenvalues exact.

    Grid: six sensitivity values at speeds half and 1.5x the critical one
    (wave-speed scale is used when the critical speed degenerates to 0).
    At (0, +-v_star) the eigenvalues have closed forms
    ((a-1)v_star - sigma, -2 v_star) and (-(a-1)v_star - sigma, 2 v_star).
    """
    points = 0
    for a in (0.25, 0.5, 1.0, 1.5, 2.0, 4.0):
        probe = lp(a, 1.0)
        ref = probe.sigma_star if probe.sigma_star > 0.0 else probe.v_star
        for f in (0.5, 1.5):
            p = lp(a, f * ref)
            eqs = equilibria(p)
            points += 1

            for e in eqs:
                fw, fv = rhs(p, e.w, e.v)
                scale = 1.0 + math.hypot(e.w, e.v)
                assert math.hypot(fw, fv) <= 1e-12 * scale

            labels = [e.label for e in eqs]
            if a < 1.0 and f < 1.0:
                assert labels == [UNSTABLE_NODE, SADDLE, STABLE_NODE]
            elif a > 1.0 and f < 1.0:
                assert labels[0] == SADDLE and labels[2] == SADDLE
                assert labels[1] in (STABLE_FOCUS, STABLE_NODE)
                assert all(z.real < 0 for z in eqs[1].eigenvalues)
            else:
                assert labels == [SADDLE, STABLE_NODE]

            vs = p.v_star
            for e in eqs:
                if e.w != 0.0:
                    continue
                sgn = 1.0 if e.v > 0 else -1.0
                want = (sgn * (p.a - 1.0) * vs - p.sigma, -sgn * 2.0 * vs)
                for got, ref_ev in zip(e.eigenvalues, want):
                    assert abs(got - ref_ev) <= 1e-10 * max(1.0, abs(ref_ev))
    assert points == 12


def test_a2_unit_sensitivity_exponential_density():
    """At a=1 the density ratio decays exactly exponentially in s.

    Integrated w(s) must match w0*exp(-sigma*(s-s0)) to relative 1e-8
    over a span of 5 at rtol 1e-10.
    """
    p = lp(1.0, 0.7)
    traj = integrate(p, 2.0, 1.9, direction=FORWARD,
                     controls=Controls(rtol=1e-10, s_max=5.0))
    assert traj.s[-1] - traj.s[0] == pytest.approx(5.0)
    ref = 2.0 * np.exp(-p.sigma * traj.s)
    assert np.max(np.abs(traj.w - ref) / ref) <= 1e-8


def test_a3_blowup_endpoints_finite_stable_trichotomy():
    """Heavy launches blow up at finite s in both directions.

    Endpoint estimates must be finite, stable to 1e-5 under rtol halving,
    and the density at the blow-up ends must diverge (a<1), stay of order
    one (a=1), or vanish (a>1).
    """
    for a, sigma in [(0.5, 0.3), (1.0, 0.5), (2.0, 0.5)]:
        p = lp(a, sigma)
        v0 = 2.0 * p.v_star
        w0 = 10.0 * thr(a, sigma, v0).w0_star
        runs = {}
        for rtol in (1e-10, 5e-11):
            t = wave_trajectory(p, w0, v0, controls=Controls(rtol=rtol))
            assert t.termination_start.kind == "VBlowUpPlus"
            assert t.termination.kind == "VBlowUpMinus"
            assert math.isfinite(t.s_minus) and math.isfinite(t.s_plus)
            runs[rtol] = (t.s_minus, t.s_plus, t.w[0], t.w[-1])
        r, rh = runs[1e-10], runs[5e-11]
        for x, y in zip(r[:2], rh[:2]):
            assert abs(x - y) <= 1e-5 * max(1.0, abs(x))
        for x, y in zip(r[2:], rh[2:]):
            assert abs(x - y) <= 1e-5 * abs(x)

        w_start, w_end = r[2], r[3]
        if a < 1.0:
            assert w_start >= 1e2 * w0 and w_end >= 1e2 * w0
        elif a == 1.0:
            assert 1e-2 * w0 <= w_end <= 1e2 * w0
            assert 1e-2 * w0 <= w_start <= 1e2 * w0
        else:
            assert w_start <= 1e-3 * w0 and w_end <= 1e-3 * w0


def test_a4_threshold_dual_method_and_classification():
    """Bisection and manifold tracing agree; random launches classify right.

    On four parameter sets with a shooting dichotomy the two estimates of
    the critical density agree to relative 1e-6, and 20 random launches
    per set land on the side their density predicts.
    """
    rng = np.random.default_rng(20260816)
    sets = [(1.0, 0.5, 2.0), (0.5, 0.75, 2.0), (2.0, 0.5, 2.0), (0.5, 0.3, -2.0)]
    for a, sigma, v0 in sets:
        p = lp(a, sigma)
        result = thr(a, sigma, v0)
        assert result.method == "Both"
        assert result.manifold_estimate is not None
        assert abs(result.manifold_estimate - result.w0_star) <= 1e-6 * result.w0_star

        star = result.w0_star
        done = 0
        while done < 20:
            w0 = star * math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))
            if abs(w0 - star) <= 1e-8 * star:
                continue
            shot = classify_trajectory(p, w0, v0)
            is_sub = shot.cls in (ENTERS_PARABOLA, CONVERGES_TO)
            assert is_sub == (w0 < star), (a, sigma, v0, w0, shot.cls)
            done += 1


# Push the sampled blow-up ends close enough that vanishing tails drop
# below 1e-3 of the profile maximum there.
_DEEP = Controls(v_max=1e8)


def _profile(p, w0, v0, controls=_DEEP):
    return reconstruct(p, wave_trajectory(p, w0, v0, controls=controls))


@pytest.fixture(scope="module")
def taxonomy():
    """One profile per taxonomy clause: (profile, params, w0_star)."""
    p_c, p_b, p_a = lp(1.0, 0.5), lp(0.5, 1.0), lp(0.5, 0.3)
    t_c = thr(1.0, 0.5, 2.0)
    t_b = thr(0.5, 1.0, 2.0)
    t_a = thr(0.5, 0.3, 2.0)
    t_back = thr(0.5, 0.3, -2.0)
    # Let the growing tail run to span 60 with density floor and
    # equilibrium capture disabled, so growth is measurable at the cut.
    grow = Controls(v_max=1e8, w_min=0.0, eq_dwell=math.inf, s_max=60.0)
    crit = reconstruct(p_c, threshold_trajectory(p_c, 2.0, result=t_c, controls=_DEEP))
    return {
        "super": (_profile(p_c, 2.0 * t_c.w0_star, 2.0), p_c, t_c.w0_star),
        "critical": (crit, p_c, t_c.w0_star),
        "sub_decaying": (_profile(p_b, 0.5 * t_b.w0_star, 2.0), p_b, t_b.w0_star),
        "sub_growing": (
            _profile(p_a, 0.5 * t_a.w0_star, 2.0, controls=grow), p_a, t_a.w0_star),
        "back_super": (_profile(p_a, 2.0 * t_back.w0_star, -2.0), p_a, t_back.w0_star),
        "back_sub": (_profile(p_a, 0.5 * t_back.w0_star, -2.0), p_a, t_back.w0_star),
    }


def test_a5_profile_taxonomy_clauses(taxonomy):
    """Each launch regime yields its prescribed (u, S) type pair.

    Measured limits back the labels: ends at finite edges sink below
    1e-3 of the maximum; growing tails exceed 1e3 times their anchor
    value by the time the run is truncated.
    """
    want = {
        "super": ("A1", "A1"),
        "critical": ("A2", "A2"),
        "sub_decaying": ("A2", "A3"),
        "sub_growing": ("A3", "A3"),
        "back_super": ("A1", "A1"),
        "back_sub": ("A4", "A4"),
    }
    for name, (prof, p, star) in taxonomy.items():
        assert classify_profile(prof, p, star) == want[name], name
        u, S = prof.u, prof.S
        u0, S0 = prof.anchors["u0"], prof.anchors["S0"]
        u_max = u.max()

        def finite(edge):
            return edge is not None and math.isfinite(edge)

        if finite(prof.s_minus):
            assert u[0] <= 1e-3 * u_max, name
        if finite(prof.s_plus):
            assert u[-1] <= 1e-3 * u_max, name
        kinds = want[name]
        if kinds[0] == "A3":
            assert u[-1] >= 1e3 * u0, name
        if kinds[1] == "A3":
            assert S[-1] >= 1e3 * S0, name
        if kinds == ("A4", "A4"):
            assert u[0] >= 1e3 * u0 and S[0] >= 1e3 * S0, name
        if kinds[0] == "A2":
            assert u[-1] <= 1e-3 * u_max, name


def test_a6_soliton_endpoint_slopes(taxonomy):
    """Compact-bump edge steepness sorts by the sensitivity exponent.

    The edge exponent rho = lim (u'/u) * (s - edge), read at each edge's
    blow-up end event, categorizes the density slopes as vertical (a<1),
    finite (a=1), or tangential (a>1); the signal slope is positive at
    the left edge and negative at the right edge in all three cases.
    """
    want = {
        0.5: (SLOPE_PLUS_INF, SLOPE_MINUS_INF),
        1.0: (SLOPE_FINITE_POS, SLOPE_FINITE_NEG),
        2.0: (SLOPE_ZERO, SLOPE_ZERO),
    }
    for a, sigma in [(0.5, 1.0), (1.0, 0.5), (2.0, 0.5)]:
        p = lp(a, sigma)
        star = thr(a, sigma, 2.0).w0_star
        prof = _profile(p, 10.0 * star, 2.0, controls=Controls())
        slopes = endpoint_slopes(prof, p)
        assert (slopes["u_prime_at_s_minus"], slopes["u_prime_at_s_plus"]) == want[a]
        assert slopes["S_prime_at_s_minus"] > 0.0
        assert slopes["S_prime_at_s_plus"] < 0.0


@pytest.fixture(scope="module")
def dense_profiles():
    """Short uniformly-sampled profiles for finite-difference residuals."""
    out = []
    for a, sigma, fac in [(0.5, 0.75, 0.5), (1.0, 0.5, 0.5), (2.0, 0.5, 2.0)]:
        p = lp(a, sigma)
        w0 = fac * thr(a, sigma, 2.0).w0_star
        ctr = Controls(rtol=1e-10, h_max=2e-4, s_max=2.0)
        out.append((reconstruct(p, wave_trajectory(p, w0, 2.0, controls=ctr)), p))
    return out


def _flux_residual(prof, p):
    s0, S0, u0 = prof.anchors["s0"], prof.anchors["S0"], prof.anchors["u0"]
    ratio = (prof.u * S0**p.a * np.exp(p.sigma * (prof.s - s0))
             / (u0 * prof.S**p.a))
    return float(np.max(np.abs(ratio - 1.0)))


def test_a7_flux_relation_and_elliptic_residual(taxonomy, dense_profiles):
    """The algebraic density-signal relation and the signal ODE both hold.

    u * S0^a * exp(sigma*(s-s0)) / (u0 * S^a) stays within 1e-6 of 1 at
    every sample of every linear-diffusion profile; centered differences
    on densely sampled profiles satisfy gamma*S'' - lam*S + u = 0 to
    1e-6 of the term scale at interior points.
    """
    for name, (prof, p, _) in taxonomy.items():
        assert _flux_residual(prof, p) <= 1e-6, name
    for prof, p in dense_profiles:
        assert _flux_residual(prof, p) <= 1e-6

        s, S, u, v = prof.s, prof.S, prof.u, prof.v
        ok = np.abs(v) <= 5.0  # interior: away from the blow-up layers
        idx = np.where(ok[1:-1] & ok[:-2] & ok[2:])[0] + 1
        h1 = s[idx] - s[idx - 1]
        h2 = s[idx + 1] - s[idx]
        Spp = 2.0 * ((S[idx + 1] - S[idx]) / h2
                     - (S[idx] - S[idx - 1]) / h1) / (h1 + h2)
        resid = np.abs(p.gamma * Spp - p.lam * S[idx] + u[idx])
        scale = max(np.max(np.abs(p.lam * S[ok])), np.max(np.abs(u[ok])))
        assert np.max(resid) <= 1e-6 * scale


def test_a8_saturated_front_geometry():
    """Sharp saturation fronts: finite span, monotone slope, vertical walls.

    For one front of each convexity: the span is finite; v is monotone of
    the branch's sign with finite one-sided v' at both closed endpoints;
    w is finite and positive at both ends, stable to 1e-6 under sampling
    refinement and solver-tolerance halving; |w'| exceeds 1e4 within
    distance 1e-6*c of each flux boundary and grows monotonically under
    refinement; (log S)'' has one sign per branch.
    """
    cases = [
        ("above", lp(1.0, 0.5, limiter=REL), 0.5, 40.0, -1.0),
        ("below", lp(2.0, 0.1, lam=20.0, limiter=REL), 0.05, 10.0, +1.0),
    ]
    for branch, p, v0, w0, curv_sign in cases:
        c = p.limiter.c
        band_maxima = []
        fronts = {}
        for n in (2049, 4097, 8193):
            f = saturated_front(p, v0, w0, branch=branch, n_samples=n)
            fronts[n] = f
            s, w, v = f.s, f.w, f.v
            assert math.isfinite(f.s_minus) and math.isfinite(f.s_plus)
            assert f.s_plus > f.s_minus

            dv = np.diff(v)
            assert np.all(dv < 0.0) if branch == "above" else np.all(dv > 0.0)

            for i0, i1 in ((0, 1), (-1, -2)):
                dq = (v[i1] - v[i0]) / (s[i1] - s[i0])
                exact = (p.lam - p.gamma * v[i0] ** 2 - w[i0]) / p.gamma
                assert math.isfinite(dq)
                assert dq == pytest.approx(exact, rel=1e-2)

            assert w[0] > 0.0 and w[-1] > 0.0
            assert math.isfinite(w[0]) and math.isfinite(w[-1])

            y = p.a * v - p.sigma
            per_side = []
            for yb in (-c, c):
                idx = np.where((np.abs(y - yb) <= 1e-6 * c) & (np.abs(y) < c))[0]
                assert len(idx) > 0
                per_side.append(max(
                    abs(w[i] * (g_inverse(p.limiter, y[i]) - v[i])) for i in idx))
            assert min(per_side) > 1e4
            band_maxima.append(per_side)

            core = np.abs(np.abs(y) - c) >= 1e-2 * c
            curv = np.gradient(np.gradient(np.log(f.S), s), s)
            assert np.all(curv_sign * curv[core][2:-2] > 0.0)

        for prev, nxt in zip(band_maxima, band_maxima[1:]):
            assert nxt[0] > prev[0] and nxt[1] > prev[1]
        for n, n2 in ((2049, 4097), (4097, 8193)):
            for i in (0, -1):
                a_, b_ = fronts[n].w[i], fronts[n2].w[i]
                assert abs(a_ - b_) <= 1e-6 * abs(a_)

        f1 = saturated_front(p, v0, w0, branch=branch,
                             controls=Controls(rtol=1e-10), n_samples=2049)
        f2 = saturated_front(p, v0, w0, branch=branch,
                             controls=Controls(rtol=5e-11), n_samples=2049)
        for i in (0, -1):
            assert abs(f1.w[i] - f2.w[i]) <= 1e-6 * abs(f1.w[i])

        want = (SATURATED_FRONT_CONCAVE if branch == "above"
                else SATURATED_FRONT_CONVEX)
        assert fronts[2049].u_type == want


def test_a9_graph_time_domain_equivalence():
    """Orbit-graph integration reproduces the s-domain density on an arc.

    W(v(s)) and w(s) agree within 1e-6 for both the linear and the
    saturated diffusion flux.
    """
    p = lp(1.0, 0.5)
    w0 = 2.0 * thr(1.0, 0.5, 2.0).w0_star
    traj = integrate(p, w0, 2.0, direction=FORWARD,
                     controls=Controls(rtol=1e-10, h_max=0.02))
    arc = (traj.v > -0.9) & (traj.v < 1.95)
    g = integrate_graph_W(p, 2.0, w0, -0.9)
    dev = np.abs(g.W_at(traj.v[arc]) - traj.w[arc])
    assert np.max(dev / np.maximum(1.0, np.abs(traj.w[arc]))) <= 1e-6

    p2 = lp(1.0, 0.5, limiter=REL)
    traj2 = integrate(p2, 5.0, 0.5, direction=FORWARD,
                      controls=Controls(rtol=1e-10, h_max=0.002))
    arc2 = (traj2.v > traj2.v.min() + 0.02) & (traj2.v < 0.48)
    g2 = integrate_graph_W(p2, 0.5, 5.0, traj2.v.min() + 0.02)
    dev2 = np.abs(g2.W_at(traj2.v[arc2]) - traj2.w[arc2])
    assert np.max(dev2 / np.maximum(1.0, np.abs(traj2.w[arc2]))) <= 1e-6
