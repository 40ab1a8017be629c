"""Phase-plane reduction: vector field, equilibria, eigenstructure, regimes."""

from __future__ import annotations

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kswave import phase
from kswave.errors import DegenerateError
from kswave.flux import LARSON, LINEAR, RELATIVISTIC, FluxLimiter, g_prime, make_g
from kswave.phase import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_E,
    DEGENERATE,
    SADDLE,
    STABLE_FOCUS,
    STABLE_NODE,
    UNSTABLE_NODE,
    Equilibrium,
    ModelParams,
    eigenstructure,
    equilibria,
    equilibrium_points,
    jacobian,
    make_rhs,
    nullclines,
    params_from_config,
    regime_case,
    rhs,
)
from kswave.roots import brentq


def lp(a, sigma, gamma=1.0, lam=1.0, mu=1.0):
    return ModelParams(a=a, sigma=sigma, gamma=gamma, lam=lam, limiter=FluxLimiter(LINEAR, mu=mu))


def test_star_quantities():
    assert lp(0.5, 1.0, gamma=1.0, lam=4.0).v_star == pytest.approx(2.0)
    assert lp(0.5, 1.0, gamma=4.0, lam=1.0).v_star == pytest.approx(0.5)
    assert lp(0.5, 1.0).sigma_star == pytest.approx(0.5)
    assert lp(1.0, 1.0).sigma_star == 0.0
    assert lp(3.0, 1.0).sigma_star == pytest.approx(2.0)


def test_rhs_hand_value():
    # a=2, sigma=1, gamma=1, lam=1 at (w, v) = (0.5, 0.3):
    # g = (0.6 - 1)/1 = -0.4, w' = 0.5*(-0.4-0.3) = -0.35, v' = (1-0.09-0.5)/1
    dw, dv = rhs(lp(2.0, 1.0), 0.5, 0.3)
    assert dw == pytest.approx(-0.35, rel=1e-14)
    assert dv == pytest.approx(0.41, rel=1e-14)


def test_make_rhs_matches_rhs():
    rng = np.random.default_rng(23)
    params = [
        lp(0.5, 0.3),
        lp(2.0, 0.5, gamma=2.0, lam=3.0),
        ModelParams(a=1.5, sigma=0.4, limiter=FluxLimiter(RELATIVISTIC)),
        ModelParams(a=0.8, sigma=0.6, limiter=FluxLimiter(LARSON, p=2.5)),
    ]
    for p in params:
        f = make_rhs(p)
        lo, hi = p.slope_domain
        lo = max(lo, -5.0) if math.isfinite(lo) else -5.0
        hi = min(hi, 5.0) if math.isfinite(hi) else 5.0
        for _ in range(100):
            w = float(rng.uniform(0.0, 3.0))
            v = float(rng.uniform(lo + 1e-6, hi - 1e-6))
            assert f(w, v) == pytest.approx(rhs(p, w, v), rel=1e-14)


class TestLinearEquilibria:
    def test_case_a_three_equilibria(self):
        # a=0.5, sigma=0.3 < sigma_star=0.5: stable node, saddle, unstable node
        p = lp(0.5, 0.3)
        eqs = equilibria(p)
        assert [pytest.approx(e.v) for e in eqs] == [-1.0, -0.6, 1.0]
        assert eqs[0].label == UNSTABLE_NODE
        assert eqs[1].label == SADDLE
        assert eqs[1].w == pytest.approx(1.0 - 0.36, rel=1e-12)
        assert eqs[2].label == STABLE_NODE

    def test_case_a_interior_eigenvalues_closed_form(self):
        # char poly x^2 + 2*v3*x + w3*(a-1)/gamma with v3=-0.6, w3=0.64:
        # roots 0.6 +- sqrt(0.68)
        p = lp(0.5, 0.3)
        e = equilibria(p)[1]
        r = math.sqrt(0.68)
        assert e.eigenvalues[0] == pytest.approx(0.6 + r, rel=1e-10)
        assert e.eigenvalues[1] == pytest.approx(0.6 - r, rel=1e-10)

    def test_case_b_two_equilibria(self):
        p = lp(0.5, 1.0)  # sigma > sigma_star = 0.5, w3 = 1 - 4 < 0
        eqs = equilibria(p)
        assert [e.label for e in eqs] == [SADDLE, STABLE_NODE]
        assert [pytest.approx(e.v) for e in eqs] == [-1.0, 1.0]

    def test_case_c(self):
        p = lp(1.0, 0.7)
        eqs = equilibria(p)
        assert [e.label for e in eqs] == [SADDLE, STABLE_NODE]
        # eigenvalues at (0, v_star): (-sigma, -2 v_star); at (0, -v_star): (-sigma, 2 v_star)
        assert eqs[1].eigenvalues[0] == pytest.approx(-0.7, rel=1e-12)
        assert eqs[1].eigenvalues[1] == pytest.approx(-2.0, rel=1e-12)
        assert eqs[0].eigenvalues[0] == pytest.approx(-0.7, rel=1e-12)
        assert eqs[0].eigenvalues[1] == pytest.approx(2.0, rel=1e-12)

    def test_case_d_interior_focus(self):
        # a=2, sigma=0.5 < sigma_star=1: two axis saddles + interior focus
        p = lp(2.0, 0.5)
        eqs = equilibria(p)
        assert [e.label for e in eqs] == [SADDLE, STABLE_FOCUS, SADDLE]
        mid = eqs[1]
        assert mid.v == pytest.approx(0.5, rel=1e-12)
        assert mid.w == pytest.approx(0.75, rel=1e-12)
        # roots -v3 +- i*sqrt(w3 - v3^2)
        im = math.sqrt(0.75 - 0.25)
        assert mid.eigenvalues[0].real == pytest.approx(-0.5, rel=1e-10)
        assert mid.eigenvalues[0].imag == pytest.approx(im, rel=1e-10)
        assert mid.eigenvalues[1].imag == pytest.approx(-im, rel=1e-10)

    def test_case_e_two_equilibria(self):
        p = lp(2.0, 2.0)  # sigma > sigma_star = 1
        eqs = equilibria(p)
        assert [e.label for e in eqs] == [SADDLE, STABLE_NODE]

    def test_axis_eigenvalue_closed_forms(self):
        # at (0, +v_star): ((a-1)*v_star - sigma, -2*v_star); mirrored below
        for a, sigma in [(0.25, 0.4), (0.5, 1.2), (1.5, 0.3), (4.0, 2.0)]:
            p = lp(a, sigma, gamma=2.0, lam=3.0)
            vs = p.v_star
            got = {round(e.v, 12): e for e in equilibria(p) if e.w == 0.0}
            top = got[round(vs, 12)]
            bot = got[round(-vs, 12)]
            assert top.eigenvalues[0] == pytest.approx((a - 1) * vs - sigma, rel=1e-10)
            assert top.eigenvalues[1] == pytest.approx(-2 * vs, rel=1e-10)
            assert bot.eigenvalues[0] == pytest.approx(-(a - 1) * vs - sigma, rel=1e-10)
            assert bot.eigenvalues[1] == pytest.approx(2 * vs, rel=1e-10)

    def test_axis_eigenvector_closed_form(self):
        # at (0, -v_star) the non-axis eigenvector is parallel to
        # (gamma*((1+a)*v_star + sigma), 1)
        p = lp(2.0, 0.5, gamma=1.5, lam=2.0)
        vs = p.v_star
        bot = [e for e in equilibria(p) if e.w == 0.0 and e.v < 0][0]
        ref = np.array([p.gamma * ((1 + p.a) * vs + p.sigma), 1.0])
        ref = ref / np.linalg.norm(ref)
        vec = np.array([bot.eigenvectors[0][0].real, bot.eigenvectors[0][1].real])
        assert np.allclose(np.abs(vec), np.abs(ref), rtol=1e-12)


def test_degenerate_label_on_critical_speed():
    # at sigma exactly sigma_star the (0, -v_star) leading eigenvalue vanishes
    p = lp(0.5, 0.5)
    bot = [e for e in equilibria(p) if e.v < 0][0]
    assert bot.label == DEGENERATE
    assert abs(bot.eigenvalues[0]) <= 1e-12


# Parameter ranges of the random equilibrium checks: the limiter's, by kind,
# and the model's.
LIMITER_RANGES = {
    LINEAR: {"mu": (0.5, 2.0)},
    RELATIVISTIC: {"c": (0.5, 2.0)},
    LARSON: {"c": (0.5, 2.0), "p": (1.2, 4.0)},
}
MODEL_RANGES = {"a": (0.2, 3.0), "sigma": (0.1, 2.0), "gamma": (0.5, 2.0), "lam": (0.2, 3.0)}


def residual_scale(p):
    return max(1.0, p.lam, p.gamma * p.v_star**2)


class TestEquilibriumDefinition:
    """Residual and eigen-residual checks over a random parameter sweep."""

    @pytest.mark.parametrize("kind", [LINEAR, RELATIVISTIC, LARSON])
    def test_rhs_vanishes_and_eigenpairs_hold(self, kind):
        rng = np.random.default_rng(91)
        found = 0
        for _ in range(40):
            # every kind's limiter is drawn, so all kinds see the same models
            lims = {
                k: FluxLimiter(k, **{n: float(rng.uniform(*r)) for n, r in rs.items()})
                for k, rs in LIMITER_RANGES.items()
            }
            p = ModelParams(limiter=lims[kind], **{k: float(rng.uniform(*r)) for k, r in MODEL_RANGES.items()})
            scale = residual_scale(p)
            for e in equilibria(p):
                found += 1
                dw, dv = rhs(p, e.w, e.v)
                assert math.hypot(dw, dv) <= 1e-12 * scale
                jac = jacobian(p, e.w, e.v)
                for x, vec in zip(e.eigenvalues, e.eigenvectors):
                    vec = np.array(vec, dtype=complex)
                    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
                    resid = jac @ vec - x * vec
                    assert np.linalg.norm(resid) <= 1e-9 * max(1.0, abs(x), np.abs(jac).max())
        assert found > 40  # the sweep actually exercised plenty of equilibria


@st.composite
def models(draw):
    kind = draw(st.sampled_from(list(LIMITER_RANGES)))
    lim = FluxLimiter(kind, **{k: draw(st.floats(*r)) for k, r in LIMITER_RANGES[kind].items()})
    return ModelParams(limiter=lim, **{k: draw(st.floats(*r)) for k, r in MODEL_RANGES.items()})


@settings(max_examples=60, deadline=timedelta(seconds=2), database=None)
@given(models())
def test_equilibrium_residual_is_at_rounding_level(p):
    for e in equilibria(p):
        dw, dv = rhs(p, e.w, e.v)
        assert math.hypot(dw, dv) <= 1e-12 * residual_scale(p)


@settings(max_examples=60, deadline=timedelta(seconds=2), database=None)
@given(models(), st.floats(0.05, 0.95), st.floats(0.0, 3.0))
def test_jacobian_matches_central_differences(p, t, w):
    # v sits at fraction t of the slope domain; the linear limiter's domain
    # is unbounded, so there v is drawn from (-3, 3).
    lo, hi = p.slope_domain
    v = -3.0 + 6.0 * t if math.isinf(lo) else lo + (hi - lo) * t
    # A central difference at step h errs by O(h^q) truncation plus O(eps/h)
    # rounding, balanced at h = eps^(1/3).  In v the step also shrinks with
    # the distance to a flux boundary, where the derivatives of g grow.
    # q = 2, except for a Larson limiter with p < 2: there g' - 1/mu grows
    # like |a*v - sigma|^p, so q = p.
    eps = np.finfo(float).eps
    h = eps ** (1.0 / 3.0)
    dw = h * max(1.0, w)
    dv = h * min(max(1.0, abs(v)), v - lo, hi - v)
    fd = np.column_stack([
        np.subtract(rhs(p, w + dw, v), rhs(p, w - dw, v)) / (2.0 * dw),
        np.subtract(rhs(p, w, v + dv), rhs(p, w, v - dv)) / (2.0 * dv),
    ])
    jac = jacobian(p, w, v)
    q = min(2.0, p.limiter.exponent or 2.0)
    assert np.abs(fd - jac).max() <= 1e3 * eps ** (q / 3.0) * np.abs(jac).max()


class TestSaturatedEquilibria:
    def test_axis_points_need_domain_membership(self):
        # domain ((sigma-c)/a, (sigma+c)/a) = (-0.25, 0.75) excludes +-v_star = +-1
        p = ModelParams(a=2.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC))
        eqs = equilibria(p)
        assert all(e.w > 0 for e in eqs)

    def test_axis_point_included_when_inside(self):
        # domain (-0.9, 1.1) contains +v_star = 1 but not -v_star
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        eqs = equilibria(p)
        axis = [e for e in eqs if e.w == 0.0]
        assert len(axis) == 1
        assert axis[0].v == pytest.approx(1.0)

    def test_saturation_creates_interior_equilibrium_at_a_equal_one(self):
        # linear a=1 has no interior equilibrium; the relativistic limiter
        # bends g enough that g(v - 0.1) = v has a root with w3 > 0
        p = ModelParams(a=1.0, sigma=0.1, limiter=FluxLimiter(RELATIVISTIC))
        interior = [e for e in equilibria(p) if e.w > 0]
        assert len(interior) == 1
        v3 = interior[0].v
        assert 0.5 < v3 < 0.8
        assert interior[0].w == pytest.approx(1.0 - v3 * v3, rel=1e-12)

    # h(v) = g(a*v - sigma) - v has two roots 7.3e-5 (Larson: 6.2e-5) apart
    # near v = -1.11, inside one cell of a 4097-point scan of the domain.
    @pytest.mark.parametrize(
        "limiter, sigma",
        [(FluxLimiter(RELATIVISTIC), 0.40996125531667793),
         (FluxLimiter(LARSON, p=3.0), 0.5000408072009186)],
        ids=[RELATIVISTIC, LARSON],
    )
    def test_close_saddle_node_pair_is_found(self, limiter, sigma):
        p = ModelParams(a=0.3, sigma=sigma, lam=4.0, limiter=limiter)
        roots = nullclines(p).slope_roots
        assert len(roots) == 3
        assert 0.0 < roots[1] - roots[0] < 1e-4
        labels = [(e.label, e.w > 0.0) for e in equilibria(p)]
        assert labels == [(UNSTABLE_NODE, True), (SADDLE, True), (STABLE_NODE, False)]
        assert equilibrium_points(p) == [(e.w, e.v) for e in equilibria(p)]

    @pytest.mark.parametrize(
        "limiter", [FluxLimiter(RELATIVISTIC), FluxLimiter(LARSON, c=1.5, p=2.5)],
        ids=[RELATIVISTIC, LARSON],
    )
    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
    def test_roots_cost_few_limiter_calls(self, monkeypatch, limiter, a):
        # at most one bracketed solve per monotone piece of h, no scan
        calls = [0]

        def counting_make_g(lim):
            g = make_g(lim)

            def counted(y):
                calls[0] += 1
                return g(y)

            return counted

        monkeypatch.setattr(phase, "make_g", counting_make_g)
        equilibria(ModelParams(a=a, sigma=0.40996125531667793, lam=4.0, limiter=limiter))
        assert 0 < calls[0] < 200


def reference_scan_roots(p):
    """The slope-balance roots by a 4097-point scan, brentq on each sign
    change, Newton polish and duplicate removal: the method that exact
    monotone brackets replaced, kept as a reference."""
    lim = p.limiter
    if not lim.saturated:
        return () if p.a == lim.mu else (p.sigma / (p.a - lim.mu),)
    g = make_g(lim)
    h = lambda v: g(p.a * v - p.sigma) - v
    hp = lambda v: p.a * g_prime(lim, p.a * v - p.sigma) - 1.0
    lo, hi = p.slope_domain
    pad = 1e-9 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, 4097)
    vals = np.array([h(float(v)) for v in grid])
    roots = []
    for i in range(len(grid) - 1):
        va, vb = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(va)
            continue
        if fa * fb < 0.0:
            r = brentq(h, va, vb, xtol=1e-14)
            for _ in range(2):
                d = hp(r)
                if d != 0.0:
                    step = h(r) / d
                    if abs(step) < 0.5 * (vb - va):
                        r -= step
            roots.append(float(r))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    roots.sort()
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-10 * (hi - lo):
            out.append(r)
    return tuple(out)


@settings(max_examples=100, deadline=timedelta(seconds=2), database=None)
@given(models())
def test_slope_roots_match_the_scan(p):
    old = reference_scan_roots(p)
    new = nullclines(p).slope_roots
    assert len(new) >= len(old)
    assert list(new) == sorted(new)
    for r in old:
        assert min(abs(r - x) for x in new) <= 1e-13 * abs(r)


def test_nullclines():
    p = lp(2.0, 0.5, gamma=2.0, lam=3.0)
    nc = nullclines(p)
    assert nc.parabola(0.0) == pytest.approx(3.0)
    assert nc.parabola(1.0) == pytest.approx(1.0)
    assert nc.slope_roots == (pytest.approx(0.5),)
    # a = mu has no slope-balance root
    assert nullclines(lp(1.0, 0.7)).slope_roots == ()
    # saturated: roots found by bracketing match the defining equation
    ps = ModelParams(a=2.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC))
    for r in nullclines(ps).slope_roots:
        from kswave.flux import g_inverse

        assert g_inverse(ps.limiter, ps.a * r - ps.sigma) == pytest.approx(r, abs=1e-11)


def test_eigenstructure_accepts_tuple_and_equilibrium():
    p = lp(2.0, 0.5)
    e = equilibria(p)[1]
    ev_a, vec_a, lab_a = eigenstructure(p, e)
    ev_b, vec_b, lab_b = eigenstructure(p, (e.w, e.v))
    assert ev_a == ev_b
    assert lab_a == lab_b == STABLE_FOCUS
    assert isinstance(e, Equilibrium)


def test_regime_case():
    assert regime_case(lp(0.5, 0.3)) == CASE_A
    assert regime_case(lp(0.5, 1.0)) == CASE_B
    assert regime_case(lp(1.0, 0.7)) == CASE_C
    assert regime_case(lp(2.0, 0.5)) == CASE_D
    assert regime_case(lp(2.0, 2.0)) == CASE_E
    with pytest.raises(DegenerateError):
        regime_case(lp(0.5, 0.5))
    with pytest.raises(DegenerateError):
        regime_case(lp(2.0, 1.0 + 1e-12))


def test_params_validation_and_config():
    with pytest.raises(ValueError):
        ModelParams(a=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        ModelParams(a=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        ModelParams(a=1.0, sigma=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        ModelParams(a=1.0, sigma=1.0, lam=-1.0)
    p = ModelParams(a=1.5, sigma=0.4, gamma=2.0, lam=3.0, limiter=FluxLimiter(LARSON, p=2.0))
    assert params_from_config(p.to_dict()) == p
    q = params_from_config({"a": 1.0, "sigma": 2.0})
    assert q.lam == 1.0 and q.gamma == 1.0 and q.limiter.kind == LINEAR
