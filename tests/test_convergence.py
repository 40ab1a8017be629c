"""Tolerance convergence of the answers kswave reports.

Each quantity is computed at rtol 1e-10 (the default), 1e-12 and 1e-13.
Its distance to the 1e-13 value must shrink as rtol falls, and at the
default it must lie within 1e-9 relative of it.  The quantities are:

- the blow-up edges s_minus, s_plus and their exponents rho; the edges
  must also agree to 1e-9 relative with the values pinned when blow-up
  ends were still marched in s all the way to v_max;
- the flux-boundary edges of saturated orbits (an edge reached from within
  1e-9 * c/a of it must not move at all), and, over random relativistic and
  Larson launches, that such an end sits on its edge with a vertical slope
  and that s rises along the orbit;
- the edges s_minus, s_plus of saturated fronts and the density u at each;
- the placement of the critical orbit's pieces in `threshold_trajectory`:
  its blow-up edge, relative to the launch point at s = 0, and the s at
  which its tail, the sampled piece into the saddle, starts;
- the labels of the benchmark's round-0 profiles, which must not change;
- the critical launch density w0_star over cases A-E.
"""

from __future__ import annotations

import math
from datetime import timedelta

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kswave import shooting
from kswave.flux import LARSON, RELATIVISTIC, FluxLimiter
from kswave.integrate import (
    FLUX_BOUNDARY_HIGH,
    FLUX_BOUNDARY_LOW,
    V_BLOW_UP_MINUS,
    V_BLOW_UP_PLUS,
    Controls,
    sample_list,
)
from kswave.phase import ModelParams, regime_case
from kswave.profiles import (
    classify_profile,
    endpoint_slopes,
    reconstruct,
    saturated_front,
    wave_trajectory,
)

RTOLS = (1e-10, 1e-12, 1e-13)

# (a, sigma, v0, w0) -> the default-controls (s_minus, s_plus) pinned before
# blow-up tails were marched in ln|v|.  The first three are the A6 points,
# launched at 10 * w0_star from v0 = 2 * v_star; the other four the bench
# bases, launched at 3 * w0_star.
POINTS = {
    (0.5, 1.0, 2.0, 51.97622947083421): (-0.16864650622309027, 0.2626088109150602),
    (1.0, 0.5, 2.0, 28.97565419045996): (-0.2259272178591093, 0.3791533523552944),
    (2.0, 0.5, 2.0, 16.595146457403807): (-0.29960166776677116, 0.5520646634335441),
    (1.0, 0.5, 2.0, 8.692696257137987): (-0.3367267982083856, 0.8796608429533095),
    (0.5, 0.2, 1.8, 7.764333201895131): (-0.3520477644245395, 0.8967661223099634),
    (0.5, 0.2, -2.0, 3.91538479258976): (-1.4694191927090894, 0.40160654132713375),
    (2.0, 1.5, 2.5, 13.146244477357984): (-0.2842774028037298, 0.7580607892200868),
}


def _point_id(pt) -> str:
    return "a={}-sigma={}-v0={}".format(*pt)


@pytest.fixture(scope="module", params=sorted(POINTS), ids=_point_id)
def runs(request):
    a, sigma, v0, w0 = request.param
    p = ModelParams(a=a, sigma=sigma)
    out = []
    for rtol in RTOLS:
        prof = reconstruct(p, wave_trajectory(p, w0, v0, Controls(rtol=rtol)))
        assert [ev.kind for ev in prof.end_events] == [V_BLOW_UP_PLUS, V_BLOW_UP_MINUS]
        es = endpoint_slopes(prof, p)
        out.append({
            "s_minus": prof.s_minus, "s_plus": prof.s_plus,
            "rho_minus": es["rho_minus"], "rho_plus": es["rho_plus"],
        })
    return request.param, out


@pytest.mark.parametrize("key", ["s_minus", "s_plus"])
def test_edges_converge_in_rtol(runs, key):
    _, (default, tight, tightest) = runs
    ref = tightest[key]
    assert abs(tight[key] - ref) < abs(default[key] - ref)
    assert abs(default[key] - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("key", ["rho_minus", "rho_plus"])
def test_rho_does_not_depend_on_rtol(runs, key):
    # rho is read at the end event, |v| = v_max exactly, so the tolerance
    # moves only the edge, not the exponent
    (a, sigma, _, _), results = runs
    rhos = [r[key] for r in results]
    assert rhos[0] == rhos[1] == rhos[2]
    side = -1.0 if key == "rho_minus" else 1.0
    assert rhos[0] == pytest.approx(a + side * sigma / Controls().v_max, rel=1e-15)


def test_edges_agree_with_the_pinned_values(runs):
    point, (default, _, _) = runs
    for key, pinned in zip(("s_minus", "s_plus"), POINTS[point]):
        assert math.isclose(default[key], pinned, rel_tol=1e-9), key


def converged(values: list[float]) -> bool:
    """At rtol 1e-10, 1e-12, 1e-13: the distance to the last value shrinks,
    and the first lies within 1e-9 relative of it."""
    default, tight, ref = values
    return abs(tight - ref) < abs(default - ref) and abs(default - ref) <= 1e-9 * abs(ref)


# --------------------------------------------------------------------------
# flux-boundary edges of saturated orbits
# --------------------------------------------------------------------------

REL = ModelParams(a=1.5, sigma=0.2, limiter=FluxLimiter(RELATIVISTIC, c=3.0))
LAR = ModelParams(a=1.2, sigma=0.3, limiter=FluxLimiter(LARSON, c=2.0, p=2.5))
_EPS_V = 1e-9 * REL.limiter.c / REL.a

# name -> (params, w0, v0, near): `wave_trajectory` through the launch, which
# must end on the flux boundary at both ends at every rtol.  The standoff
# launches start within 1e-9 * c/a of the boundary, as those of
# tests/test_integrate.py do; `near` names the edge on that side, which the
# flux-boundary leg reaches in one landing step, the same at every rtol.
SATURATED = {
    "standoff-high": (REL, 5.0, REL.slope_domain[1] - 0.5 * _EPS_V, "s_minus"),
    "standoff-low": (REL, 5.0, REL.slope_domain[0] + 0.5 * _EPS_V, "s_plus"),
    "on-standoff-level": (REL, 5.0, REL.slope_domain[1] - _EPS_V, "s_minus"),
    "relativistic": (REL, 5.0, 0.5, None),
    "larson": (LAR, 3.0, 0.2, None),
}
_FLUX_ENDS = [FLUX_BOUNDARY_HIGH, FLUX_BOUNDARY_LOW]


@pytest.fixture(scope="module", params=sorted(SATURATED))
def saturated_runs(request):
    p, w0, v0, near = SATURATED[request.param]
    out = []
    for rtol in RTOLS:
        traj = wave_trajectory(p, w0, v0, Controls(rtol=rtol))
        assert [ev.kind for ev in traj.end_events()] == _FLUX_ENDS
        out.append({"s_minus": traj.s_minus, "s_plus": traj.s_plus})
    return near, out


def test_flux_boundary_edges_converge_in_rtol(saturated_runs):
    near, runs = saturated_runs
    for key in ("s_minus", "s_plus"):
        values = [r[key] for r in runs]
        if key == near:
            assert values[0] == values[1] == values[2], key
        else:
            assert converged(values), key


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def saturated_launches(draw):
    """A relativistic or Larson p, sigma up to 30 c, and a launch (w0, v0)
    anywhere in its slope domain: within 1e-9 * c/a of an edge, and anywhere
    in the 4e-3 * c/a next to it (twice the flux-boundary legs' band),
    included."""
    c = draw(log_uniform(0.3, 5.0))
    if draw(st.booleans()):
        lim = FluxLimiter(RELATIVISTIC, c=c)
    else:
        lim = FluxLimiter(LARSON, c=c, p=draw(st.floats(1.3, 4.0)))
    a = draw(log_uniform(0.3, 3.0))
    p = ModelParams(a=a, sigma=draw(log_uniform(0.01, 30.0)) * c, limiter=lim)
    lo, hi = p.slope_domain
    near = draw(st.sampled_from((None, lo, hi)))
    if near is None:
        v0 = lo + draw(st.floats(1e-3, 1.0 - 1e-3)) * (hi - lo)
    else:
        depth = draw(st.floats(0.0, 1e-9) | st.floats(0.0, 4e-3))
        v0 = near + (1.0 if near == lo else -1.0) * depth * c / a
        assume(lo < v0 < hi)
    return p, draw(log_uniform(1e-3, 1e2)), v0


# g(a*v - sigma) - v changes sign inside the band of the upper edge: 1.5e-4
# * c/a from it for this Larson p, at sigma = 20 c for the relativistic one.
# TURN_BACK's launch below turns next to its upper edge, where g - v < 0,
# and heads back to it either way.
LARSON_4 = ModelParams(a=0.3, sigma=0.9, limiter=FluxLimiter(LARSON, c=1.0, p=4.0))
REL_FAST = ModelParams(a=1.0, sigma=20.0, limiter=FluxLimiter(RELATIVISTIC, c=1.0))
LARSON_E = ModelParams(a=1.0, sigma=math.e, limiter=FluxLimiter(LARSON, c=1.0, p=1.5))
TURN_BACK = ModelParams(
    a=0.2504176505330078, sigma=26.913752780623454, lam=20878.888492904785,
    limiter=FluxLimiter(LARSON, c=1.0, p=3.0853678811560417),
)
# launched on the switch level of its upper edge's band, to 1e-16, heading out
REL_ON_SWITCH = ModelParams(
    a=math.exp(0.25), sigma=15.642631884188171, limiter=FluxLimiter(RELATIVISTIC, c=1.0)
)


@settings(max_examples=40, deadline=timedelta(seconds=10), database=None)
@given(launch=saturated_launches(), rtol=st.sampled_from((1e-10, 1e-12, 1e-13)))
@example(launch=(LARSON_4, 0.5, LARSON_4.slope_domain[1] - 1e-3 / 0.3), rtol=1e-12)
@example(launch=(REL_FAST, 0.5, REL_FAST.slope_domain[1] - 1e-3), rtol=1e-12)
@example(launch=(TURN_BACK, 8453.952305470699, 111.46719780899913), rtol=1e-12)
# 1e-14 above the lower edge: the forward run's one step ends within float
# noise of its launch
@example(launch=(LARSON_E, 1.0, 1.718281828459055), rtol=1e-10)
# the out event of the march in ln w starts at 0.0 and so never fires
@example(launch=(REL_ON_SWITCH, 1.0, 12.959737142208734), rtol=1e-10)
def test_saturated_orbits_end_on_the_flux_boundary(launch, rtol):
    # no launch stalls in StepSizeUnderflow, s rises along the orbit, every
    # flux-boundary end sits on its edge, and every finite edge is
    # vertical: u jumps there
    p, w0, v0 = launch
    traj = wave_trajectory(p, w0, v0, Controls(rtol=rtol))
    s = sample_list(traj, "s")
    assert all(x < y for x, y in zip(s, s[1:]))
    edges = dict(zip(_FLUX_ENDS, reversed(p.slope_domain)))
    for ev in traj.end_events():
        if ev.kind in edges:
            assert ev.v == edges[ev.kind]
    if all(e is not None and math.isfinite(e) for e in (traj.s_minus, traj.s_plus)):
        es = endpoint_slopes(reconstruct(p, traj), p)
        assert (es["u_prime_at_s_minus"], es["u_prime_at_s_plus"]) == ("+inf", "-inf")


# --------------------------------------------------------------------------
# saturated fronts: their edges and the density at each edge
# --------------------------------------------------------------------------

# name -> (params, v0, w0, branch); the "below" fronts take limiters whose
# slope domain lies inside (-v_star, v_star).  The legs of the lam = 0.3
# front cross W = 1 (W runs from 0.68 to 2.1), where ln W = 0, so that only
# atol scales the error of the graph legs' first component there.
FRONTS = {
    "relativistic-above": (REL, 0.5, 5.0, "above"),
    "larson-above": (LAR, 0.2, 3.0, "above"),
    "relativistic-below": (
        ModelParams(a=1.5, sigma=0.2, limiter=FluxLimiter(RELATIVISTIC, c=0.6)), 0.2, 0.05, "below"
    ),
    "larson-below": (
        ModelParams(a=1.2, sigma=0.3, limiter=FluxLimiter(LARSON, c=0.6, p=2.5)), 0.2, 0.05, "below"
    ),
    "relativistic-above-lam-0.3": (
        ModelParams(a=0.6, sigma=0.3, lam=0.3, limiter=FluxLimiter(RELATIVISTIC, c=1.0)),
        0.5, 1.5, "above",
    ),
}


@pytest.mark.parametrize("name", sorted(FRONTS))
def test_front_edges_converge_in_rtol(name):
    p, v0, w0, branch = FRONTS[name]
    runs = []
    for rtol in RTOLS:
        front = saturated_front(p, v0, w0, branch=branch, controls=Controls(rtol=rtol))
        u = sample_list(front, "u")
        runs.append({"s_minus": front.s_minus, "s_plus": front.s_plus,
                     "u_minus": u[0], "u_plus": u[-1]})
    for key in runs[0]:
        assert converged([r[key] for r in runs]), key


# --------------------------------------------------------------------------
# the critical orbit: where threshold_trajectory places its pieces
# --------------------------------------------------------------------------

# the benchmark's profile bases (a, sigma, v0)
BASES = ((1.0, 0.5, 2.0), (0.5, 0.2, 1.8), (0.5, 0.2, -2.0), (2.0, 1.5, 2.5))


@pytest.fixture(scope="module")
def critical_placements() -> dict:
    """Per base and rtol, the critical orbit's blow-up edge and the s at
    which its tail into the saddle starts, from `threshold_trajectory` with
    its threshold solved at that rtol."""
    merge = shooting.merge_trajectories
    pieces: list = []

    def spy(parts):
        pieces[:] = parts
        return merge(parts)

    out = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shooting, "merge_trajectories", spy)
        for a, sigma, v0 in BASES:
            p = ModelParams(a=a, sigma=sigma)
            runs = []
            for rtol in RTOLS:
                traj = shooting.threshold_trajectory(p, v0, controls=Controls(rtol=rtol))
                s = sample_list(traj, "s")
                n0, n1 = len(pieces[0].s), len(pieces[1].s)
                # forward [blow-up leg, manifold, tail], backward [tail,
                # manifold, blow-up leg]: the launch point and the tail's
                # start are seams
                launch, tail = (n0 - 1, n0 + n1 - 2) if v0 > 0.0 else (n0 + n1 - 2, n0 - 1)
                assert s[launch] == pytest.approx(0.0, abs=1e-12)
                edge = traj.s_minus if v0 > 0.0 else traj.s_plus
                runs.append({"edge": edge, "tail": s[tail]})
            out[a, sigma, v0] = runs
    return out


# The tail starts where the traced saddle manifold ends, at its seed
# 1e-4 * (1 + |saddle|) off the saddle; from there the piece into the saddle
# is sampled on the manifold's expansion.  The trace's step error is
# controlled relative to the O(1) state, not to the seed's displacement, so
# the manifold's span converges in rtol but at the two case-A bases sits
# 3.6e-9 and 2.8e-9 relative off its rtol-1e-13 value at the default.
_SPAN_LIMITED = pytest.mark.xfail(
    strict=True, reason="manifold span error ~4e-9 relative at the default rtol"
)
PLACEMENTS = [
    pytest.param(
        base, key, id="{}-a={}-sigma={}-v0={}".format(key, *base),
        marks=_SPAN_LIMITED if key == "tail" and base[:2] == (0.5, 0.2) else (),
    )
    for base in BASES
    for key in ("edge", "tail")
]


@pytest.mark.parametrize("base, key", PLACEMENTS)
def test_critical_orbit_placement_converges_in_rtol(critical_placements, base, key):
    assert converged([r[key] for r in critical_placements[base]])


@pytest.mark.parametrize("base", BASES, ids=_point_id)
def test_critical_tail_placement_shrinks_in_rtol(critical_placements, base):
    # where the 1e-9 bound fails, the distance to the 1e-13 value still falls
    default, tight, ref = (r["tail"] for r in critical_placements[base])
    assert abs(tight - ref) < abs(default - ref)


# --------------------------------------------------------------------------
# the labels of the benchmark's round-0 profiles
# --------------------------------------------------------------------------


def test_round_zero_profile_labels_do_not_depend_on_rtol(worker):
    # launched at m * w0_star with w0_star solved once, at the default
    wl = worker.WORKLOADS["profiles"](0)
    wl.prepare()
    ops = wl.round(0)
    assert len(ops) == 8
    for op in ops:
        p, v0, w_star = wl.bases[op["base"]]
        labels = [
            classify_profile(
                reconstruct(p, wave_trajectory(p, op["m"] * w_star, v0, Controls(rtol=rtol))),
                p, w_star,
            )
            for rtol in RTOLS
        ]
        assert labels[0] == labels[1] == labels[2], (op["base"], op["m"], labels)


# --------------------------------------------------------------------------
# the critical launch density over cases A-E
# --------------------------------------------------------------------------

# (a, sigma, v0) -> regime case; case A is launched both ways
THRESHOLD_POINTS = {
    (0.5, 0.2, 1.8): "A",
    (0.5, 0.2, -2.0): "A",
    (0.6, 0.7, 2.0): "B",
    (1.0, 0.5, 2.0): "C",
    (2.0, 0.5, 2.5): "D",
    (2.0, 1.5, 2.5): "E",
}


@pytest.mark.parametrize("point", sorted(THRESHOLD_POINTS), ids=_point_id)
def test_w0_star_converges_in_rtol(point):
    a, sigma, v0 = point
    p = ModelParams(a=a, sigma=sigma)
    assert regime_case(p) == THRESHOLD_POINTS[point]
    default, tight, ref = (
        shooting.find_w0_star(p, v0, controls=Controls(rtol=rtol)).w0_star for rtol in RTOLS
    )
    assert abs(default - ref) <= 1e-9 * ref
    assert abs(tight - ref) <= abs(default - ref)
