"""Tolerance convergence of the blow-up edges s_minus, s_plus and their exponents rho.

Each quantity is computed at rtol 1e-10 (the default), 1e-12 and 1e-13.
Its distance to the 1e-13 value must shrink as rtol falls, and at the
default it must lie within 1e-9 relative of it.  The edges must also agree
to 1e-9 relative with the values pinned when blow-up ends were still
marched in s all the way to v_max.
"""

from __future__ import annotations

import math

import pytest

from kswave.integrate import V_BLOW_UP_MINUS, V_BLOW_UP_PLUS, Controls
from kswave.phase import ModelParams
from kswave.profiles import endpoint_slopes, reconstruct, wave_trajectory

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
