"""Physical wave profiles (u, S) built on top of integrated orbits.

An orbit (w(s), v(s)) determines the physical profile only up to the
signal normalization: S = S0 * exp(I - I0) with I the accumulated
integral of v, and u = w * S.  This module reconstructs those profiles,
labels their asymptotic shape (types A1-A4 for the sharp-edge/tail
taxonomy, plus the saturated-front labels), measures endpoint slope
behaviour, and assembles the singular fronts that exist only for
saturating flux.  `wave_profile`, `portrait` and `sweep` are the
computations of the CLI commands `profile`, `portrait` and `sweep`.

Taxonomy, for a profile component f in {u, S} on (s_minus, s_plus):

* A1 - both edges finite, f vanishes at both: a sharp-edged soliton.
* A2 - left edge finite, right end extends to +infinity with f -> 0.
* A3 - left edge finite, f grows without bound as s -> +infinity.
* A4 - mirror of A3: right edge finite, growth as s -> -infinity.
* SaturatedFrontConcave / SaturatedFrontConvex - finite-width fronts
  joining the two admissible-slope boundaries, log-concave (resp.
  log-convex) in S.
* Unclassified - no label derived, or measurement contradicts the
  predicted label.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import (
    NUMERICAL_FAILURES,
    DegenerateError,
    DenominatorVanished,
    PreconditionError,
    RegimeViolation,
)
from .flux import g_inverse
from .integrate import (
    BACKWARD,
    CONVERGED,
    FLUX_BOUNDARY_HIGH,
    FLUX_BOUNDARY_LOW,
    FORWARD,
    V_BLOW_UP_MINUS,
    V_BLOW_UP_PLUS,
    W_VANISHED,
    ArrayField,
    Controls,
    Trajectory,
    built_with_arrays,
    integrate,
    integrate_graph_W,
    merge_trajectories,
    sample_list,
)
from .phase import ModelParams, check_density, equilibrium_points, regime_case
from .shooting import (
    REGIME_BACKWARD,
    REGIME_FORWARD,
    classify_trajectory,
    find_w0_star,
    is_subcritical,
    shooting_regime,
    supplied_threshold,
    threshold_trajectory,
)

if TYPE_CHECKING:
    import numpy as np

# Profile type labels.
TYPE_A1 = "A1"
TYPE_A2 = "A2"
TYPE_A3 = "A3"
TYPE_A4 = "A4"
TYPE_UNCLASSIFIED = "Unclassified"
SATURATED_FRONT_CONCAVE = "SaturatedFrontConcave"
SATURATED_FRONT_CONVEX = "SaturatedFrontConvex"

# Endpoint slope categories for u at the finite edges of a soliton.
SLOPE_PLUS_INF = "+inf"  # u rises vertically off the left edge
SLOPE_MINUS_INF = "-inf"  # u drops vertically into the right edge
SLOPE_FINITE_POS = "finite-positive"
SLOPE_FINITE_NEG = "finite-negative"
SLOPE_ZERO = "zero"  # tangential contact
_SLOPE_BAND = 0.1  # an edge exponent rho within this of 1 is a finite slope

# Fraction of the profile maximum treated as "vanished": when verifying
# type labels against the sampled data, and when deciding that an end is
# vacuum, where the zero-density far-field continuation applies.
_VANISH_FRACTION = 0.05

# A launch density within this relative distance of w0_star is exactly critical.
_CRITICAL_REL = 1e-9

# The largest argument at which math.exp is finite.
_EXP_MAX = math.log(sys.float_info.max)


@dataclass
class WaveProfile:
    """Sampled physical wave (u, S) with its orbit and classification.

    The five sample fields are ArrayFields: they read as ndarrays, built
    on first read.
    """

    s: np.ndarray = ArrayField()
    u: np.ndarray = ArrayField()  # cell density u = w * S
    S: np.ndarray = ArrayField()  # signal
    w: np.ndarray = ArrayField()  # density-to-signal ratio u / S
    v: np.ndarray = ArrayField()  # signal log-slope (ln S)'
    s_minus: float | None  # left profile edge (None: undetermined)
    s_plus: float | None  # right profile edge
    u_type: str = TYPE_UNCLASSIFIED  # taxonomy label for u
    S_type: str = TYPE_UNCLASSIFIED  # taxonomy label for S
    endpoint_slopes: dict | None = None  # see endpoint_slopes()
    anchors: dict | None = None  # normalization actually applied
    end_limits: dict | None = None  # measured u, S at finite edges
    end_events: tuple | None = None  # the orbit's events at (s[0] end, s[-1] end)


def reconstruct(
    p: ModelParams,
    traj: Trajectory,
    s0: float = 0.0,
    S0: float = 1.0,
    u_type: str = TYPE_UNCLASSIFIED,
    S_type: str = TYPE_UNCLASSIFIED,
) -> WaveProfile:
    """Turn an orbit into the physical profile (u, S).

    The signal is normalized to S(s0) = S0 with s0 inside the sampled
    span, so the density there is u0 = w(s0)*S0 (``anchors``): at an
    orbit's launch coordinate, w0*S0.  A non-finite s0 or S0, or S0 <= 0,
    raises PreconditionError.  Labels are attached verbatim; use
    classify_profile to derive them.  Raises OverflowError, naming the
    first such s, where S leaves the float range.
    """
    _check_normalization(s0, S0)
    # a graph leg's samples are arrays, and stay arrays: see _signal
    names = ("s", "w", "integral", "v")
    if built_with_arrays([traj], names):
        s, w, ii, v = (getattr(traj, name) for name in names)
    else:
        s, w, ii, v = (sample_list(traj, name) for name in names)
    if not s[0] <= s0 <= s[-1]:
        raise ValueError(
            f"anchor s0 = {s0!r} outside the sampled span [{s[0]!r}, {s[-1]!r}]"
        )
    w_at = float(_interp(s0, s, w))
    u, S = _signal(s, w, ii, float(_interp(s0, s, ii)), S0)

    end_limits: dict = {}
    if traj.s_minus is not None and math.isfinite(traj.s_minus):
        end_limits["u_at_s_minus"] = float(u[0])
        end_limits["S_at_s_minus"] = float(S[0])
    if traj.s_plus is not None and math.isfinite(traj.s_plus):
        end_limits["u_at_s_plus"] = float(u[-1])
        end_limits["S_at_s_plus"] = float(S[-1])

    return WaveProfile(
        s=s,
        u=u,
        S=S,
        w=w,
        v=v,
        s_minus=traj.s_minus,
        s_plus=traj.s_plus,
        u_type=u_type,
        S_type=S_type,
        anchors={"s0": float(s0), "S0": float(S0), "u0": float(w_at * S0)},
        end_limits=end_limits or None,
        end_events=traj.end_events(),
    )


def _signal(s, w, ii, i0: float, S0: float):
    """(u, S) with S = S0*exp(I - I0) and u = w*S at every sample.

    An orbit's samples are lists, computed with math.exp, so an orbit's
    profile never loads numpy.  A graph leg's are arrays, computed
    vectorised: a Python loop over a front's 2 x 2049 samples would cost
    more than the rest of building its profile.  Raises OverflowError
    naming the first s at which S leaves the float range.
    """
    if isinstance(ii, list):
        try:
            S = [S0 * math.exp(x - i0) for x in ii]
        except OverflowError:
            S = None
        if S is not None and math.inf not in S:
            return list(map(operator.mul, w, S)), S
        # math.exp is finite up to _EXP_MAX
        lost = next(
            sk for sk, x in zip(s, ii) if x - i0 > _EXP_MAX or S0 * math.exp(x - i0) == math.inf
        )
    else:
        import numpy as np

        with np.errstate(over="ignore"):
            S = S0 * np.exp(ii - i0)
        if not np.isinf(S).any():
            return w * S, S
        lost = float(s[np.argmax(np.isinf(S))])
    raise OverflowError(f"signal S = S0*exp(I - I0) leaves the float range at s = {lost!r}")


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    """numpy.interp(x, xs, ys) at one x, xs ascending, to the bit."""
    j = bisect.bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j == len(xs) - 1 or xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    y = slope * (x - xs[j]) + ys[j]
    if math.isnan(y):
        # numpy retries from the right end, then takes a flat segment's value
        y = slope * (x - xs[j + 1]) + ys[j + 1]
        if math.isnan(y) and ys[j] == ys[j + 1]:
            y = ys[j]
    return y


def check_anchor(
    w0: float, s0: float = 0.0, S0: float = 1.0, u0: float | None = None
) -> None:
    """Reject a profile anchor that cannot give a finite profile.

    The launch density ratio w0 and the signal normalization S0 must be
    densities (`check_density`) and the launch coordinate s0 finite.  The
    density at the launch is w0*S0 by definition, so a given u0 must equal
    it to 1e-9 relative.  Raises PreconditionError; integrates nothing.
    """
    check_density("w0", w0)
    _check_normalization(s0, S0)
    if u0 is not None and not abs(u0 / S0 - w0) <= 1e-9 * w0:
        raise PreconditionError(f"anchor density u0 must equal w0*S0 = {w0 * S0!r}, got {u0!r}")


def _check_normalization(s0: float, S0: float) -> None:
    check_density("S0", S0)
    if not math.isfinite(s0):
        raise PreconditionError(f"anchor coordinate s0 must be finite, got {s0!r}")


def wave_trajectory(
    p: ModelParams,
    w0: float,
    v0: float,
    controls: Controls | None = None,
    s0: float = 0.0,
) -> Trajectory:
    """The full orbit through (w0, v0) at s0: backward and forward legs merged.

    A leg that ends CONVERGED carries `equilibrium_index` into `equilibria(p)`.
    """
    ctr = controls if controls is not None else Controls()
    back = integrate(p, w0, v0, direction=BACKWARD, controls=ctr, s0=s0)
    fwd = integrate(p, w0, v0, direction=FORWARD, controls=ctr, s0=s0)
    return merge_trajectories([back, fwd])


def graph_trajectory(
    p: ModelParams,
    w0: float,
    v0: float,
    s0: float = 0.0,
    controls: Controls | None = None,
    n_samples: int = 2049,
) -> Trajectory:
    """The orbit through (w0, v0) at s0 traced as a graph W(v).

    Both legs run from the anchor to the edges of the slope domain (the
    flux boundary, for a saturating limiter), carrying s from s0, and are
    merged in ascending s.  Raises what the graph solver raises,
    DenominatorVanished among it.
    """
    lo, hi = p.slope_domain
    legs = [
        integrate_graph_W(p, v0, w0, edge, controls=controls, n_samples=n_samples, s_start=s0)
        for edge in (hi, lo)
    ]
    # Above the balance parabola s decreases with v, so the high-slope leg
    # is the left half of the orbit; below, it is the right half.
    pieces = sorted((leg.trajectory() for leg in legs), key=lambda t: float(t.s[0]))
    return merge_trajectories(pieces)


def _label_matches(label: str, f: list[float], s_minus, s_plus, rates: list) -> bool | None:
    """Does the sampled data support the label?  None = cannot assess.

    `rates` are f's outward limit log-rates at the (s[0], s[-1]) ends, or
    None where unknown.  An end with a known rate vanishes or grows by its
    sign; any other end by its last sample.
    """
    fin_m = s_minus is not None and math.isfinite(s_minus)
    fin_p = s_plus is not None and math.isfinite(s_plus)
    f_max = max(f)

    def vanished(i: int) -> bool:
        return _vanished(f, i, rates[i])

    def grows(i: int) -> bool:
        if rates[i] is not None:
            return rates[i] > 0.0
        return f[i] >= 0.5 * f_max and f[i] > f[-1 - i]

    if label == TYPE_A1:
        if s_minus is None or s_plus is None:
            return None
        return bool(fin_m and fin_p and vanished(0) and vanished(-1))
    if label == TYPE_A2:
        if s_minus is None or s_plus is None:
            return None
        return bool(fin_m and s_plus == math.inf and vanished(-1))
    if label == TYPE_A3:
        if s_minus is None:
            return None
        far_ok = s_plus is None or s_plus == math.inf
        return bool(fin_m and far_ok and grows(-1))
    if label == TYPE_A4:
        if s_plus is None:
            return None
        far_ok = s_minus is None or s_minus == -math.inf
        return bool(fin_p and far_ok and grows(0))
    return None


def _vanished(f: list[float], i: int, rate: float | None) -> bool:
    """Does f vanish at its end i (0: s[0], -1: s[-1])?

    By the sign of the end's outward limit log-rate where it is known,
    else by the last sample being under a fraction of f's maximum.
    """
    if rate is not None:
        return rate < 0.0
    return f[i] <= _VANISH_FRACTION * max(f)


def _limit_rates(profile: WaveProfile, p: ModelParams) -> tuple[list, list]:
    """Outward limit log-rates of (u, S) at the (s[0], s[-1]) ends.

    An end CONVERGED on an axis equilibrium (0, v_e) has S'/S -> v_e and
    u'/u -> g(a*v_e - sigma), since w'/w = g(a*v - sigma) - v; there the
    tail's fate is that rate's sign, wherever the dwell stop cut the orbit.
    A W_VANISHED end takes the rates of the axis equilibrium that the axis
    flow v' = (lam - gamma*v^2)/gamma carries its v to: v_star forward from
    v > -v_star, -v_star backward from v < v_star.  Other ends get None.
    """
    u_rates, S_rates = [None, None], [None, None]
    lo, hi = p.slope_domain
    for i, (ev, outward) in enumerate(zip(profile.end_events or (None, None), (-1.0, 1.0))):
        if ev is None:
            continue
        if ev.kind == CONVERGED:
            w_e, v_e = equilibrium_points(p)[ev.equilibrium_index]
        elif ev.kind == W_VANISHED and outward * ev.v > -p.v_star:
            w_e, v_e = 0.0, outward * p.v_star
        else:
            continue
        if w_e == 0.0 and lo < v_e < hi:
            u_rates[i] = outward * g_inverse(p.limiter, p.a * v_e - p.sigma)
            S_rates[i] = outward * v_e
    return u_rates, S_rates


def _is_critical(w0: float, w0_star: float) -> bool:
    return abs(w0 - w0_star) <= _CRITICAL_REL * w0_star


def predicted_types(p: ModelParams, v0: float, w0: float, w0_star: float) -> tuple[str, str]:
    """The (u, S) taxonomy labels a launch (w0, v0) must produce.

    The launch density ratio w0 is compared against the critical value
    ``w0_star`` (equal within 1e-9 relative counts as exactly critical) and
    the launch slope picks the regime:

    * fast launch (v0 > v_star): super-critical -> (A1, A1); critical ->
      (A2, A2); sub-critical -> u decays or grows with the sign of
      (a*v_star - sigma)/mu, i.e. (A2, A3) or (A3, A3).
    * slow launch (v0 < -v_star, needs a < 1 and sigma < sigma_star):
      super-critical -> (A1, A1); at or below critical -> (A4, A4).
    """
    regime = shooting_regime(p, v0)
    check_density("w0", w0)
    check_density("w0_star", w0_star)

    critical = _is_critical(w0, w0_star)
    if regime == REGIME_BACKWARD:
        if not critical and w0 > w0_star:
            return (TYPE_A1, TYPE_A1)
        return (TYPE_A4, TYPE_A4)
    if critical:
        return (TYPE_A2, TYPE_A2)
    if w0 > w0_star:
        return (TYPE_A1, TYPE_A1)
    return (TYPE_A2 if _tail_rate(p) < 0.0 else TYPE_A3, TYPE_A3)


def _tail_rate(p: ModelParams) -> float:
    """The rate u'/u -> (a*v_star - sigma)/mu of a sub-critical fast launch's
    tail, which relaxes to the slow point (0, v_star) while S'/S -> v_star > 0.
    DegenerateError when it vanishes: the sub-critical type is not determined."""
    rate = (p.a * p.v_star - p.sigma) / p.limiter.mu
    if abs(rate) <= 1e-9 * (1.0 + abs(p.sigma)):
        raise DegenerateError(
            f"tail growth rate (a*v_star - sigma)/mu vanishes for a={p.a}, "
            f"sigma={p.sigma}; the sub-critical type is not determined"
        )
    return rate


def classify_profile(profile: WaveProfile, p: ModelParams, w0_star: float) -> tuple[str, str]:
    """Label (u, S) by the launch-density taxonomy, verified on the data.

    The labels follow predicted_types at the profile's anchor; each one
    is then checked against the measured endpoint limits, and a
    contradiction downgrades that component to Unclassified (flagged,
    never raised).  Ends truncated before any edge was reached cannot
    contradict a label and leave it standing.  An end that converged on an
    axis equilibrium, or whose w vanished, is judged by the sign of its
    limit rate (see `_limit_rates`), not by the last sample before the stop.
    """
    if profile.anchors is None:
        raise ValueError("profile carries no anchors; reconstruct it first")
    s0 = profile.anchors["s0"]
    w0 = profile.anchors["u0"] / profile.anchors["S0"]
    s, u, S, v = (sample_list(profile, name) for name in ("s", "u", "S", "v"))
    labels = predicted_types(p, _interp(s0, s, v), w0, w0_star)

    u_rates, S_rates = _limit_rates(profile, p)
    u_ok = _label_matches(labels[0], u, profile.s_minus, profile.s_plus, u_rates)
    s_ok = _label_matches(labels[1], S, profile.s_minus, profile.s_plus, S_rates)
    return (
        labels[0] if u_ok is not False else TYPE_UNCLASSIFIED,
        labels[1] if s_ok is not False else TYPE_UNCLASSIFIED,
    )


def endpoint_slopes(profile: WaveProfile, p: ModelParams) -> dict:
    """Categorize the one-sided slopes of u at the finite profile edges.

    The exponent rho in u ~ (distance to edge)^rho is the limit of
    (u'/u) * (s - edge), u'/u = g(a*v - sigma), read at each edge's end
    event (`profile.end_events`): at |v| = v_max on a blow-up (V_BLOW_UP_*),
    a/mu -/+ sigma/(mu*v_max) at s_minus and s_plus for linear flux.  On
    the flux boundary (FLUX_BOUNDARY_*) v reaches its edge at a finite rate
    while g grows like (distance)^(-1/p): u'/u is integrable, u jumps to
    u(edge) > 0 (`end_limits`) with a vertical slope, and rho = 0.  rho <
    0.9 is a diverging slope, |rho - 1| <= 0.1 a finite one (`_SLOPE_BAND`),
    rho > 1.1 a tangential contact.  A profile without two finite edges, or
    a finite edge without such an end event, raises ValueError.  The signal
    slope S' = S * v at the outermost samples tells a single interior
    signal maximum by its signs.
    """
    S, v = (sample_list(profile, name) for name in ("S", "v"))
    ends = profile.end_events or (None, None)

    def rho_at(name: str, edge, ev) -> float:
        if edge is None or not math.isfinite(edge):
            raise ValueError(f"endpoint slopes need finite profile edges; {name} = {edge!r}")
        if ev is not None and ev.kind in (V_BLOW_UP_MINUS, V_BLOW_UP_PLUS):
            # u'/u = g(a*v - sigma), and the edge is s - 1/v: s - edge is 1/v,
            # read without the cancellation of subtracting the two.  Both
            # factors change sign between the edges, so the product is the
            # outward exponent at either one.
            return g_inverse(p.limiter, p.a * ev.v - p.sigma) / ev.v
        if ev is not None and ev.kind in (FLUX_BOUNDARY_LOW, FLUX_BOUNDARY_HIGH):
            return 0.0
        raise ValueError(f"edge {name} = {edge!r} has no blow-up or flux-boundary end event")

    rho_m = rho_at("s_minus", profile.s_minus, ends[0])
    rho_p = rho_at("s_plus", profile.s_plus, ends[1])

    def categorize(rho: float, rising: bool) -> str:
        if rho < 1.0 - _SLOPE_BAND:
            return SLOPE_PLUS_INF if rising else SLOPE_MINUS_INF
        if rho <= 1.0 + _SLOPE_BAND:
            return SLOPE_FINITE_POS if rising else SLOPE_FINITE_NEG
        return SLOPE_ZERO

    return {
        "u_prime_at_s_minus": categorize(rho_m, rising=True),
        "u_prime_at_s_plus": categorize(rho_p, rising=False),
        "rho_minus": rho_m,
        "rho_plus": rho_p,
        "S_prime_at_s_minus": S[0] * v[0],
        "S_prime_at_s_plus": S[-1] * v[-1],
    }


def farfield_coefficients(
    p: ModelParams, S_b: float, Sp_b: float, s_b: float
) -> dict:
    """Continuation of the signal past a point where u is negligible.

    With u = 0 the signal obeys gamma*S'' = lam*S, so S continues as
    A*exp(k*s) + B*exp(-k*s) with k = v_star (or as a straight line when
    lam = 0).  Coefficients are matched to S(s_b) = S_b, S'(s_b) = Sp_b.
    Emitted as metadata; samples are never synthesized from it.
    """
    if p.lam == 0.0:
        return {"kind": "linear", "a0": S_b - Sp_b * s_b, "a1": Sp_b}
    k = p.v_star
    return {
        "kind": "exponential",
        "rate": k,
        "growing": 0.5 * (S_b + Sp_b / k) * math.exp(-k * s_b),
        "decaying": 0.5 * (S_b - Sp_b / k) * math.exp(k * s_b),
    }


def continuation_coefficients(profile: WaveProfile, p: ModelParams) -> dict:
    """Far-field coefficients beyond the sampled tail, per infinite end.

    Only an infinite end where the density vanishes admits the
    zero-density continuation (see farfield_coefficients); past a finite
    sharp edge the signal continues as identically zero (a slope jump,
    not a smooth solution), so no coefficients are reported there.  An end
    that converged on an axis equilibrium, or whose w vanished, vanishes by
    the sign of its limit rate (see `_limit_rates`), as in classify_profile.
    """
    out = {"at_s_minus": None, "at_s_plus": None}
    s, u, S, v = (sample_list(profile, name) for name in ("s", "u", "S", "v"))
    u_rates = _limit_rates(profile, p)[0]
    ends = (
        ("at_s_minus", profile.s_minus, 0),
        ("at_s_plus", profile.s_plus, -1),
    )
    for key, edge, idx in ends:
        if edge is None or math.isfinite(edge):
            continue
        if _vanished(u, idx, u_rates[idx]):
            out[key] = farfield_coefficients(p, S[idx], S[idx] * v[idx], s[idx])
    return out


def saturated_front(
    p: ModelParams,
    v0: float,
    w0: float,
    branch: str = "above",
    s0: float = 0.0,
    S0: float = 1.0,
    controls: Controls | None = None,
    n_samples: int = 2049,
    u0: float | None = None,
) -> WaveProfile:
    """Build a singular front spanning the whole admissible slope range.

    Saturating flux confines the slope to a bounded interval; a front is
    an orbit that runs from one end of that interval to the other in
    finite width, with the density slope diverging at both edges.  Two
    families exist:

    * ``branch="above"``: density stays above lam everywhere (validated
      on the computed graph), the slope decreases across the front, and
      ln S is concave.
    * ``branch="below"``: density stays under the balance parabola, which
      requires the whole slope interval to sit strictly inside
      (-v_star, v_star); the slope increases and ln S is convex.

    The anchor (v0, w0) at s0 fixes which front of the family is meant.  A
    precondition decidable from the parameters and the anchor (check_anchor:
    a u0 off w0*S0 too) raises PreconditionError before any integration; a
    front that fails while it is traced raises RegimeViolation.
    """
    if branch not in ("above", "below"):
        raise PreconditionError(f"branch must be 'above' or 'below', got {branch!r}")
    check_anchor(w0, s0, S0, u0)
    if not p.limiter.saturated:
        raise PreconditionError("fronts need a saturating flux limiter")
    p.check_slope(v0, "anchor slope v0")
    lo, hi = p.slope_domain
    lam, gamma = p.lam, p.gamma
    if branch == "above":
        if not w0 > lam:
            raise PreconditionError(
                f"the above-branch front needs anchor density > lambda = {lam!r}, got {w0!r}"
            )
    else:
        if not (lo > -p.v_star and hi < p.v_star):
            raise PreconditionError(
                "the below-branch front needs the admissible slope range "
                f"({lo!r}, {hi!r}) strictly inside (-v_star, v_star) = "
                f"({-p.v_star!r}, {p.v_star!r})"
            )
        if not w0 < lam - gamma * v0 * v0:
            raise PreconditionError(
                f"the below-branch front needs anchor density under the balance "
                f"parabola ({lam - gamma * v0 * v0!r} at v0 = {v0!r}), got {w0!r}"
            )

    try:
        traj = graph_trajectory(p, w0, v0, s0=s0, controls=controls, n_samples=n_samples)
    except DenominatorVanished as exc:
        raise RegimeViolation(
            f"no {branch}-branch front through (v0={v0!r}, w0={w0!r}): {exc}"
        ) from exc

    # Both legs end on an edge, with s running from one edge to the other,
    # and below the branch the graph field's floor on the denominator,
    # signed at the anchor, keeps every stage under the balance parabola.
    # Nothing keeps an above-branch leg over w = lam: its samples are checked.
    if branch == "above" and not traj.w.min() > lam:
        raise RegimeViolation(
            "traced orbit leaves the above-branch region (density dipped "
            "to lam or below); no front through this anchor"
        )
    label = SATURATED_FRONT_CONCAVE if branch == "above" else SATURATED_FRONT_CONVEX
    return reconstruct(p, traj, s0=s0, S0=S0, u_type=label, S_type=label)


def wave_profile(
    p: ModelParams,
    w0: float,
    v0: float,
    s0: float = 0.0,
    S0: float = 1.0,
    u0: float | None = None,
    w0_star: float | None = None,
    branch: str | None = None,
    controls: Controls | None = None,
) -> tuple[WaveProfile, float | None]:
    """The profile launched at (w0, v0) at s0, with the w0_star it used.

    Every kind launches at s0, where S = S0, so a given u0 must be w0*S0
    (check_anchor).  With ``branch`` set it is that branch's saturated
    front (see saturated_front), and w0_star is None.  Otherwise w0_star is
    the one given, or else solved with find_w0_star; a launch within the
    critical tolerance of predicted_types is the critical orbit
    (threshold_trajectory), any other the orbit through the launch point.
    The profile carries its labels and its endpoint_slopes, or None where
    an edge is infinite.  Anchors that cannot give a finite profile,
    w0_star given with ``branch``, and a fast launch whose sub-critical
    type is not determined (a*v_star = sigma) raise PreconditionError
    before any integration.
    """
    check_anchor(w0, s0, S0, u0)
    if branch is not None:
        if w0_star is not None:
            raise PreconditionError("w0_star is not meaningful for saturated fronts")
        prof = saturated_front(p, v0, w0, branch=branch, s0=s0, S0=S0, controls=controls)
        prof.endpoint_slopes = endpoint_slopes(prof, p)  # both edges are on the flux boundary
        return prof, None
    if shooting_regime(p, v0) == REGIME_FORWARD:
        _tail_rate(p)
    if w0_star is not None:
        thr = supplied_threshold(p, v0, w0_star)
    else:
        thr = find_w0_star(p, v0, controls=controls)
    if _is_critical(w0, thr.w0_star):
        traj = threshold_trajectory(p, v0, result=thr, controls=controls, s0=s0)
    else:
        traj = wave_trajectory(p, w0, v0, controls=controls, s0=s0)
    prof = reconstruct(p, traj, s0=s0, S0=S0)
    prof.u_type, prof.S_type = classify_profile(prof, p, thr.w0_star)
    try:
        prof.endpoint_slopes = endpoint_slopes(prof, p)
    except ValueError:
        prof.endpoint_slopes = None
    return prof, thr.w0_star


def _regime_case(p: ModelParams) -> str:
    try:
        return regime_case(p)
    except DegenerateError:
        return "Degenerate"


def portrait(
    p: ModelParams, seeds, controls: Controls | None = None
) -> tuple[str, list[Trajectory]]:
    """The regime case of p ("Degenerate" at sigma_star) and the full orbit
    through each seed (w0, v0).  A seed that `check_density` or
    `ModelParams.check_slope` refuses raises PreconditionError before any
    orbit is traced."""
    case = _regime_case(p)
    seeds = list(seeds)
    for w0, v0 in seeds:
        check_density("seed w0", w0)
        p.check_slope(v0, "seed slope v0")
    return case, [wave_trajectory(p, w0, v0, controls=controls) for w0, v0 in seeds]


def sweep(
    p: ModelParams,
    a_values,
    sigma_factors,
    v0_factor: float = 2.0,
    check_samples: int = 0,
    seed: int = 0,
    controls: Controls | None = None,
) -> list[dict]:
    """One row per grid point: p with each a, and sigma each factor times sigma_star.

    At a = 1, where sigma_star is 0, the factors multiply v_star instead.
    A row holds the regime case, the launch slope v0 = v0_factor * v_star,
    and find_w0_star's w0_star and method with the predicted types of a
    super-critical (2 w0_star), critical and sub-critical (w0_star / 2)
    launch; a numerical failure of the solve leaves w0_star None and its
    message in ``error``.  With check_samples > 0, ``checks`` counts how
    many classify_trajectory runs at random launches within a factor 4 of
    w0_star, drawn from ``seed`` and the point's index, fall on the right
    side.  The grid is built, and so its parameters validated, before any
    point runs; the points then run in this process, in grid order.  A
    sigma factor within 1e-9 of 1 (degenerate), a v0_factor outside
    (1, inf) or a check_samples not an int >= 0 raises PreconditionError first.
    """
    sigma_factors = list(sigma_factors)
    if any(abs(f - 1.0) <= 1e-9 for f in sigma_factors):
        raise PreconditionError(
            "sigma factors (--sigma-factors) must stay away from 1.0: sigma equal to the "
            "case-splitting value is degenerate for threshold work"
        )
    if not 1.0 < v0_factor < math.inf:
        raise PreconditionError(
            f"v0_factor (--v0-factor) must be finite and over 1, got {v0_factor!r}: "
            "the launch must lie outside the wave speeds"
        )
    if type(check_samples) is not int or check_samples < 0:
        raise PreconditionError(
            f"check_samples (--check-samples) must be a non-negative int, got {check_samples!r}"
        )
    points = []
    for a, f in itertools.product(a_values, sigma_factors):
        probe = replace(p, a=a)
        points.append(replace(probe, sigma=f * (probe.sigma_star or probe.v_star)))
    return [_sweep_point(point, v0_factor, check_samples, seed * 100003 + i, controls)
            for i, point in enumerate(points)]


def _sweep_point(
    p: ModelParams, v0_factor: float, n: int, rng_seed: int, controls: Controls | None
) -> dict:
    v0 = v0_factor * p.v_star
    row: dict = {"a": p.a, "sigma": p.sigma, "case": _regime_case(p), "v0": v0}
    try:
        thr = find_w0_star(p, v0, controls=controls)
    except NUMERICAL_FAILURES as exc:
        row.update(w0_star=None, method=None, types=None, error=f"{type(exc).__name__}: {exc}")
        return row
    row.update(w0_star=thr.w0_star, method=thr.method, error=None)

    def types_for(w0: float):
        try:
            return list(predicted_types(p, v0, w0, thr.w0_star))
        except NUMERICAL_FAILURES:
            return None

    row["types"] = {
        "super": types_for(2.0 * thr.w0_star),
        "critical": types_for(thr.w0_star),
        "sub": types_for(0.5 * thr.w0_star),
    }
    if n > 0:
        import random

        rng = random.Random(rng_seed)
        correct = 0
        for _ in range(n):
            w0 = thr.w0_star * math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))
            while abs(w0 - thr.w0_star) <= 1e-8 * thr.w0_star:
                w0 = thr.w0_star * math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))
            try:
                shot = classify_trajectory(p, w0, v0, controls=controls)
                ok = is_subcritical(shot.cls) == (w0 < thr.w0_star)
            except NUMERICAL_FAILURES:
                ok = False
            correct += int(ok)
        row["checks"] = {"n": n, "correct": correct}
    return row
