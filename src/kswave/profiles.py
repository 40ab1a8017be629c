"""Physical wave profiles (u, S) built on top of integrated orbits.

An orbit (w(s), v(s)) determines the physical profile only up to the
signal normalization: S = S0 * exp(I - I0) with I the accumulated
integral of v, and u = w * S.  This module reconstructs those profiles,
labels their asymptotic shape (types A1-A4 for the sharp-edge/tail
taxonomy, plus the saturated-front labels), measures endpoint slope
behaviour, and assembles the singular fronts that exist only for
saturating flux.

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
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    AnchorMismatch,
    DegenerateError,
    DenominatorVanished,
    InsufficientResolution,
    PreconditionError,
    RegimeViolation,
)
from .integrate import (
    BACKWARD,
    FORWARD,
    ArrayField,
    Controls,
    Trajectory,
    built_with_arrays,
    integrate,
    integrate_graph_W,
    merge_trajectories,
    sample_list,
)
from .phase import ModelParams
from .shooting import REGIME_BACKWARD, shooting_regime

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

# Fraction of the profile maximum treated as "vanished": when verifying
# type labels against the sampled data, and when deciding that an end is
# vacuum, where the zero-density far-field continuation applies.
_VANISH_FRACTION = 0.05

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


def reconstruct(
    p: ModelParams,
    traj: Trajectory,
    s0: float = 0.0,
    S0: float = 1.0,
    u0: float | None = None,
    u_type: str = TYPE_UNCLASSIFIED,
    S_type: str = TYPE_UNCLASSIFIED,
) -> WaveProfile:
    """Turn an orbit into the physical profile (u, S).

    The signal is normalized to S(s0) = S0 with s0 inside the sampled
    span; a non-finite s0, S0 or u0, or S0 <= 0, raises PreconditionError.
    A given ``u0`` is a consistency statement, not a knob: it must
    satisfy u0/S0 = w(s0) to 1e-9 or AnchorMismatch is raised.  Labels
    are attached verbatim; use classify_profile to derive them.  Raises
    OverflowError, naming the first such s, where S leaves the float range.
    """
    _check_normalization(s0, S0, u0)
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
    if u0 is not None and abs(u0 / S0 - w_at) > 1e-9 * max(1.0, abs(w_at)):
        raise AnchorMismatch(
            f"u0/S0 = {u0 / S0!r} does not match the orbit's density ratio "
            f"{w_at!r} at s0 = {s0!r}"
        )
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
    finite and positive, the anchor coordinate s0 and a given density u0
    finite.  Raises PreconditionError; integrates nothing.
    """
    if not 0.0 < w0 < math.inf:
        raise PreconditionError(
            f"launch density ratio w0 must be finite and positive, got {w0!r}"
        )
    _check_normalization(s0, S0, u0)


def _check_normalization(s0: float, S0: float, u0: float | None) -> None:
    if not 0.0 < S0 < math.inf:
        raise PreconditionError(
            f"signal normalization S0 must be finite and positive, got {S0!r}"
        )
    if not math.isfinite(s0):
        raise PreconditionError(f"anchor coordinate s0 must be finite, got {s0!r}")
    if u0 is not None and not math.isfinite(u0):
        raise PreconditionError(f"anchor density u0 must be finite, got {u0!r}")


def wave_trajectory(
    p: ModelParams,
    w0: float,
    v0: float,
    controls: Controls | None = None,
) -> Trajectory:
    """The full orbit through (w0, v0): backward and forward legs merged.

    A leg that ends CONVERGED carries `equilibrium_index` into `equilibria(p)`.
    """
    ctr = controls if controls is not None else Controls()
    back = integrate(p, w0, v0, direction=BACKWARD, controls=ctr)
    fwd = integrate(p, w0, v0, direction=FORWARD, controls=ctr)
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


def _label_matches(label: str, f: list[float], s_minus, s_plus) -> bool | None:
    """Does the sampled data support the label?  None = cannot assess."""
    fin_m = s_minus is not None and math.isfinite(s_minus)
    fin_p = s_plus is not None and math.isfinite(s_plus)
    f_max = max(f)

    def vanished(val: float) -> bool:
        return val <= _VANISH_FRACTION * f_max

    if label == TYPE_A1:
        if s_minus is None or s_plus is None:
            return None
        return bool(fin_m and fin_p and vanished(f[0]) and vanished(f[-1]))
    if label == TYPE_A2:
        if s_minus is None or s_plus is None:
            return None
        return bool(fin_m and s_plus == math.inf and vanished(f[-1]))
    if label == TYPE_A3:
        if s_minus is None:
            return None
        far_ok = s_plus is None or s_plus == math.inf
        return bool(fin_m and far_ok and f[-1] >= 0.5 * f_max and f[-1] > f[0])
    if label == TYPE_A4:
        if s_plus is None:
            return None
        far_ok = s_minus is None or s_minus == -math.inf
        return bool(fin_p and far_ok and f[0] >= 0.5 * f_max and f[0] > f[-1])
    return None


def predicted_types(
    p: ModelParams,
    v0: float,
    w0: float,
    w0_star: float,
    rel_tol: float = 1e-9,
) -> tuple[str, str]:
    """The (u, S) taxonomy labels a launch (w0, v0) must produce.

    The launch density ratio w0 is compared against the critical value
    ``w0_star`` (equal within ``rel_tol`` counts as exactly critical) and
    the launch slope picks the regime:

    * fast launch (v0 > v_star): super-critical -> (A1, A1); critical ->
      (A2, A2); sub-critical -> u decays or grows with the sign of
      (a*v_star - sigma)/mu, i.e. (A2, A3) or (A3, A3).
    * slow launch (v0 < -v_star, needs a < 1 and sigma < sigma_star):
      super-critical -> (A1, A1); at or below critical -> (A4, A4).
    """
    regime = shooting_regime(p, v0)
    if w0 <= 0.0:
        raise ValueError(f"launch density ratio must be positive, got {w0!r}")

    critical = abs(w0 - w0_star) <= rel_tol * w0_star
    if regime == REGIME_BACKWARD:
        if not critical and w0 > w0_star:
            return (TYPE_A1, TYPE_A1)
        return (TYPE_A4, TYPE_A4)
    if critical:
        return (TYPE_A2, TYPE_A2)
    if w0 > w0_star:
        return (TYPE_A1, TYPE_A1)
    # Sub-critical fast launch: the tail relaxes to the slow point
    # (0, v_star), where u'/u -> (a*v_star - sigma)/mu while
    # S'/S -> v_star > 0.
    rate = (p.a * p.v_star - p.sigma) / p.limiter.mu
    if abs(rate) <= 1e-9 * (1.0 + abs(p.sigma)):
        raise DegenerateError(
            f"tail growth rate (a*v_star - sigma)/mu vanishes for a={p.a}, "
            f"sigma={p.sigma}; the sub-critical type is not determined"
        )
    return (TYPE_A2 if rate < 0.0 else TYPE_A3, TYPE_A3)


def classify_profile(
    profile: WaveProfile,
    p: ModelParams,
    w0_star: float,
    rel_tol: float = 1e-9,
) -> tuple[str, str]:
    """Label (u, S) by the launch-density taxonomy, verified on the data.

    The labels follow predicted_types at the profile's anchor; each one
    is then checked against the measured endpoint limits, and a
    contradiction downgrades that component to Unclassified (flagged,
    never raised).  Ends truncated before any edge was reached cannot
    contradict a label and leave it standing.
    """
    if profile.anchors is None:
        raise ValueError("profile carries no anchors; reconstruct it first")
    s0 = profile.anchors["s0"]
    w0 = profile.anchors["u0"] / profile.anchors["S0"]
    s, u, S, v = (sample_list(profile, name) for name in ("s", "u", "S", "v"))
    labels = predicted_types(p, _interp(s0, s, v), w0, w0_star, rel_tol=rel_tol)

    u_ok = _label_matches(labels[0], u, profile.s_minus, profile.s_plus)
    s_ok = _label_matches(labels[1], S, profile.s_minus, profile.s_plus)
    return (
        labels[0] if u_ok is not False else TYPE_UNCLASSIFIED,
        labels[1] if s_ok is not False else TYPE_UNCLASSIFIED,
    )


def endpoint_slopes(
    profile: WaveProfile,
    p: ModelParams,
    band: float = 0.1,
    min_samples: int = 20,
) -> dict:
    """Categorize the one-sided slopes of u at the finite profile edges.

    The exponent rho in u ~ (distance to edge)^rho is the least-squares
    slope of log u against log distance over the last sampled decade of
    approach to each edge
    (raising InsufficientResolution below ``min_samples`` points there):
    rho < 1 - band means the slope diverges, |rho - 1| <= band a finite
    nonzero slope, rho > 1 + band a tangential contact.  Intended for
    compact-support (type A1) profiles, whose edges are both finite.
    The signal slope S' = S * v is reported at the outermost sample of
    each side; its signs distinguish a single interior signal maximum.
    """
    s, u, S, v = (sample_list(profile, name) for name in ("s", "u", "S", "v"))
    for name, edge in (("s_minus", profile.s_minus), ("s_plus", profile.s_plus)):
        if edge is None or not math.isfinite(edge):
            raise ValueError(
                f"endpoint slopes need finite profile edges; {name} = {edge!r}"
            )

    def fit_rho(d0: float, lo: int, hi: int, edge: float) -> float:
        # d0: the nearest sample's distance to the edge; s[lo:hi]: the samples
        # within 10 * d0 of it
        if d0 <= 0.0:
            raise InsufficientResolution("edge distance not positive; edge mislocated")
        if hi - lo < min_samples:
            raise InsufficientResolution(
                f"only {hi - lo} samples in the last decade of edge approach "
                f"(need {min_samples})"
            )
        log_d = [math.log(abs(x - edge)) for x in s[lo:hi]]
        return _ls_slope(log_d, list(map(math.log, u[lo:hi])))

    # s ascends, so the distance to an edge grows away from it and the
    # samples within 10 times the nearest distance are a run at that end
    s_m, s_p = profile.s_minus, profile.s_plus
    d_m, d_p = s[0] - s_m, s_p - s[-1]
    rho_m = fit_rho(d_m, 0, bisect.bisect_right(s, 10.0 * d_m, key=lambda x: x - s_m), s_m)
    rho_p = fit_rho(d_p, bisect.bisect_left(s, -10.0 * d_p, key=lambda x: x - s_p), len(s), s_p)

    def categorize(rho: float, rising: bool) -> str:
        if rho < 1.0 - band:
            return SLOPE_PLUS_INF if rising else SLOPE_MINUS_INF
        if rho <= 1.0 + band:
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


def _ls_slope(x: list[float], y: list[float]) -> float:
    """Slope of the least-squares line through the points (x, y)."""
    n = len(x)
    xm, ym = math.fsum(x) / n, math.fsum(y) / n
    dx = [xk - xm for xk in x]
    return math.fsum(a * (yk - ym) for a, yk in zip(dx, y)) / math.fsum(a * a for a in dx)


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

    Only an infinite end where the density has vanished admits the
    zero-density continuation (see farfield_coefficients); past a finite
    sharp edge the signal continues as identically zero (a slope jump,
    not a smooth solution), so no coefficients are reported there.
    """
    out = {"at_s_minus": None, "at_s_plus": None}
    s, u, S, v = (sample_list(profile, name) for name in ("s", "u", "S", "v"))
    u_max = max(u)
    ends = (
        ("at_s_minus", profile.s_minus, 0),
        ("at_s_plus", profile.s_plus, -1),
    )
    for key, edge, idx in ends:
        if edge is None or math.isfinite(edge):
            continue
        if u[idx] <= _VANISH_FRACTION * u_max:
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

    The anchor (v0, w0) fixes which front of the family is meant.  A
    precondition decidable from the parameters and the anchor (see also
    check_anchor) raises PreconditionError before any integration; a front
    that fails while it is traced raises RegimeViolation.
    """
    if branch not in ("above", "below"):
        raise ValueError(f"branch must be 'above' or 'below', got {branch!r}")
    check_anchor(w0, s0, S0)
    if not p.limiter.saturated:
        raise PreconditionError("fronts need a saturating flux limiter")
    lo, hi = p.slope_domain
    if not lo < v0 < hi:
        raise PreconditionError(
            f"anchor slope v0 = {v0!r} outside the admissible range ({lo!r}, {hi!r})"
        )
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

    # the checks run vectorised over the legs' 2 x n_samples samples
    import numpy as np

    if branch == "above":
        if not np.all(traj.w > lam):
            raise RegimeViolation(
                "traced orbit leaves the above-branch region (density dipped "
                "to lam or below); no front through this anchor"
            )
        if not np.all(np.diff(traj.v) < 0.0):
            raise RegimeViolation("above-branch front must have strictly decreasing slope")
        label = SATURATED_FRONT_CONCAVE
    else:
        if not np.all(traj.w < lam - gamma * traj.v * traj.v):
            raise RegimeViolation(
                "traced orbit leaves the below-branch region (density reached "
                "the balance parabola); no front through this anchor"
            )
        if not np.all(np.diff(traj.v) > 0.0):
            raise RegimeViolation("below-branch front must have strictly increasing slope")
        label = SATURATED_FRONT_CONVEX

    if not (
        traj.s_minus is not None
        and traj.s_plus is not None
        and math.isfinite(traj.s_minus)
        and math.isfinite(traj.s_plus)
        and traj.s_minus < traj.s_plus
    ):
        raise RegimeViolation(
            f"front edges not finite and ordered: ({traj.s_minus!r}, {traj.s_plus!r})"
        )
    if not (traj.w[0] > 0.0 and traj.w[-1] > 0.0 and np.all(np.isfinite(traj.w))):
        raise RegimeViolation("front density must stay finite and positive at the edges")

    return reconstruct(p, traj, s0=s0, S0=S0, u_type=label, S_type=label)
