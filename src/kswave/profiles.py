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

import math
from dataclasses import dataclass

import numpy as np

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
    Controls,
    Trajectory,
    integrate,
    integrate_graph_W,
    merge_trajectories,
)
from .phase import ModelParams
from .shooting import REGIME_BACKWARD, shooting_regime

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


@dataclass
class WaveProfile:
    """Sampled physical wave (u, S) with its orbit and classification."""

    s: np.ndarray
    u: np.ndarray  # cell density u = w * S
    S: np.ndarray  # signal
    w: np.ndarray  # density-to-signal ratio u / S
    v: np.ndarray  # signal log-slope (ln S)'
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
    are attached verbatim; use classify_profile to derive them.
    """
    _check_normalization(s0, S0, u0)
    s = np.asarray(traj.s, dtype=float)
    if not s[0] <= s0 <= s[-1]:
        raise ValueError(
            f"anchor s0 = {s0!r} outside the sampled span [{s[0]!r}, {s[-1]!r}]"
        )
    w_at = float(np.interp(s0, s, traj.w))
    if u0 is not None and abs(u0 / S0 - w_at) > 1e-9 * max(1.0, abs(w_at)):
        raise AnchorMismatch(
            f"u0/S0 = {u0 / S0!r} does not match the orbit's density ratio "
            f"{w_at!r} at s0 = {s0!r}"
        )
    i0 = float(np.interp(s0, s, traj.integral))
    S = S0 * np.exp(traj.integral - i0)
    u = traj.w * S

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
        w=np.asarray(traj.w, dtype=float),
        v=np.asarray(traj.v, dtype=float),
        s_minus=traj.s_minus,
        s_plus=traj.s_plus,
        u_type=u_type,
        S_type=S_type,
        anchors={"s0": float(s0), "S0": float(S0), "u0": float(w_at * S0)},
        end_limits=end_limits or None,
    )


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


def _label_matches(label: str, f: np.ndarray, s_minus, s_plus) -> bool | None:
    """Does the sampled data support the label?  None = cannot assess."""
    fin_m = s_minus is not None and math.isfinite(s_minus)
    fin_p = s_plus is not None and math.isfinite(s_plus)
    f_max = float(np.max(f))

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
    v0 = float(np.interp(s0, profile.s, profile.v))
    labels = predicted_types(p, v0, w0, w0_star, rel_tol=rel_tol)

    u_ok = _label_matches(labels[0], profile.u, profile.s_minus, profile.s_plus)
    s_ok = _label_matches(labels[1], profile.S, profile.s_minus, profile.s_plus)
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

    The exponent rho in u ~ (distance to edge)^rho is fit by log-log
    regression over the last sampled decade of approach to each edge
    (raising InsufficientResolution below ``min_samples`` points there):
    rho < 1 - band means the slope diverges, |rho - 1| <= band a finite
    nonzero slope, rho > 1 + band a tangential contact.  Intended for
    compact-support (type A1) profiles, whose edges are both finite.
    The signal slope S' = S * v is reported at the outermost sample of
    each side; its signs distinguish a single interior signal maximum.
    """
    s, u, S, v = profile.s, profile.u, profile.S, profile.v
    for name, edge in (("s_minus", profile.s_minus), ("s_plus", profile.s_plus)):
        if edge is None or not math.isfinite(edge):
            raise ValueError(
                f"endpoint slopes need finite profile edges; {name} = {edge!r}"
            )

    def fit_rho(d: np.ndarray) -> float:
        d0 = float(d.min())
        if d0 <= 0.0:
            raise InsufficientResolution("edge distance not positive; edge mislocated")
        window = d <= 10.0 * d0
        n = int(window.sum())
        if n < min_samples:
            raise InsufficientResolution(
                f"only {n} samples in the last decade of edge approach "
                f"(need {min_samples})"
            )
        return float(np.polyfit(np.log(d[window]), np.log(u[window]), 1)[0])

    rho_m = fit_rho(s - profile.s_minus)
    rho_p = fit_rho(profile.s_plus - s)

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
        "S_prime_at_s_minus": float(S[0] * v[0]),
        "S_prime_at_s_plus": float(S[-1] * v[-1]),
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

    Only an infinite end where the density has vanished admits the
    zero-density continuation (see farfield_coefficients); past a finite
    sharp edge the signal continues as identically zero (a slope jump,
    not a smooth solution), so no coefficients are reported there.
    """
    out = {"at_s_minus": None, "at_s_plus": None}
    u_max = float(np.max(profile.u))
    ends = (
        ("at_s_minus", profile.s_minus, 0),
        ("at_s_plus", profile.s_plus, -1),
    )
    for key, edge, idx in ends:
        if edge is None or math.isfinite(edge):
            continue
        if float(profile.u[idx]) <= _VANISH_FRACTION * u_max:
            out[key] = farfield_coefficients(
                p,
                float(profile.S[idx]),
                float(profile.S[idx] * profile.v[idx]),
                float(profile.s[idx]),
            )
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
