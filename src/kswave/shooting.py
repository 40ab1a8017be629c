"""Shooting dichotomy: classify orbits and locate the critical mass parameter.

For a wave launched from ``(w0, v0)`` with ``|v0| > v_star`` there is a
single critical value ``w0_star`` separating two behaviours:

* above it the orbit escapes past the far slow-equilibrium and blows up in
  finite length (sharp-edged wave on that side);
* below it the orbit enters the region under the balance parabola
  ``w = lam - gamma*v**2`` and relaxes toward a slow equilibrium
  (exponential tail on that side).

The separating orbit is the invariant manifold of a saddle point, so the
threshold can be located two independent ways: bisection on the classifier
and direct tracing of the saddle manifold.  Both are implemented here and
cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    Inconclusive,
    NoDichotomy,
    PreconditionError,
    RegimeViolation,
    SeedEscaped,
    StepSizeUnderflow,
)
from .integrate import (
    BACKWARD,
    BOUNDED,
    CONVERGED,
    FLUX_BOUNDARY_HIGH,
    FLUX_BOUNDARY_LOW,
    FORWARD,
    MAX_SPAN,
    V_BLOW_UP_MINUS,
    V_BLOW_UP_PLUS,
    Controls,
    EventSpec,
    TerminationEvent,
    Trajectory,
    integrate,
    merge_trajectories,
    sample_list,
)
from .phase import (
    SADDLE,
    Equilibrium,
    ModelParams,
    eigenstructure,
    equilibrium_points,
    make_rhs,
    regime_case,
)

# Orbit classes recognised by the shooting classifier.
ENTERS_PARABOLA = "EntersParabola"  # dipped under the balance parabola (sub-critical)
ESCAPES_BELOW = "EscapesBelow"  # v dropped past -v_star (super-critical, forward runs)
ESCAPES_ABOVE = "EscapesAbove"  # v rose past +v_star (super-critical, backward runs)
CONVERGES_TO = "ConvergesTo"  # settled onto an equilibrium before any crossing

# Shooting regimes, selected by the sign of v0.
REGIME_FORWARD = "forward"  # v0 > v_star, integrate forward in s
REGIME_BACKWARD = "backward"  # v0 < -v_star, integrate backward in s

# Event kinds used internally by the classifier.
_EV_PARABOLA = "ParabolaCrossing"
_EV_ESCAPE = "EscapeMargin"
_EV_MANIFOLD_STOP = "ManifoldStop"

# Escape is declared this far beyond the slow speed; crossing there is
# irreversible because v' keeps its sign while w > 0.
_ESCAPE_MARGIN_REL = 1e-4
# The parabola crossing is armed slightly inside the parabola so that the
# near-threshold transit past a saddle sitting *on* the parabola cannot
# trigger it by numerical wobble.
_PARABOLA_MARGIN_REL = 1e-6

# Bisection target: relative bracket width on w0.
_BRACKET_REL = 1e-10
# Bracket walk: the relative offset grows by this factor per step, and the
# walk gives up past this offset.
_WALK_FACTOR = 4.0
_WALK_MAX_OFFSET = _WALK_FACTOR**13
# Bisection and manifold estimates must agree this tightly (relative) for
# the combined method to be reported.
_AGREEMENT_REL = 1e-6
# Seed offset of a manifold trace, relative to 1 + |saddle|: the default
# `seed_scale`, and the scale of the saddle's local expansion.
_SEED_SCALE = 1e-4


@dataclass(frozen=True)
class ShotOutcome:
    """Classification of one shooting run."""

    cls: str  # one of the orbit-class constants above
    # the integrated orbit, ending at the deciding event
    trajectory: Trajectory
    w0: float  # launch density
    v0: float  # launch slope
    equilibrium_index: int | None = None  # into equilibria(p), when cls == ConvergesTo via dwell


@dataclass(frozen=True)
class ThresholdResult:
    """Critical launch density for a fixed launch slope."""

    v0: float  # launch slope
    w0_star: float  # critical launch density
    method: str  # "Bisection", "Manifold", or "Both" (cross-validated)
    bracket: tuple[float, float]  # final (sub, super) bracket from bisection
    classifier_tol: float  # relative bracket width achieved
    manifold_estimate: float | None  # w at the manifold's v0-crossing, if traced
    regime: str  # REGIME_FORWARD or REGIME_BACKWARD
    saddle: tuple[float, float]  # (w, v) of the saddle whose manifold separates


def shooting_regime(p: ModelParams, v0: float) -> str:
    """Pick the shooting regime for launch slope v0, validating preconditions.

    Raises PreconditionError when no shooting dichotomy applies: sigma on
    the critical speed (DegenerateError), v0 outside the slope domain (NaN
    and infinities included), |v0| <= v_star, or a slow launch outside case A.
    """
    case = regime_case(p)
    lo, hi = p.slope_domain
    if not lo < v0 < hi:
        raise PreconditionError(
            f"launch slope v0 = {v0!r} outside the slope domain ({lo!r}, {hi!r})"
        )
    if v0 > p.v_star:
        return REGIME_FORWARD
    if v0 < -p.v_star:
        if case != "A":
            raise PreconditionError(
                "backward shooting (v0 < -v_star) requires a < 1 and sigma < sigma_star; "
                f"got case {case} for a={p.a}, sigma={p.sigma}"
            )
        return REGIME_BACKWARD
    raise PreconditionError(
        f"launch slope v0 = {v0!r} must satisfy |v0| > v_star = {p.v_star!r}; "
        "no shooting dichotomy inside [-v_star, v_star]"
    )


def classify_trajectory(
    p: ModelParams,
    w0: float,
    v0: float,
    controls: Controls | None = None,
    stop_at_parabola: bool = True,
) -> ShotOutcome:
    """Classify the orbit launched from (w0, v0) for the shooting dichotomy.

    Forward regime (v0 > v_star): the orbit either dives under the balance
    parabola (sub-critical) or escapes below -v_star (super-critical).
    Backward regime (v0 < -v_star): integrated in reverse, the orbit either
    settles back toward (0, -v_star) / dips under the parabola, or escapes
    above +v_star.

    With ``stop_at_parabola`` the run halts at the first deciding event,
    which is what bisection wants; disable it to keep integrating a
    sub-critical orbit through the parabola region.  An orbit captured by
    an equilibrium carries ``equilibrium_index`` into ``equilibria(p)``.
    A capture by any equilibrium but the threshold saddle
    (`_threshold_saddle`) is ConvergesTo.  One in the threshold saddle's
    ball is decided by the side of its separatrix the orbit sits on: the
    displacement from the saddle is split along the two eigenvectors, and
    if its part along the one that grows in the integration direction
    points to the escape side (v falling when integrating forward, rising
    when integrating backward) the orbit takes the escape class, else
    ConvergesTo.  An orbit within the 1e-9 ball on the escape side has not
    yet had the span to leave it, and would.
    """
    if w0 <= 0.0:
        raise ValueError(f"w0 must be positive, got {w0}")
    regime = shooting_regime(p, v0)
    # w legitimately passes through tiny values while tracking an axis
    # saddle, so the small-density stop must be off for classification.
    ctr = _without_w_min(controls)

    lam, gamma, vstar = p.lam, p.gamma, p.v_star
    margin_v = _ESCAPE_MARGIN_REL * (1.0 + vstar)
    margin_e = _PARABOLA_MARGIN_REL * (1.0 + lam)

    events = []
    if stop_at_parabola:
        events.append(
            EventSpec(
                fn=lambda s, w, v: w - (lam - gamma * v * v) + margin_e,
                kind=_EV_PARABOLA,
                direction=-1,
            )
        )
    if regime == REGIME_FORWARD:
        direction = FORWARD
        escape_cls = ESCAPES_BELOW
        v_escape = -vstar - margin_v
        events.append(
            EventSpec(fn=lambda s, w, v: v - v_escape, kind=_EV_ESCAPE, direction=-1)
        )
    else:
        direction = BACKWARD
        escape_cls = ESCAPES_ABOVE
        v_escape = vstar + margin_v
        events.append(
            EventSpec(fn=lambda s, w, v: v - v_escape, kind=_EV_ESCAPE, direction=+1)
        )

    traj = integrate(p, w0, v0, direction=direction, controls=ctr, extra_events=events)
    term = traj.termination
    kind = term.kind

    if kind == _EV_PARABOLA:
        cls: str = ENTERS_PARABOLA
    elif kind == _EV_ESCAPE:
        cls = escape_cls
    elif kind == CONVERGED:
        cls = _capture_class(p, regime, direction, term, escape_cls)
    elif kind in (V_BLOW_UP_MINUS, V_BLOW_UP_PLUS):
        # The escape margin should always fire first; fall back gracefully.
        cls = ESCAPES_BELOW if kind == V_BLOW_UP_MINUS else ESCAPES_ABOVE
    elif kind in (MAX_SPAN, BOUNDED):
        raise Inconclusive(
            f"orbit from (w0={w0}, v0={v0}) reached the span limit without a deciding event"
        )
    elif kind in (FLUX_BOUNDARY_LOW, FLUX_BOUNDARY_HIGH):
        raise RegimeViolation(
            "orbit reached the admissible-slope boundary before a deciding event; "
            "the shooting dichotomy does not apply to this parameter set"
        )
    else:  # pragma: no cover - no other kinds exist today
        raise Inconclusive(f"unexpected termination kind {kind!r}")

    return ShotOutcome(
        cls=cls,
        trajectory=traj,
        w0=w0,
        v0=v0,
        equilibrium_index=term.equilibrium_index,
    )


def _without_w_min(controls: Controls | None) -> Controls:
    """`controls` (default Controls()) with the w_min stop off, copied only if it is on."""
    ctr = controls if controls is not None else Controls()
    return ctr if ctr.w_min == 0.0 else replace(ctr, w_min=0.0)


def _capture_class(p: ModelParams, regime: str, direction: str, term, escape_cls: str) -> str:
    """Class of an orbit that ended CONVERGED, by the rule of `classify_trajectory`."""
    try:
        saddle = _threshold_saddle(p, regime)
    except PreconditionError:
        return CONVERGES_TO
    if equilibrium_points(p)[term.equilibrium_index] != (saddle.w, saddle.v):
        return CONVERGES_TO
    vals, vecs = saddle.eigenvalues, saddle.eigenvectors
    grows = 0 if (vals[0].real > 0.0) == (direction == FORWARD) else 1
    (uw, uv), (ow, ov) = (x.real for x in vecs[grows]), (x.real for x in vecs[1 - grows])
    # the displacement is alpha * (uw, uv) + beta * (ow, ov); Cramer's rule gives alpha
    dw, dv = term.w - saddle.w, term.v - saddle.v
    alpha = (dw * ov - dv * ow) / (uw * ov - uv * ow)
    dv_grows = alpha * uv
    escaping = dv_grows < 0.0 if direction == FORWARD else dv_grows > 0.0
    return escape_cls if escaping else CONVERGES_TO


def is_subcritical(cls: str) -> bool:
    """Bisection side of an orbit class: True = at-or-below threshold."""
    return cls in (ENTERS_PARABOLA, CONVERGES_TO)


def _manifold_expansion(p: ModelParams, saddle, manifold: str, seed_scale: float):
    """The saddle's local `manifold` to third order, and its seed offset h.

    Returns (S, e, o, mu_m, (c, c3), (d, d3), h): the saddle S = (w, v),
    the manifold's unit eigenvector e with eigenvalue mu_m, the other one
    o, and the coefficients of x = S + xi*e + (c*xi**2 + c3*xi**3)*o +
    O(xi**4), on which the coordinate xi moves as xi' = mu_m*xi + d*xi**2 +
    d3*xi**3 + O(xi**4); h = seed_scale * (1 + |S|).
    """
    if isinstance(saddle, Equilibrium):
        ws, vs = saddle.w, saddle.v
        eigenvalues, eigenvectors, label = saddle.eigenvalues, saddle.eigenvectors, saddle.label
    else:
        ws, vs = float(saddle[0]), float(saddle[1])
        eigenvalues, eigenvectors, label = eigenstructure(p, saddle)
    if label != SADDLE:
        raise ValueError(f"manifold tracing needs a saddle, got {label}")
    idx = 0 if (eigenvalues[0].real < 0.0) == (manifold == "stable") else 1
    mu_m, mu_o = eigenvalues[idx].real, eigenvalues[1 - idx].real
    (ew, ev), (ow, ov) = ((x.real for x in eigenvectors[i]) for i in (idx, 1 - idx))
    h = seed_scale * (1.0 + math.hypot(ws, vs))
    # The field is J*(x - S) + H(x - S, x - S)/2 + O(|x - S|**3).  On the
    # manifold the o-component c*xi**2 moves at (mu_o*c + o*.H(e,e)/2)*xi**2
    # by the field and at 2*mu_m*c*xi**2 by xi' = mu_m*xi, so
    # c = o*.H(e,e) / (2*(2*mu_m - mu_o)); the e-component gives d = e*.H(e,e)/2.
    # H(e,e) is the field's second central difference over +-h along e, and
    # o* = (-ev, ew)/det, e* = (ov, -ow)/det are the dual rows of o and e.
    f = make_rhs(p)
    (fpw, fpv), (f0w, f0v), (fmw, fmv) = (f(ws + t * ew, vs + t * ev) for t in (h, 0.0, -h))
    hw, hv = (fpw - 2.0 * f0w + fmw) / h**2, (fpv - 2.0 * f0v + fmv) / h**2
    det = ew * ov - ev * ow
    c = (ew * hv - ev * hw) / (det * 2.0 * (2.0 * mu_m - mu_o))
    d = (ov * hw - ow * hv) / (2.0 * det)
    # On the quadratic manifold the field's xi**3 terms are d3 along e, and
    # r3 along o, halves of its odd central differences over +-h there less
    # mu_m*xi along e.  The o-component (c*xi**2 + c3*xi**3) moves at
    # mu_o*c3*xi**3 + r3*xi**3 by the field and at (2*c*d + 3*mu_m*c3)*xi**3
    # by xi', so c3 = (r3 - 2*c*d) / (3*mu_m - mu_o).
    (gpw, gpv), (gmw, gmv) = (
        f(ws + t * ew + c * t * t * ow, vs + t * ev + c * t * t * ov) for t in (h, -h)
    )
    dw, dv = (gpw - gmw) / (2.0 * h**3), (gpv - gmv) / (2.0 * h**3)
    d3 = (ov * dw - ow * dv) / det - mu_m / (h * h)
    c3 = ((ew * dv - ev * dw) / det - 2.0 * c * d) / (3.0 * mu_m - mu_o)
    return (ws, vs), (ew, ev), (ow, ov), mu_m, (c, c3), (d, d3), h


def trace_stable_manifold(
    p: ModelParams,
    saddle: Equilibrium | tuple[float, float],
    v_stop: float,
    manifold: str = "stable",
    controls: Controls | None = None,
    seed_scale: float = _SEED_SCALE,
) -> Trajectory:
    """Trace one branch of a saddle's invariant manifold out to v = v_stop.

    The stable manifold is grown in reverse time from a seed displaced
    ``seed_scale * (1 + |saddle|)`` along the contracting eigenvector (the
    unstable manifold in forward time along the expanding one), plus the
    manifold's quadratic term along the other eigenvector
    (`_manifold_expansion`), so the seed is off the manifold only at third
    order in the offset.  At rtol 1e-13 the crossing from the default 1e-4
    agrees with that from 1e-7 to a few 1e-13 relative, where a 1e-4 seed
    on the eigenvector alone misses by up to 1e-9; and the trace spends
    fewer steps leaving the saddle.  Both displacement signs are tried,
    first the one whose seed moves v toward ``v_stop``; if neither branch
    reaches ``v_stop`` the trace raises ``SeedEscaped``, also when a branch
    is captured by one of ``equilibria(p)`` first.  A ``v_stop`` between
    the saddle's v and a seed's, which the trace could never cross, halves
    the offset until no seed lies past it; a ``v_stop`` not finite or at
    the saddle's v raises PreconditionError before any integration.
    """
    if manifold not in ("stable", "unstable"):
        raise ValueError(f"manifold must be 'stable' or 'unstable', got {manifold!r}")
    if not math.isfinite(v_stop):
        raise PreconditionError(f"v_stop must be finite, got {v_stop!r}")
    (ws, vs), (ew, ev), (ow, ov), _, (c, _), _, h = _manifold_expansion(
        p, saddle, manifold, seed_scale
    )
    # Contracting directions are retraced backward in s, expanding ones forward.
    direction = BACKWARD if manifold == "stable" else FORWARD
    if v_stop == vs:
        raise PreconditionError(f"v_stop = {v_stop!r} is the saddle's v; no trace crosses it")

    toward = 1.0 if ev * (v_stop - vs) > 0.0 else -1.0
    while True:
        q = c * h * h
        seeds = [(sign, ws + sign * h * ew + q * ow, vs + sign * h * ev + q * ov)
                 for sign in (toward, -toward)]
        if not any(min(vs, v_seed) <= v_stop <= max(vs, v_seed) for _, _, v_seed in seeds):
            break
        h *= 0.5

    ctr = _without_w_min(controls)
    stop = EventSpec(
        fn=lambda s, w, v: v - v_stop,
        kind=_EV_MANIFOLD_STOP,
        direction=+1 if v_stop > vs else -1,
    )
    failures = []
    for sign, w_seed, v_seed in seeds:
        if w_seed <= 0.0:
            failures.append(f"sign {sign:+.0f}: seed density {w_seed} not positive")
            continue
        try:
            traj = integrate(
                p, w_seed, v_seed, direction=direction, controls=ctr, extra_events=[stop]
            )
        except (StepSizeUnderflow, Inconclusive) as exc:
            failures.append(f"sign {sign:+.0f}: {exc}")
            continue
        if traj.termination.kind == _EV_MANIFOLD_STOP:
            return traj
        failures.append(f"sign {sign:+.0f}: ended with {traj.termination.kind}")
    raise SeedEscaped(
        f"no {manifold}-manifold branch of the saddle at ({ws}, {vs}) reaches "
        f"v = {v_stop}: " + "; ".join(failures)
    )


def _threshold_saddle(p: ModelParams, regime: str) -> Equilibrium:
    """The saddle whose invariant manifold separates the two orbit classes.

    Decided from the equilibria alone, so a missing saddle raises
    PreconditionError before any integration: the first interior saddle of
    `equilibria(p)` in the backward regime and case A, else the axis saddle
    at v < 0.  Only the candidates' eigenstructure is computed.
    """
    interior = regime_case(p) == "A" or regime == REGIME_BACKWARD
    for w, v in equilibrium_points(p):
        if (w > 0.0) if interior else (w == 0.0 and v < 0.0):
            vals, vecs, label = eigenstructure(p, (w, v))
            if label == SADDLE:
                return Equilibrium(w, v, vals, vecs, label)
    if interior:
        raise PreconditionError(f"no interior saddle for a={p.a}, sigma={p.sigma}; cannot shoot")
    raise PreconditionError(
        f"no saddle at (0, -v_star) for a={p.a}, sigma={p.sigma}; cannot shoot"
    )


def find_w0_star(
    p: ModelParams,
    v0: float,
    bracket_hint: tuple[float, float] | None = None,
    method: str = "both",
    controls: Controls | None = None,
) -> ThresholdResult:
    """Locate the critical launch density w0_star for launch slope v0.

    ``method`` selects how: "bisection" refines a sub/super bracket on the
    classifier to relative width 1e-10; "manifold" reads the separating
    saddle manifold's crossing of v = v0 directly; "both" (default) traces
    the manifold first and then bisects on the classifier.

    Bisection starts from a bracket whose ends the classifier has found
    sub- and super-critical, and w0_star is the midpoint of the final
    bracket.  That bracket comes from one outward walk around a centre c
    at relative offset d.  Under "both" with a manifold estimate m, c = m
    and d = 0.49e-10, a bracket already under the 1e-10 width, so when its
    ends straddle the threshold no halving runs.  Otherwise (method
    "bisection", or no estimate) the walk starts from the ends of
    ``bracket_hint``, or of (lam/2, 2*lam), with c their geometric mean.
    Each step multiplies d by 4: a super-critical lower end becomes the
    upper end and c*(1 - d) (c/(1 + d) once d > 1/2) is classified; a
    sub-critical upper end becomes the lower end and c*(1 + d) is
    classified.  The first step of a walk from the estimate classifies at
    offset 3d in place of 4d, so that with the end at offset d it makes a
    bracket of width 2d = 0.98e-10 and no halving runs.  Past d = 4**13
    the walk raises NoDichotomy.  On 160 benchmark-style solves (the
    threshold workload's seed 0, rounds 0-9) this took 2 classifier runs
    in 147, 3 in 11 and 7 in 2.
    Method "Both" is reported only when the bisected threshold and m
    agree to 1e-6 relative, i.e. when the classifier confirms the
    manifold to that tolerance.  A v0 within the trace's default seed
    offset of the saddle is traced from a nearer seed (trace_stable_manifold).
    A bad method, launch slope, bracket_hint or missing saddle raises
    PreconditionError before any integration.
    """
    method = method.lower()
    if method not in ("bisection", "manifold", "both"):
        raise PreconditionError(
            f"method must be 'bisection', 'manifold', or 'both', got {method!r}"
        )
    regime = shooting_regime(p, v0)
    if bracket_hint is not None:
        lo, hi = float(bracket_hint[0]), float(bracket_hint[1])
        if not (0.0 < lo < hi < math.inf):
            raise PreconditionError(
                f"bracket_hint must satisfy 0 < lo < hi < inf, got {bracket_hint}"
            )
    elif p.lam > 0.0:
        lo, hi = 0.5 * p.lam, 2.0 * p.lam
    else:
        lo, hi = 0.5, 2.0
    # the classifier and the manifold trace both run with the w_min stop off
    ctr = _without_w_min(controls)
    saddle = _threshold_saddle(p, regime)
    manifold_kind = "stable" if regime == REGIME_FORWARD else "unstable"

    manifold_estimate: float | None = None
    if method in ("manifold", "both"):
        try:
            man = trace_stable_manifold(p, saddle, v0, manifold_kind, ctr)
        except SeedEscaped:
            if method == "manifold":
                raise
        else:
            manifold_estimate = man.termination.w

    if method == "manifold":
        assert manifold_estimate is not None
        return ThresholdResult(
            v0=v0,
            w0_star=manifold_estimate,
            method="Manifold",
            bracket=(manifold_estimate, manifold_estimate),
            classifier_tol=0.0,
            manifold_estimate=manifold_estimate,
            regime=regime,
            saddle=(saddle.w, saddle.v),
        )

    def side(w0: float) -> bool:
        """True when w0 classifies sub-critical."""
        return is_subcritical(classify_trajectory(p, w0, v0, controls=ctr).cls)

    # The bracket walk of the docstring.  Only the classifier decides the
    # bracket, so the cross-check against the manifold stays independent.
    if manifold_estimate is not None:
        c, d = manifold_estimate, 0.49 * _BRACKET_REL
        lo, hi = c * (1.0 - d), c * (1.0 + d)
        # the first step classifies at offset 3d, not 4d: with the end at
        # offset d that is a bracket of width 2d, under _BRACKET_REL
        first = 0.75
    else:
        c, d = math.sqrt(lo * hi), math.sqrt(hi / lo) - 1.0
        first = 1.0
    sub_lo, sub_hi = side(lo), side(hi)
    while not sub_lo or sub_hi:
        d *= _WALK_FACTOR
        offset, first = first * d, 1.0
        if d > _WALK_MAX_OFFSET:
            raise NoDichotomy(
                f"no sub-critical launch density found down to w0={lo} for v0={v0}"
                if not sub_lo
                else f"no super-critical launch density found up to w0={hi} for v0={v0}"
            )
        if not sub_lo:
            # c*(1 - d) would reach 0 as d grows; c/(1 + d) stays positive
            # and agrees with it to O(d**2)
            hi, sub_hi = lo, False
            lo = c * (1.0 - offset) if offset <= 0.5 else c / (1.0 + offset)
            sub_lo = side(lo)
        else:
            lo = hi
            hi = c * (1.0 + offset)
            sub_hi = side(hi)

    while hi - lo > _BRACKET_REL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted at float resolution
            break
        if side(mid):
            lo = mid
        else:
            hi = mid

    w0_star = 0.5 * (lo + hi)
    classifier_tol = (hi - lo) / hi
    result_method = "Bisection"
    if manifold_estimate is not None:
        agreement = abs(w0_star - manifold_estimate) / max(abs(w0_star), 1e-300)
        if agreement <= _AGREEMENT_REL:
            result_method = "Both"
    return ThresholdResult(
        v0=v0,
        w0_star=w0_star,
        method=result_method,
        bracket=(lo, hi),
        classifier_tol=classifier_tol,
        manifold_estimate=manifold_estimate,
        regime=regime,
        saddle=(saddle.w, saddle.v),
    )


def supplied_threshold(p: ModelParams, v0: float, w0_star: float) -> ThresholdResult:
    """ThresholdResult for a w0_star found earlier, with its saddle; integrates nothing."""
    regime = shooting_regime(p, v0)
    if not 0.0 < w0_star < math.inf:
        raise PreconditionError(f"w0_star must be a positive density, got {w0_star!r}")
    saddle = _threshold_saddle(p, regime)
    return ThresholdResult(
        v0=v0,
        w0_star=w0_star,
        method="supplied",
        bracket=(w0_star, w0_star),
        classifier_tol=0.0,
        manifold_estimate=None,
        regime=regime,
        saddle=(saddle.w, saddle.v),
    )


def threshold_trajectory(
    p: ModelParams,
    v0: float,
    result: ThresholdResult | None = None,
    controls: Controls | None = None,
) -> Trajectory:
    """Assemble the critical orbit through (w0_star, v0) as one trajectory.

    Direct integration from (w0_star, v0) toward the saddle falls off the
    separating manifold after a while, so the critical orbit is built from
    three pieces instead: the blow-up leg away from the launch point, the
    saddle manifold traced from its seed (find_w0_star's) to the launch
    point, and the piece from the seed into the saddle.  That piece is
    sampled, not integrated: the manifold's expansion S + xi*e + c*xi**2*o
    (`_manifold_expansion`) at xi halving from the seed's until |xi| is in
    the capture ball eq_tol * (1 + |S|), with s and I = integral of v ds
    from the manifold's expansion to third order in xi; it ends CONVERGED
    on the saddle.  The pieces are merged
    with seam checks (a mismatch raises ``AnchorMismatch``) and the wave
    coordinate is based so that the launch point (w0_star, v0) sits at
    s = 0 in either regime.
    """
    ctr = controls if controls is not None else Controls()
    if result is None:
        result = find_w0_star(p, v0, method="both", controls=ctr)
    forward = result.regime == REGIME_FORWARD
    saddle = _threshold_saddle(p, result.regime)
    kind = "stable" if forward else "unstable"
    # the blow-up leg: backward to v -> +inf (forward regime), else forward to v -> -inf
    leg_out = integrate(p, result.w0_star, v0, BACKWARD if forward else FORWARD, ctr)
    man = trace_stable_manifold(p, saddle, v_stop=v0, manifold=kind, controls=ctr)
    (ws, vs), (ew, ev), (ow, ov), mu, (c, c3), (d, d3), _ = _manifold_expansion(
        p, saddle, kind, _SEED_SCALE
    )
    # The seed is where the trace started: its last sample in s when it ran
    # backward (forward regime), else its first, at s = 0; then the piece
    # ends at the seed one manifold span before the launch point at s = 0.
    k = -1 if forward else 0
    dw, dv = sample_list(man, "w")[k] - ws, sample_list(man, "v")[k] - vs
    xi0 = (ov * dw - ow * dv) / (ew * ov - ev * ow)  # e*.(seed - S)
    s0 = 0.0 if forward else -sample_list(man, "s")[-1]
    # ds = dxi / xi' = (1 - d1*xi + d2*xi**2) * dxi / (mu*xi), and v - vs
    # = ev*xi + (c*xi**2 + c3*xi**3)*ov, both to third order, so I - vs*s
    # integrates i1 + i2*xi + i3*xi**2 over dxi / mu
    d1, d2 = d / mu, (d / mu) ** 2 - d3 / mu
    i1, i2, i3 = ev, c * ov - d1 * ev, c3 * ov - d1 * c * ov + d2 * ev
    xi, ball, cols = xi0, ctr.eq_tol * (1.0 + math.hypot(ws, vs)), ([], [], [], [])
    while True:
        x1, x2, x3 = xi - xi0, (xi * xi - xi0 * xi0) / 2.0, (xi**3 - xi0**3) / 3.0
        t = (math.log(xi / xi0) - d1 * x1 + d2 * x2) / mu
        q = c * xi * xi
        sample = (s0 + t, ws + xi * ew + q * ow, vs + xi * ev + q * ov,
                  vs * t + (i1 * x1 + i2 * x2 + i3 * x3) / mu)
        for col, x in zip(cols, sample):
            col.append(x)
        if abs(xi) <= ball or 0.5 * xi == 0.0:  # in the ball, or at the float floor
            break
        xi *= 0.5
    end = TerminationEvent(CONVERGED, *sample[:3], equilibrium_points(p).index((ws, vs)))
    if forward:
        tail = Trajectory(*cols, direction=FORWARD, termination=end, s_plus=math.inf)
        return merge_trajectories([leg_out, man, tail])
    cols = [col[::-1] for col in cols]
    tail = Trajectory(*cols, direction=BACKWARD, termination=end, s_minus=-math.inf)
    return merge_trajectories([tail, man, leg_out])
