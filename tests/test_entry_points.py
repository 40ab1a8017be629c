"""The library entry points of the CLI computations: `wave_profile`,
`portrait` and `sweep` in kswave.profiles."""

from __future__ import annotations

import math

import pytest

from kswave import profiles
from kswave.errors import PreconditionError
from kswave.flux import RELATIVISTIC, FluxLimiter
from kswave.integrate import Controls
from kswave.phase import ModelParams
from kswave.profiles import (
    SATURATED_FRONT_CONCAVE,
    TYPE_A2,
    portrait,
    sweep,
    wave_profile,
)

P = ModelParams(a=1.0, sigma=0.5)
W0_STAR = 2.897565419045996  # find_w0_star(P, 2.0) at the default controls
REL = ModelParams(a=1.0, sigma=0.5, limiter=FluxLimiter(RELATIVISTIC, c=1.0))


@pytest.fixture
def paths(monkeypatch):
    """Names of the orbit builders wave_profile calls, in call order."""
    calls = []
    for name in ("threshold_trajectory", "wave_trajectory"):
        fn = getattr(profiles, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(profiles, name, spy)
    return calls


class TestWaveProfile:
    def test_launch_within_the_critical_tolerance_is_the_critical_orbit(self, paths):
        prof, w0_star = wave_profile(P, W0_STAR * (1.0 + 5e-10), 2.0, w0_star=W0_STAR)
        assert paths == ["threshold_trajectory"]
        assert w0_star == W0_STAR
        assert (prof.u_type, prof.S_type) == (TYPE_A2, TYPE_A2)
        assert prof.endpoint_slopes is None  # the critical tail is infinite

    def test_launch_outside_the_critical_tolerance_is_its_own_orbit(self, paths):
        wave_profile(P, W0_STAR * (1.0 + 2e-9), 2.0, w0_star=W0_STAR)
        assert paths == ["wave_trajectory"]

    def test_threshold_is_solved_when_not_given(self, paths):
        prof, w0_star = wave_profile(P, 6.0, 2.0)
        assert paths == ["wave_trajectory"]
        assert w0_star == pytest.approx(W0_STAR, rel=1e-9)
        assert prof.endpoint_slopes["rho_minus"] == pytest.approx(1.0, rel=1e-3)

    def test_branch_builds_the_saturated_front(self, paths):
        prof, w0_star = wave_profile(REL, 5.0, 0.5, branch="above")
        assert paths == []
        assert w0_star is None
        assert (prof.u_type, prof.S_type) == (SATURATED_FRONT_CONCAVE,) * 2
        assert prof.endpoint_slopes["u_prime_at_s_minus"] == "+inf"
        assert prof.endpoint_slopes["u_prime_at_s_plus"] == "-inf"

    @pytest.mark.parametrize("extra", [{"u0": 5.0}, {"w0_star": 1.0}])
    def test_branch_refuses_orbit_anchors(self, paths, extra):
        with pytest.raises(PreconditionError, match="not meaningful"):
            wave_profile(REL, 5.0, 0.5, branch="above", **extra)
        assert paths == []


class TestPortrait:
    def test_degenerate_case_at_sigma_star(self):
        case, orbits = portrait(ModelParams(a=0.5, sigma=0.5), [(1.5, 1.0)])
        assert case == "Degenerate"
        assert len(orbits) == 1

    def test_seed_outside_the_slope_domain_is_refused_first(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an orbit was traced before every seed was checked")

        monkeypatch.setattr(profiles, "wave_trajectory", forbidden)
        lo, hi = REL.slope_domain
        with pytest.raises(PreconditionError, match="slope domain"):
            portrait(REL, [(5.0, 0.5), (5.0, hi + 0.1)])

    @pytest.mark.parametrize("w0", [0.0, -1.0, math.nan, math.inf])
    def test_seed_density_that_is_not_positive_is_refused_first(self, monkeypatch, w0):
        def forbidden(*args, **kwargs):
            raise AssertionError("an orbit was traced before every seed was checked")

        monkeypatch.setattr(profiles, "wave_trajectory", forbidden)
        with pytest.raises(PreconditionError, match="positive density"):
            portrait(REL, [(5.0, 0.5), (w0, 0.5)])


class TestSweep:
    def test_grid_is_validated_before_any_point_runs(self, monkeypatch):
        monkeypatch.setattr(profiles, "_sweep_point", None)  # any call would fail
        for a_values, factors in (([0.0, 1.0], [0.5]), ([0.5], [-0.5])):
            with pytest.raises(ValueError, match="must be positive"):
                sweep(P, a_values, factors)

    def test_points_run_with_the_given_controls(self):
        (row,) = sweep(P, [0.5], [0.5], controls=Controls(max_steps=5))
        assert row["w0_star"] is None
        assert row["error"].startswith("Inconclusive")
