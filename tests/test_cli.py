"""Tests for the command-line frontend: exit codes, files, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from kswave import cli, profiles
from kswave.errors import StepSizeUnderflow


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestEquilibria:
    def test_three_records_with_labels(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "equilibria", "--a", "2", "--sigma", "0.5", "--gamma", "1",
            "--lambda", "1", "--limiter", "linear", "--mu", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        labels = [r["label"] for r in report["equilibria"]]
        assert len(labels) == 3
        assert labels.count("Saddle") == 2
        assert labels[1] in ("StableNode", "StableFocus")
        assert read_json(tmp_path / "equilibria.json") == report

    def test_two_records_for_unit_sensitivity(self, capsys):
        code, out, _ = run(capsys, "equilibria", "--a", "1", "--sigma", "0.5")
        assert code == 0
        assert len(json.loads(out)["equilibria"]) == 2

    def test_malformed_numeric_flag_names_the_flag(self, capsys):
        code, _, err = run(capsys, "equilibria", "--a", "abc", "--sigma", "0.5")
        assert code == 2
        assert "--a" in err

    def test_missing_model_flags(self, capsys):
        code, _, err = run(capsys, "equilibria")
        assert code == 2
        assert "config error" in err

    def test_out_path_blocked_by_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run(
            capsys, "equilibria", "--a", "2", "--sigma", "0.5", "--out", str(blocker)
        )
        assert code == 2
        assert "config error" in err
        assert "cannot write" in err


class TestPortrait:
    def test_case_b_grid_above_parabola(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "portrait", "--a", "0.5", "--sigma", "0.75",
            "--w-grid", "1.5,2.5", "--v-grid=-0.5,1.5",
            "--out", str(tmp_path),
        )
        assert code == 0
        index = read_json(tmp_path / "portrait" / "index.json")
        assert index["case"] == "B"
        assert len(index["seeds"]) == 4
        for seed in index["seeds"]:
            header, data = read_csv(tmp_path / "portrait" / seed["file"])
            assert header == ["s", "w", "v", "I"]
            w, v = data[:, 1], data[:, 2]
            # Above the balance parabola the slope decreases; once the
            # orbit dips under it the invariant no longer binds.
            above = w > 1.0 - v**2
            entry = len(v) if above.all() else int(np.argmin(above))
            assert np.all(np.diff(v[:entry]) < 0.0)
            assert seed["terminations"]["forward"] is not None
            assert seed["terminations"]["backward"] is not None

    def test_empty_grid(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "portrait", "--a", "0.5", "--sigma", "0.75",
            "--w-grid", "", "--v-grid", "1.0", "--out", str(tmp_path),
        )
        assert code == 2
        assert "config error" in err

    def test_underflow_without_fallback_is_numerical_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        def boom(*a, **kw):
            raise StepSizeUnderflow("forced")

        monkeypatch.setattr(profiles, "wave_trajectory", boom)
        # No flux has a graph fallback: saturated orbits end on the flux
        # boundary in s.
        code, _, err = run(
            capsys,
            "portrait", "--a", "1", "--sigma", "0.5",
            "--w-grid", "5.0", "--v-grid", "2.0", "--out", str(tmp_path),
        )
        assert code == 3
        assert "numerical failure" in err

        code, _, err = run(
            capsys,
            "portrait", "--a", "1", "--sigma", "0.5",
            "--limiter", "relativistic", "--c", "1",
            "--w-grid", "5.0", "--v-grid", "0.5", "--out", str(tmp_path),
        )
        assert code == 3


    def test_seed_outside_the_slope_domain_exits_2(self, capsys, tmp_path):
        # the relativistic slope domain here is about (2.0, 10.1)
        code, _, err = run(
            capsys,
            "portrait", "--a", "0.4396", "--sigma", "2.6648",
            "--limiter", "relativistic", "--c", "1.786",
            "--w-grid", "3.1602", "--v-grid=0.1586", "--out", str(tmp_path),
        )
        assert code == 2
        assert "slope domain" in err
        assert list(tmp_path.iterdir()) == []

    def test_huge_launch_density_exits_3(self, capsys, tmp_path):
        # v' is about -1e300 there: no initial step can be sized
        code, _, err = run(
            capsys,
            "portrait", "--a", "0.5", "--sigma", "1.0",
            "--w-grid", "1e300", "--v-grid=0.5", "--out", str(tmp_path),
        )
        assert code == 3
        assert "numerical failure (StepSizeUnderflow)" in err


class TestShoot:
    def test_dual_method_agreement(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "shoot", "--a", "1", "--sigma", "0.5", "--v0", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "Both"
        assert report["regime"] == "forward"
        assert report["w0_star"] == pytest.approx(2.8975654, rel=1e-6)
        assert read_json(tmp_path / "threshold.json") == report

    def test_backward_regime(self, capsys):
        code, out, _ = run(
            capsys, "shoot", "--a", "0.5", "--sigma", "0.3", "--v0=-2"
        )
        assert code == 0
        assert json.loads(out)["regime"] == "backward"

    def test_bracket_hint(self, capsys):
        code, out, _ = run(
            capsys,
            "shoot", "--a", "1", "--sigma", "0.5", "--v0", "2",
            "--bracket", "1", "10", "--method", "bisection",
        )
        assert code == 0
        assert json.loads(out)["method"] == "Bisection"

    def test_degenerate_speed_rejected(self, capsys):
        code, _, err = run(capsys, "shoot", "--a", "0.5", "--sigma", "0.5", "--v0", "2")
        assert code == 2
        assert "config error" in err

    def test_launch_between_wave_speeds_rejected(self, capsys):
        code, _, err = run(capsys, "shoot", "--a", "1", "--sigma", "0.5", "--v0", "0.5")
        assert code == 2
        assert "|v0|" in err

    def test_missing_v0(self, capsys):
        code, _, err = run(capsys, "shoot", "--a", "1", "--sigma", "0.5")
        assert code == 2


class TestProfile:
    def test_super_critical_types_in_metadata(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        meta = read_json(tmp_path / "profile_meta.json")
        assert (meta["u_type"], meta["S_type"]) == ("A1", "A1")
        assert math.isfinite(meta["s_minus"]) and math.isfinite(meta["s_plus"])
        assert meta["endpoint_slopes"]["u_prime_at_s_minus"] == "finite-positive"
        assert meta["continuation_coefficients"]["at_s_minus"] is None
        header, data = read_csv(tmp_path / "profile.csv")
        assert header == ["s", "u", "S"]
        assert np.all(data[:, 1] > 0) and np.all(data[:, 2] > 0)

    def test_critical_profile_via_supplied_threshold(self, capsys, tmp_path):
        code, out, _ = run(capsys, "shoot", "--a", "1", "--sigma", "0.5", "--v0", "2")
        w0_star = json.loads(out)["w0_star"]
        code, _, _ = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5",
            "--w0", repr(w0_star), "--v0", "2", "--w0-star", repr(w0_star),
            "--out", str(tmp_path),
        )
        assert code == 0
        meta = read_json(tmp_path / "profile_meta.json")
        assert (meta["u_type"], meta["S_type"]) == ("A2", "A2")
        assert meta["s_plus"] == "inf"
        cont = meta["continuation_coefficients"]["at_s_plus"]
        assert cont["kind"] == "exponential"
        assert abs(cont["growing"]) < 1e-6 * abs(cont["decaying"])

    def test_slow_decay_end_is_vacuum(self, capsys, tmp_path):
        # case B: the orbit stops at u_end / u_max = 0.08, but its CONVERGED
        # end's limit rate says u vanishes there, so the far field continues
        code, _, _ = run(
            capsys,
            "profile", "--a", "0.6", "--sigma", "0.7", "--w0", "0.5", "--v0", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        meta = read_json(tmp_path / "profile_meta.json")
        assert meta["u_type"] == "A2"
        cont = meta["continuation_coefficients"]
        assert cont["at_s_minus"] is None
        assert cont["at_s_plus"]["kind"] == "exponential"

    @pytest.mark.parametrize(
        "argv, u_type",
        [
            (("--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2"), "A1"),
            (("--a", "0.5", "--sigma", "0.3", "--w0", "5", "--v0", "-2"), "A1"),
            (("--a", "1", "--sigma", "0.5", "--w0", "1", "--v0", "2"), "A3"),
            (("--a", "0.5", "--sigma", "0.3", "--w0", "0.2", "--v0", "-2"), "A4"),
        ],
    )
    def test_no_vacuum_continuation_without_vanishing(self, capsys, tmp_path, argv, u_type):
        # finite edges and growing tails admit no zero-density continuation
        code, _, _ = run(capsys, "profile", *argv, "--out", str(tmp_path))
        assert code == 0
        meta = read_json(tmp_path / "profile_meta.json")
        assert meta["u_type"] == u_type
        assert meta["continuation_coefficients"] == {"at_s_minus": None, "at_s_plus": None}

    def test_saturated_front_mode(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5",
            "--limiter", "relativistic", "--c", "1",
            "--w0", "5", "--v0", "0.5", "--branch", "above",
            "--out", str(tmp_path),
        )
        assert code == 0
        meta = read_json(tmp_path / "profile_meta.json")
        assert meta["u_type"] == "SaturatedFrontConcave"
        # both walls are flux-boundary edges: a vertical slope and a jump
        slopes = meta["endpoint_slopes"]
        assert (slopes["u_prime_at_s_minus"], slopes["u_prime_at_s_plus"]) == ("+inf", "-inf")
        assert (slopes["rho_minus"], slopes["rho_plus"]) == (0.0, 0.0)
        assert meta["end_limits"]["u_at_s_minus"] > 0.0 and meta["end_limits"]["u_at_s_plus"] > 0.0
        assert meta["w0_star"] is None
        assert math.isfinite(meta["s_minus"]) and math.isfinite(meta["s_plus"])

    def test_larson_front_with_p_near_one(self, capsys, tmp_path):
        # m = p/(p-1) = 6: next to each edge v = v_edge - side*q^6 rounds to
        # the edge itself, so the front's slopes tie there, and s changes by
        # less than its rounding; it is still built, with s strictly rising
        code, _, err = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5",
            "--limiter", "larson", "--c", "1", "--p", "1.2",
            "--w0", "10", "--v0", "0.5", "--branch", "above",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        for name in ("profile.csv", "profile_meta.json"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert "NaN" not in text and "Infinity" not in text
        meta = read_json(tmp_path / "profile_meta.json")
        assert meta["u_type"] == "SaturatedFrontConcave"
        assert math.isfinite(meta["s_minus"]) and math.isfinite(meta["s_plus"])
        assert meta["s_minus"] < meta["s_plus"]
        _, data = read_csv(tmp_path / "profile.csv")
        assert np.all(np.isfinite(data)) and np.all(data[:, 1:] > 0.0)
        # where v ties at the edge, s changes by less than its rounding: the
        # samples where s would tie are dropped, so a difference quotient in s
        # never divides by zero
        assert np.all(np.diff(data[:, 0]) > 0.0)

    def test_front_anchor_statically_invalid(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5",
            "--limiter", "relativistic", "--c", "1",
            "--w0", "0.5", "--v0", "0.5", "--branch", "above",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "lambda" in err

    def test_front_failing_mid_trace_is_numerical(self, capsys, tmp_path):
        # Valid at the anchor, but the traced density dips below lam.
        code, _, err = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.1",
            "--limiter", "relativistic", "--c", "1",
            "--w0", "1.5", "--v0", "0.1", "--branch", "above",
            "--out", str(tmp_path),
        )
        assert code == 3
        assert "numerical failure" in err

    def test_inconsistent_u0_is_a_config_error(self, capsys, tmp_path):
        # the density at the launch is w0*S0, decided before any integration
        out = tmp_path / "out"
        code, _, err = run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2",
            "--u0", "7.5", "--out", str(out),
        )
        assert code == 2
        assert "u0 must equal w0*S0" in err
        assert not out.exists()


class TestSweep:
    def test_five_distinct_regime_labels(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "sweep", "--a-values", "0.5,1,2", "--sigma-factors", "0.5,1.5",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = read_json(tmp_path / "sweep.json")
        cases = {row["case"] for row in report["points"]}
        assert cases == {"A", "B", "C", "D", "E"}
        for row in report["points"]:
            assert row["w0_star"] > 0
            assert row["types"]["super"] == ["A1", "A1"]
            assert row["types"]["critical"] == ["A2", "A2"]
            assert row["types"]["sub"] in (["A2", "A3"], ["A3", "A3"])

    def test_classifier_spot_checks_and_determinism(self, capsys, tmp_path):
        argv = [
            "sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5",
            "--check-samples", "4", "--seed", "11",
        ]
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "one"))
        assert code == 0
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "two"))
        assert code == 0
        one = (tmp_path / "one" / "sweep.json").read_bytes()
        two = (tmp_path / "two" / "sweep.json").read_bytes()
        assert one == two
        for row in json.loads(one)["points"]:
            assert row["checks"] == {"n": 4, "correct": 4}

    def test_factor_one_rejected(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--a-values", "0.5", "--sigma-factors", "1.0"
        )
        assert code == 2
        assert "degenerate" in err

    def test_empty_grid_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--a-values", "", "--sigma-factors", "0.5")
        assert code == 2


class TestConfigFile:
    def test_config_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "a": 1.0,
                    "sigma": 0.5,
                    "limiter": {"kind": "relativistic", "c": 1.0},
                    "w0": 5.0,
                    "v0": 0.5,
                    "branch": "above",
                }
            )
        )
        code, _, _ = run(
            capsys, "profile", "--config", str(cfg), "--out", str(tmp_path / "base")
        )
        assert code == 0
        meta = read_json(tmp_path / "base" / "profile_meta.json")
        assert meta["anchors"]["u0"] == pytest.approx(5.0, rel=1e-9)

        code, _, _ = run(
            capsys,
            "profile", "--config", str(cfg), "--w0", "3",
            "--out", str(tmp_path / "over"),
        )
        assert code == 0
        meta = read_json(tmp_path / "over" / "profile_meta.json")
        assert meta["anchors"]["u0"] == pytest.approx(3.0, rel=1e-9)

    def test_unreadable_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "equilibria", "--config", str(bad))
        assert code == 2
        assert "config error" in err

    def test_identical_invocations_identical_bytes(self, capsys, tmp_path):
        argv = ["profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2"]
        run(capsys, *argv, "--out", str(tmp_path / "one"))
        run(capsys, *argv, "--out", str(tmp_path / "two"))
        for name in ("profile.csv", "profile_meta.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_csv_round_trips_bit_identically(self, capsys, tmp_path):
        run(
            capsys,
            "profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2",
            "--out", str(tmp_path),
        )
        path = tmp_path / "profile.csv"
        lines = path.read_text().strip().split("\n")
        _, data = read_csv(path)
        rebuilt = [",".join(repr(float(x)) for x in row) for row in data]
        assert rebuilt == lines[1:]
