"""CLI outputs: the README's commands write strict JSON, a NaN in a record or
an infinity in a CSV row is a numerical failure, and a failing sweep point
records an error row."""

from __future__ import annotations

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from kswave import cli
from kswave.profiles import reconstruct

README = Path(__file__).resolve().parents[1] / "README.md"

# A sub-critical profile, whose right end runs to +infinity.
SUBCRITICAL_PROFILE = ["profile", "--a", "1", "--sigma", "0.5", "--w0", "1", "--v0", "2"]


def readme_commands() -> list[list[str]]:
    """Argument lists of the `kswave ...` lines in the README's sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "kswave":
                commands.append(words[1:])
    return commands


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_readme_lists_six_commands():
    assert len(readme_commands()) == 6


COMMANDS = [*readme_commands(), SUBCRITICAL_PROFILE]


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)]
)
def test_command_writes_strict_json(argv, capsys, tmp_path):
    if "--out" in argv:
        argv = list(argv)
        argv[argv.index("--out") + 1] = str(tmp_path)
    else:
        argv = [*argv, "--out", str(tmp_path)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if out.lstrip().startswith("{"):
        strict_json(out)
    written = sorted(tmp_path.rglob("*.json"))
    assert written
    for path in written:
        strict_json(path.read_text(encoding="utf-8"))


def test_infinite_edges_are_strings(capsys, tmp_path):
    code = cli.main([*SUBCRITICAL_PROFILE, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    meta = strict_json((tmp_path / "profile_meta.json").read_text(encoding="utf-8"))
    assert meta["s_plus"] == "inf"
    assert math.isfinite(meta["s_minus"])


def test_nan_in_a_record_is_numerical_failure(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "continuation_coefficients",
        lambda *a, **kw: {"at_s_minus": math.nan, "at_s_plus": None},
    )
    code = cli.main(
        ["profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2",
         "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err
    assert list(tmp_path.iterdir()) == []  # not even the profile CSV


def test_nan_in_a_csv_column_is_numerical_failure(capsys, tmp_path, monkeypatch):
    def reconstruct_with_nan(*args, **kwargs):
        prof = reconstruct(*args, **kwargs)
        prof.u[len(prof.u) // 2] = math.nan
        return prof

    monkeypatch.setattr("kswave.profiles.reconstruct", reconstruct_with_nan)
    code = cli.main(
        ["profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2",
         "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure (FloatingPointError)" in err
    assert list(tmp_path.iterdir()) == []  # no profile.csv, no metadata


def test_infinity_in_a_csv_column_is_numerical_failure(capsys, tmp_path, monkeypatch):
    def reconstruct_with_inf(*args, **kwargs):
        prof = reconstruct(*args, **kwargs)
        prof.S[len(prof.S) // 2] = -math.inf
        return prof

    monkeypatch.setattr("kswave.profiles.reconstruct", reconstruct_with_inf)
    code = cli.main(
        ["profile", "--a", "1", "--sigma", "0.5", "--w0", "6", "--v0", "2",
         "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure (FloatingPointError): an infinity" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "model",
    [
        ["--a", "1.6024980396940909", "--sigma", "0.5864232362323301",
         "--w0", "0.7271359580227734", "--v0", "1.7270358029895085"],
        ["--a", "1.916632896441982", "--sigma", "0.9179461942936026",
         "--w0", "0.20252804242886685", "--v0", "1.0044997805933118"],
    ],
    ids=["a1.60", "a1.92"],
)
def test_signal_overflow_is_numerical_failure(model, capsys, tmp_path):
    # sub-critical A3 tails on which I - I0 passes 700 before the span ends
    code = cli.main(["profile", *model, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numerical failure (OverflowError): signal S")
    assert "at s = " in captured.err
    assert len(captured.err.splitlines()) == 1  # one line, no traceback
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_rtol_below_the_floor_fails_as_a_whole(capsys, tmp_path):
    # --rtol 1e-300 is under 100 * machine epsilon: a precondition of the
    # whole sweep, so it exits 2 before any point runs and writes nothing
    code = cli.main(
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5,1.5",
         "--rtol", "1e-300", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "rtol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_records_an_error_row_per_failing_point(capsys, tmp_path, monkeypatch):
    # every threshold solve overflows
    def overflow(*args, **kwargs):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr("kswave.profiles.find_w0_star", overflow)
    code = cli.main(
        ["sweep", "--a-values", "0.5,2", "--sigma-factors", "0.5,1.5",
         "--out", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 0
    rows = strict_json((tmp_path / "sweep.json").read_text(encoding="utf-8"))["points"]
    assert len(rows) == 4
    for row in rows:
        assert row["w0_star"] is None
        assert row["error"].startswith("OverflowError")


def test_sweep_points_run_with_the_config_file_controls(capsys, tmp_path):
    # a step budget of 5 leaves `shoot` Inconclusive (exit 3); each sweep
    # point runs with the same controls, so its solve fails the same way
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"controls": {"max_steps": 5}}), encoding="utf-8")
    code = cli.main(["shoot", "--config", str(cfg), "--a", "0.5", "--sigma", "0.1", "--v0", "2"])
    assert code == 3
    assert "Inconclusive" in capsys.readouterr().err
    code = cli.main(
        ["sweep", "--config", str(cfg), "--a-values", "0.5", "--sigma-factors", "0.5",
         "--out", str(tmp_path / "out")]
    )
    capsys.readouterr()
    assert code == 0
    (row,) = strict_json((tmp_path / "out" / "sweep.json").read_text(encoding="utf-8"))["points"]
    assert row["w0_star"] is None
    assert row["error"].startswith("Inconclusive")
