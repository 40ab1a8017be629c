"""Smoke test of the benchmark at its shortest length; it never checks timings.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Checks the schema of BENCHMARK.json, that every run prints each metric it
names with its unit, that no op fails on the default seed, and that the
benchmark refuses to run without the kswave sources.  It is not part of the
tier-1 suite: with the set-ups and the cli workload's 24 commands it takes
about two minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_DIR = BENCH / ".work" / "smoke"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--results", str(SMOKE_DIR / "results")],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][1].startswith(tuple(p + "/" for p in SPEC["paths"]))
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["threshold", "profiles", "cli"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> None:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if "ok_ratio" in result["metrics"]:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio == 0


def test_end_to_end_metrics():
    for w in SPEC["workloads"]:
        _check_result(_run(w["name"], 0), SPEC["end_to_end"])


def test_per_layer_metrics():
    for w in SPEC["workloads"]:
        _check_result(_run(w["name"], 1), SPEC["per_layer"])


def test_refuses_without_sources():
    bare = SMOKE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("threshold", 0, cwd=bare)
        assert proc.returncode != 0 and proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failed = 0
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                try:
                    fn()
                    print(f"PASS {name}")
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    raise SystemExit(1 if failed else 0)
