"""Benchmark entry point: run one workload, verify its answers, print its metrics.

    python3 bench/run.py --workload {threshold,profiles,cli,all} --seed N \\
        --seconds S --trace {0,1} [--results DIR]

Run it from the root of a checkout.  There is no install step: the workers
import kswave from the checkout's ``src/`` through PYTHONPATH, which this
script sets for them.  It reads the metric names and units from
``BENCHMARK.json``.

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer ones.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (every op's input,
latency, verification result and answer fingerprint, plus the environment)
is written to the results directory for ``compare.py``.

Every time an end-to-end metric reports is scaled to one reference host
speed by the host-speed kernel samples taken right before and after it
(see ``hostspeed.py``).  A set-up is a fresh interpreter, so set-ups are
bracketed by samples of the ``spawn`` kernel.  The run records keep the
wall times as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("threshold", "profiles", "cli")
# Set-ups measured per untraced run; setup_s is their median.
SETUPS = 5
# A run must finish within this many seconds.
RUN_LIMIT_S = 170


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values beyond it."""
    xs = sorted(values)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def _spawn(env: dict, args: list[str], deadline: float) -> dict:
    stamp = time.monotonic()
    # Its own session, so a timeout can stop the commands and pool workers it started too.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args[:4], repr(stamp), *args[4:]],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(BENCH / ".work" / str(proc.pid), ignore_errors=True)
        fail(f"worker {args[:4]} did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"worker {args[:4]} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(spec: dict, env: dict, workload: str, seed: int, seconds: float,
                 trace: int, results: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    load = os.getloadavg()
    args = [workload, str(seed), repr(seconds), str(trace)]
    raw_setups, setups = [], []
    if not trace:
        spawn = hostspeed.KERNELS["spawn"]
        before = spawn.sample()
        for _ in range(SETUPS):
            raw_setups.append(_spawn(env, args + ["--setup-only"], deadline)["setup_s"])
            after = spawn.sample()
            setups.append(raw_setups[-1] * spawn.scale(before, after))
            before = after
    rec = _spawn(env, args, deadline)
    ops = rec["ops"]
    n = len(ops)
    raised = sum(1 for o in ops if o["error"] is not None)
    unverified = sum(1 for o in ops if o["check"] is not None)
    failed = raised + unverified

    if trace:
        have = rec["layers"]["metrics"]
        wanted = spec["per_layer"]
    else:
        ms = [o["ms"] for o in ops]
        tail_ms, tail_pct = tail(ms)
        have = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": 1e3 * n / sum(ms), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms", "percentile": tail_pct,
                           "beyond": 10, "ops": n},
            "ok_ratio": {"value": 1.0 - failed / n, "unit": "1"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{workload}: metric {m['name']} [{m['unit']}] not measured: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**rec["versions"], "nproc": os.cpu_count(), "loadavg_start": load,
                "machine": platform.machine(), "system": platform.system()},
        "setups_s": setups, "raw_setups_s": raw_setups, "metrics": metrics, "all_metrics": have,
        "kernel": rec.get("kernel"), "attempted": n, "raised": raised, "unverified": unverified,
        "layers": rec.get("layers"), "ops": ops,
    }
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-s{seed}-t{trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    _report(record, path)
    return record


def _report(rec: dict, path: Path) -> None:
    env = rec["env"]
    print(f"== {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']:g}  "
          f"trace {rec['trace']}")
    print(f"   python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  loadavg {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}")
    if not rec["trace"]:
        kernel = [k for o in rec["ops"] for k in o["kernel_ms"]]
        ref = hostspeed.KERNELS[rec["kernel"]].reference_ms
        print(f"   host speed: {rec['kernel']} kernel median {statistics.median(kernel):.4g} ms, "
              f"reference {ref:g} ms; times below are scaled to the reference")
    for name, m in rec["all_metrics"].items():
        note = ""
        if name == "setup_s":
            note = (f"median of {len(rec['setups_s'])} set-ups; wall time "
                    f"{statistics.median(rec['raw_setups_s']):.6g} s")
        elif name == "ops_per_s":
            note = f"{rec['attempted']} ops"
        elif name == "op_p50_ms":
            note = f"wall time {statistics.median(o['raw_ms'] for o in rec['ops']):.6g} ms"
        elif name == "op_tail_ms":
            note = f"p{m['percentile']:.1f}, {m['beyond']} ops beyond it, of {m['ops']}"
        elif name == "ok_ratio":
            n = rec["attempted"]
            note = (f"fail_ratio {(rec['raised'] + rec['unverified']) / n:.6g}: "
                    f"{rec['raised']} raised, {rec['unverified']} failed verification, "
                    f"of {n} attempted")
        print(f"   {name:<34} {m['value']:>12.6g} {m['unit']:<13} {note}")
    layers = rec["layers"]
    if layers:
        for name, why in sorted(layers["absent"].items()):
            print(f"   {name:<34} {'absent':>12} {'':<13} {why}")
        _self_time_report(layers)
    n = rec["attempted"]
    bad = [o for o in rec["ops"] if o["error"] or o["check"]]
    print(f"   verification: {n - len(bad)}/{n} ops verified")
    for o in bad[:5]:
        print(f"     FAILED {o['input']}: {o['error'] or o['check']}")
    print(f"   record: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")


def _self_time_report(layers: dict) -> None:
    by_layer: dict[str, float] = {}
    for name, ms in layers["self_ms"].items():
        layer = "bench" if name == "bench.op" else name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + ms
    op_ms = layers["traced_op_ms"]
    named = sum(ms for layer, ms in by_layer.items() if layer != "bench")
    overhead = layers["metrics"]["trace.overhead"]["value"]
    print(f"   self time per op by layer (traced op {op_ms:.3f} ms):")
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"     {layer:<12} {ms:10.3f} ms  {100 * ms / op_ms:5.1f} %")
    gap = 1.0 - named / op_ms
    verdict = "within" if gap <= max(overhead - 1.0, 0.0) + 0.01 else "OUTSIDE"
    print(f"   named layers add up to {named:.3f} ms of {op_ms:.3f} ms; the gap "
          f"{100 * gap:.2f} % is {verdict} the tracing overhead "
          f"{100 * (overhead - 1.0):.2f} % (+1 % slack)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH / "results",
                    help="directory for the full run records")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kswave" / "__init__.py").is_file():
        fail(f"no kswave sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    recs = [run_workload(spec, env, w, args.seed, seconds, args.trace, args.results)
            for w in names]
    failed = sum(r["raised"] + r["unverified"] for r in recs)
    if len(recs) == 1:
        metrics = recs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in recs for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in recs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
