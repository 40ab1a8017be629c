"""Compare two sets of benchmark runs: a parent commit against a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records that ``run.py --results DIR`` wrote.
Runs are grouped by (workload, trace) and paired by seed.  For every metric
of every workload this prints each side's median and quartiles, the ratio
change/parent with its base, the pairs the change won, and for end-to-end
metrics a verdict (choosing-metrics guide, section 8):

* improved   - the change wins at least 9/10 of the pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range;
* unresolved - the parent's own spread (IQR / median) is wider than the
               metric's bound, and not every change run beats every parent run;
* worse      - the change's median is worse than the parent's by more than
               the bound;
* no worse   - otherwise.

It also flags answer drift: ops with the same seed and position whose
fingerprints differ beyond 1e-9 relative, or whose inputs differ.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIFT_REL = 1e-9
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: [record, ...]}} from every record in directory."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), {}).setdefault(rec["seed"], []).append(rec)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * (mc - mp) > (q3 - q1):
        return "improved", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if mp != 0 and (q3 - q1) / abs(mp) > bound and not all_better:
        return "unresolved", wins
    if mp != 0 and -sign * (mc - mp) / abs(mp) > bound:
        return "worse", wins
    return "no worse", wins


def _values(by_seed: dict, name: str) -> dict:
    return {seed: [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            for seed, recs in by_seed.items()}


def _drift(a, b, path="") -> list[str]:
    if isinstance(a, float) and isinstance(b, float):
        scale = max(abs(a), abs(b))
        return [] if a == b or abs(a - b) <= DRIFT_REL * scale else [f"{path}: {a!r} -> {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a for d in _drift(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _drift(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path}: {a!r} -> {b!r}"]


def compare(parent: dict, change: dict, spec: dict) -> int:
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    drifted = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"== {workload}  trace {trace}  parent runs {sum(map(len, p_runs.values()))}  "
              f"change runs {sum(map(len, c_runs.values()))}  paired seeds {len(seeds)}")
        names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
        for name in names:
            pv, cv = _values(p_runs, name), _values(c_runs, name)
            p_all = [x for xs in pv.values() for x in xs]
            c_all = [x for xs in cv.values() for x in xs]
            if not p_all or not c_all:
                continue
            pairs = [pc for s in seeds for pc in zip(pv[s], cv[s])]
            p_q, c_q = quartiles(p_all), quartiles(c_all)
            unit = metric_spec[name]["unit"]
            ratio = c_q[1] / p_q[1] if p_q[1] else math.nan
            line = (f"   {name:<32} parent {p_q[1]:.6g} [{p_q[0]:.6g}, {p_q[2]:.6g}]  "
                    f"change {c_q[1]:.6g} [{c_q[0]:.6g}, {c_q[2]:.6g}] {unit}  "
                    f"ratio {ratio:.4f} (base: parent median {p_q[1]:.6g} {unit})")
            m = metric_spec[name]
            if "bound" in m:
                v, wins = verdict(p_all, c_all, pairs, m["better"], m["bound"])
                line += f"  won {wins}/{len(pairs)}  bound {m['bound']:g}  {v.upper()}"
            print(line)
        for seed in seeds:
            for p_rec, c_rec in zip(p_runs[seed], c_runs[seed]):
                for i, (po, co) in enumerate(zip(p_rec["ops"], c_rec["ops"])):
                    if po["input"] != co["input"]:
                        diffs = ["inputs differ: the benchmark itself changed"]
                    else:
                        diffs = _drift(po["fingerprint"], co["fingerprint"], "fingerprint")
                    if diffs:
                        drifted += 1
                        if drifted <= 10:
                            print(f"   DRIFT seed {seed} op {i}: {'; '.join(diffs[:3])}")
    print(f"answer drift beyond {DRIFT_REL:g} relative: {drifted} op(s)")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(Path(argv[0])), load(Path(argv[1])), spec)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
