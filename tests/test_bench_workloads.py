"""The benchmark's answer checks, run in process on round 0 of two workloads.

bench/worker.py is imported as it is, and only its workload classes are
used: each op of round 0 must pass the check the benchmark applies to it,
and the threshold solves of round 0 must stay within a classifier budget.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    # worker.py imports its sibling hostspeed.py by name
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name, n_ops", [("threshold", 16), ("profiles", 8)])
def test_round_zero_passes_its_checks(worker, name, n_ops):
    wl = worker.WORKLOADS[name](0)
    wl.prepare()
    ops = wl.round(0)
    assert len(ops) == n_ops
    for op in ops:
        assert wl.check(op, wl.summary(op, wl.run(op))) is None, wl.describe(op)


def test_threshold_seed_needs_few_classifications(worker, monkeypatch):
    # Work, not wall time: the manifold estimate seeds a bracket already at
    # the bisection width, so most solves classify just its two ends.
    from kswave import shooting

    calls = []
    original = shooting.classify_trajectory

    def counted(*args, **kwargs):
        calls[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(shooting, "classify_trajectory", counted)
    wl = worker.WORKLOADS["threshold"](0)
    wl.prepare()
    methods = []
    for op in wl.round(0):
        calls.append(0)
        methods.append(wl.run(op).method)
    assert len(calls) == 16
    assert statistics.median(calls) == 2
    assert max(calls) <= 20
    assert methods == ["Both"] * 16
