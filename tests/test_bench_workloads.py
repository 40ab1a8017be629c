"""The benchmark's answer checks, run in process on round 0 of two workloads.

bench/worker.py is imported as it is, and only its workload classes are
used: each op of round 0 must pass the check the benchmark applies to it,
the threshold solves of round 0 must stay within a classifier budget, and
the profile ops of round 0 must take the pinned number of steps.
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


# Per op of profiles round 0 (seed 0): accepted steps and right-hand-side
# evaluations of every march the op runs, orbits, blow-up tails and graph
# legs together.  The evaluations are those the steps make, rejected steps
# included; event location and each march's start are not counted.
PROFILES_ROUND_0_WORK = [
    (333, 2214),
    (899, 5724),
    (338, 2040),
    (876, 5616),
    (430, 2598),
    (832, 4998),
    (467, 3138),
    (836, 5040),
]
# Round 0's accepted steps while blow-up ends were marched in s up to v_max.
PROFILES_ROUND_0_STEPS_IN_S = 9802


def test_profiles_work_is_pinned(worker, monkeypatch):
    # Work, not wall time: a change that makes the same answers cost more
    # steps or evaluations shows here.
    integrate = importlib.import_module("kswave.integrate")
    march = integrate._march
    work = []

    def counted(step, f, *args, **kwargs):
        def field(*x):
            work[-1][1] += 1
            return f(*x)

        for item in march(step, field, *args, **kwargs):
            work[-1][0] += 1
            yield item

    wl = worker.WORKLOADS["profiles"](0)
    wl.prepare()
    monkeypatch.setattr(integrate, "_march", counted)
    for op in wl.round(0):
        work.append([0, 0])
        wl.run(op)
    assert [tuple(w) for w in work] == PROFILES_ROUND_0_WORK
    # marching blow-up tails in ln|v| saves at least a third of the steps
    assert sum(steps for steps, _ in work) <= 2 * PROFILES_ROUND_0_STEPS_IN_S / 3
