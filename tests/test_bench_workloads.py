"""The benchmark's answer checks, run in process on round 0 of two workloads.

bench/worker.py is imported as it is, and only its workload classes are
used: each op of round 0 must pass the check the benchmark applies to it.
"""

from __future__ import annotations

import importlib
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
