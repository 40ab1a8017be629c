"""The benchmark's modules, imported from bench/ as they are, for the tests that use them."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    # bench modules import their siblings (worker.py imports hostspeed.py) by name
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="session")
def worker():
    return _bench_module("worker")


@pytest.fixture(scope="session")
def tracing():
    return _bench_module("tracing")
