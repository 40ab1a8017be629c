"""Host-speed calibration: a fixed kernel timed next to every measured op.

On a shared host the CPU's speed drifts: the same op takes 1.0x to 1.8x as
long from one second to the next, and the average over a run moves by a
third between runs minutes apart.  So the benchmark times a kernel that
never touches kswave right before the first op and right after every op,
and reports each op's latency scaled to the host speed at which the kernel
takes its reference time:

    reported_ms = measured_ms * reference_ms / mean(kernel_ms before, kernel_ms after)

Set-up times are scaled the same way by the median kernel sample of the run.
Each workload uses the kernel closest to its own work:

* ``compute``: Python float arithmetic on tuples through closure calls (as
  in the DP54 stepper and the phase-plane right-hand side) and a few
  operations on small numpy arrays (as in the quadrature); about 3.5 ms.
* ``spawn``: a fresh interpreter that imports numpy, for ops that are whole
  processes (process start, module loading, shared libraries); about 0.13 s.

A change to kswave cannot change either kernel, so the scale moves only
with the host.  Run records keep the wall times and kernel samples too.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_STEPS = 3000
_X = np.linspace(0.0, 1.0, 64)


def _compute() -> None:
    def f(w, v):
        return v, -w * (1.0 + 0.1 * v * v) - 0.05 * v

    w, v = 1.0, 0.0
    h = 1e-2
    for _ in range(_STEPS):
        a1, b1 = f(w, v)
        a2, b2 = f(w + 0.5 * h * a1, v + 0.5 * h * b1)
        a3, b3 = f(w + 0.5 * h * a2, v + 0.5 * h * b2)
        a4, b4 = f(w + h * a3, v + h * b3)
        w, v = w + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4), v + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
    x = _X
    for _ in range(40):
        x = np.sqrt(x * x + 1e-3) * 0.5 + np.sort(x)[::-1] * 0.5


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


class Kernel:
    def __init__(self, name: str, body, reference_ms: float) -> None:
        self.name, self._body = name, body
        # Kernel time at the reference host speed: roughly its fastest reading
        # on the 2-vCPU Xeon VM the benchmark was built on (Python 3.11.7,
        # numpy 2.4.6).  A constant, so every commit is scaled to one speed.
        self.reference_ms = reference_ms

    def sample(self) -> float:
        """Milliseconds the kernel takes right now."""
        t = time.perf_counter()
        self._body()
        return (time.perf_counter() - t) * 1e3

    def scale(self, before: float, after: float) -> float:
        """Factor from a time measured between two samples to reference speed."""
        return self.reference_ms / (0.5 * (before + after))


KERNELS = {k.name: k for k in (Kernel("compute", _compute, 3.5),
                               Kernel("spawn", _spawn, 125.0))}
