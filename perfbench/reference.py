"""Reference kernels that track the host's momentary CPU speed.

On small shared hosts the speed of one core drifts by +-30% over a few
seconds (same work, same process, wall time and CPU time alike), which no
amount of repetition inside one short run averages away.  The benchmark
therefore times a fixed kernel between operations and rescales each
operation's time by ``NOMINAL_S / local kernel time``: the result is the time
the operation would take on a host where the kernel takes ``NOMINAL_S``.

The kernels belong to the benchmark and never change with the program, so a
faster program still reads faster.  Each one mimics the instruction mix of
the work it normalises:

- ``interp``: interpreter-bound scalar code around small numpy reductions,
  like the quadrature and the RK4 / value-function code around it;
- ``array``: Philox normal draws and elementwise updates over 2000-path
  rows, like the Monte Carlo kernels.
"""

from __future__ import annotations

import math
import time

import numpy as np

# kernel times at the scale the benchmark reports in (a quiet 2-vCPU host)
NOMINAL_S = {"interp": 0.020, "array": 0.020}

_U = np.linspace(-3.0, 3.0, 193)
_Y = np.ones(2000)


def _interp():
    acc = 0.0
    for i in range(900):
        z = 0.01 * (i % 300) - 1.5
        e = -0.5 * _U * _U - z * _U + 0.3 * np.log1p(_U * _U)
        m = float(np.max(e))
        acc += m + math.log(float(np.sum(np.exp(e - m))))
        k = acc * 1e-9
        for j in range(8):
            k = (k * 0.5 + j) * 0.999 - k * k * 1e-6
        acc += k
    return acc


def _array():
    gen = np.random.Generator(np.random.Philox(key=7))
    noise = gen.standard_normal((2000, 96))
    x = np.zeros(2000)
    pay = np.zeros(2000)
    disc = 1.0
    for j in range(96):
        target = np.interp(x, _U, np.abs(_U))
        pay += disc * 0.01 * x * _Y
        x = x + 0.001 * ((1.0 - 0.15 * target) - x) + 0.05 * noise[:, j]
        disc *= 0.9995
    return float(pay.sum())


KERNELS = {"interp": _interp, "array": _array}


def sample(kind: str) -> float:
    """Run one kernel; returns its duration in seconds."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0
