"""Fixed reference kernels that measure the machine's current speed.

The benchmark runs on a shared host whose speed changes from one second
to the next: the same op can take twice as long a few seconds later,
and runs a few minutes apart differ by a third.  So the worker times a
reference kernel before the timed loop and after every op, and divides
each op's wall time by the mean of the two kernel times around it.
That ratio times ``NOMINAL_MS`` is the op's time at a fixed nominal
machine speed: the time it would take where the kernel takes
``NOMINAL_MS``.

The host's slow phases hurt interpreted Python and vectorized numpy
code by different amounts, so there are two kernels, and each workload
names the one that does its kind of work (``workloads.REFERENCE``):

* ``python``: scalar float arithmetic in small function calls, the
  kind of work the integrator does;
* ``array``: monomial sums over float arrays, the kind of work the
  sampled global check does.

The kernels live in the benchmark, not in the package, so a change to
the package never changes them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: kernel time that normalized times are scaled to, in ms; close to
#: both kernels' median on the 2-vCPU host the bounds were set on
NOMINAL_MS = 5.0


def _field(x: float, y: float) -> tuple[float, float]:
    return y, -x - 0.1 * y * (x * x - 1.0)


def python_kernel() -> float:
    """Midpoint-rule integration of a Van der Pol oscillator."""
    x, y, h = 1.0, 0.0, 1e-3
    for _ in range(10_000):
        k1 = _field(x, y)
        k2 = _field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
        x += h * k2[0]
        y += h * k2[1]
    return x


_X = np.linspace(-2.0, 2.0, 20_000)
_Y = np.linspace(1.0, -1.0, 20_000)


def array_kernel() -> float:
    """A sum of monomials of degree 3 and 5 over 20,000 points."""
    total = 0.0 * (_X + _Y)
    for p1, p2 in ((3, 0), (1, 2), (5, 0), (4, 1)):
        total = total + 0.7 * _X ** p1 * _Y ** p2
    return float(total[0])


KERNELS = {"python": python_kernel, "array": array_kernel}


def measure(kind: str) -> float:
    """Wall time of one run of the named kernel, in seconds."""
    kernel = KERNELS[kind]
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def normalize(seconds: float, ref_seconds: float) -> float:
    """A wall time in seconds, scaled to the nominal speed."""
    return seconds * NOMINAL_MS * 1e-3 / ref_seconds
