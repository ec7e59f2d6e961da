"""Machine speed probe: a fixed piece of work timed between a run's operations.

The reference machine is a virtual machine shared with other tenants. Its
speed for the same single-threaded work drifts by up to ±35% over minutes,
and a run of a few seconds cannot average such a phase out. So the
measuring process times :func:`probe` before each operation and once at the
end, and reports each operation timing at the reference speed: the raw
figure times :func:`factor`, ``REFERENCE_S`` over the median probe time of
the run. The probe runs no trapqa code, so a change to trapqa moves
the reported figures as much as it moves wall time, while a slow phase of
the machine slows the probe too. The raw figures and the factor go to the
run's result file.

The probe mixes the three kinds of work the workloads do: interpreted
Python with dictionary lookups, many numpy calls on small arrays, and a
numpy pass over arrays larger than the L2 cache.
"""

import statistics
import time

import numpy as np

#: Reference probe time, seconds: a fixed constant near the probe's time on
#: the reference machine (see README.md). Changing it rescales every figure.
REFERENCE_S = 0.018

_SMALL = np.linspace(0.1, 1.0, 64 * 79).reshape(64, 79)
_LARGE = np.linspace(0.1, 1.0, 1 << 20)
# outputs are allocated and touched once, so that the probe times neither
# the allocator nor first-touch page faults
_SMALL_OUT = _SMALL.copy()
_LARGE_OUT = _LARGE.copy()


def probe():
    """Seconds taken by the fixed work."""
    t = time.perf_counter()
    d = {}
    for i in range(40000):
        d[i & 255] = d.get(i & 255, 0) + i
    for _ in range(100):
        np.arctan2(_SMALL, _SMALL, out=_SMALL_OUT)
        _SMALL_OUT.sum()
    for _ in range(3):
        np.multiply(_LARGE, _LARGE, out=_LARGE_OUT)
        np.sqrt(_LARGE_OUT, out=_LARGE_OUT)
        _LARGE_OUT.sum()
    return time.perf_counter() - t


def factor(probes):
    """Scale from this run's speed to the reference speed."""
    return REFERENCE_S / statistics.median(probes)
