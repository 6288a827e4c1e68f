"""Fixed reference kernels that measure how fast the machine runs right now.

The host this benchmark runs on is shared, and its speed switches between
phases that differ by 20 to 50 % and last seconds to minutes, while the
process keeps running (no steal time shows).  A run of 15 seconds sits in
one or two such phases, so raw wall times of identical code spread by as
much between runs.  The worker therefore times a kernel between
operations and scales each operation's time by REF / (kernel time around
it): the reported times are seconds at the speed the machine had when REF
was measured, and a phase that slows the program and the kernel alike
cancels out.

A phase does not slow all code alike: interpreted Python slowed by 1.5x
where a 1024 x 1024 complex product slowed by 1.25x.  So each workload
names the kernel that resembles its own work:

- "mixed": interpreted Python, numpy calls on small arrays (the Jacobi
  rotations of opint.linalg), small complex products, and an elementwise
  pass with a gather over 128 x 128 arrays;
- "blas": one 384 x 384 complex matrix product (the Z_n quantization).

The kernels use numpy only and never import opint, so no change to the
program can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3  # kernel runs per sample; the sample is their median

_rng = np.random.default_rng(0)
_VEC = _rng.standard_normal(32)
_MAT = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_IDX = np.add.outer(np.arange(128), np.arange(128)) % 128
_BIG = _rng.standard_normal((384, 384)) + 1j * _rng.standard_normal((384, 384))


def _mixed() -> float:
    total = 0
    for i in range(20000):  # interpreted Python
        total += i * i % 7
    x = _VEC.copy()
    for _ in range(300):  # numpy calls on small arrays
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    m = _MAT
    for _ in range(8):  # BLAS complex matrix product
        m = (_MAT @ m) * 0.01
    phases = np.exp(2j * np.pi * _IDX / 128)  # elementwise pass and gather
    g = phases[_IDX, _IDX[0]]
    return total + float(x[0]) + float(m[0, 0].real) + float(g[0, 0].real)


def _blas() -> float:
    return float((_BIG @ _BIG)[0, 0].real)


# name: (kernel, REF wall seconds, REF CPU seconds).  The REF values are
# typical sample() times between the workloads' operations on a 2-vCPU
# Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, BLAS pinned to one
# thread, so that scaled times read close to wall times there.
KERNELS = {
    "mixed": (_mixed, 0.0070, 0.0070),
    "blas": (_blas, 0.0110, 0.0110),
}


def sample(kind: str) -> tuple[float, float]:
    """Wall and CPU seconds of one run of kernel `kind` now: the median of
    REPEATS runs."""
    kernel = KERNELS[kind][0]
    walls, cpus = [], []
    for _ in range(REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)
