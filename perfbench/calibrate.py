"""Reference kernels that measure how fast the host runs right now.

On a host whose cores are shared, other load slows every process on it by up
to half for seconds to minutes at a time, so two runs of the same code can
differ by more than any bound worth setting.  The benchmark times a kernel
next to the work it measures and reports each time divided by the kernel's
time there, scaled by the kernel's ``reference_s``: seconds on a host where
the kernel takes ``reference_s`` (about its median on a 2-vCPU Xeon).  The
kernels do not use alflb, so a change to the program moves the reported
times as it moves the raw ones; the raw times are printed beside them.

Other load does not slow every kind of work alike: a sort of a matrix that
does not fit in the core's own cache follows it differently from interpreted
Python.  So each workload has a kernel of the kind of work it does:

  * ``small_lab``: interpreted Python, numpy calls on small arrays (call
    overhead) and a small stable argsort;
  * ``large_trace``: the stable argsort of a (4096, 64) matrix, the router's
    kernel at that workload's shape;
  * ``stochastic``: Beta sampling with a batched argsort and a scipy
    quadrature of a frozen distribution's pdf and cdf.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 2

_MATRIX = np.random.default_rng(0).standard_normal((4096, 64))
_SMALL = np.linspace(0.0, 1.0, 64)


def _overhead() -> None:
    acc = 0
    table: dict[int, int] = {}
    for i in range(20_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    x = _SMALL
    for _ in range(500):
        x = np.sqrt(x * x + 1.0) - 1.0
        acc += int(np.argmax(x))
    np.argsort(-_MATRIX[:1024], axis=1, kind="stable")


def _sort() -> None:
    np.argsort(-_MATRIX, axis=1, kind="stable")


def _quadrature() -> None:
    import scipy.integrate
    import scipy.stats

    draws = np.random.default_rng(0).beta(2.0, 2.5, size=(4096, 8))
    np.argsort(-draws, axis=1, kind="stable")
    dist = scipy.stats.beta(2.0, 2.5)
    scipy.integrate.quad(lambda t: dist.pdf(t) * dist.cdf(t), 0.0, 1.0)


# workload: (kernel, reference_s)
KERNELS = {
    "small_lab": (_overhead, 0.010),
    "large_trace": (_sort, 0.010),
    "stochastic": (_quadrature, 0.033),
}


def reference_s(workload: str) -> float:
    return KERNELS[workload][1]


def kernel_s(workload: str) -> float:
    """The workload's kernel's time now: the faster of ``REPEATS`` runs."""
    kernel = KERNELS[workload][0]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
