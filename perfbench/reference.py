"""A fixed reference computation timed next to every pass.

On a shared virtual machine the speed of a core drifts by ±20 % over minutes,
for the workloads and for plain numpy loops alike. A pass's wall time divided
by the time of this kernel, measured just before, during (between operations)
and just after the pass, cancels most of that drift. The kernel uses no heavytail_lmc code, so a change
to the program cannot move it. Its mix follows the workloads: an interpreter
loop, many small-array numpy calls (as in the finite-volume solver), and
Philox normals in 10^4 x 2 blocks (as in the sampler).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np


def kernel_s() -> float:
    """Wall time of one run of the kernel (0.1-0.15 s on a 2.0 GHz Xeon)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 2048)
    for _ in range(5000):
        y = np.diff(x) * x[1:]
        z = np.zeros_like(x)
        z[:-1] += y
        z[1:] -= y
        x = x + 1e-9 * z
    gen = np.random.Generator(np.random.Philox(key=1))
    for _ in range(30):
        block = gen.standard_normal((10_000, 2))
        np.einsum("ij,ij->i", block, block)
    return time.perf_counter() - t0


class Sampler:
    """Call between a pass's operations: runs the kernel once ``every_s``
    seconds have passed since the last run and returns the seconds it took
    (0 otherwise), so the pass can leave them out of its wall time."""

    def __init__(self, every_s: float = 1.0):
        self.every_s = every_s
        self.samples: list[float] = []
        self._due: Optional[float] = None

    def __call__(self) -> float:
        now = time.perf_counter()
        if self._due is not None and now < self._due:
            return 0.0
        self.samples.append(kernel_s())
        end = time.perf_counter()
        self._due = end + self.every_s
        return end - now
